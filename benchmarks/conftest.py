"""Benchmark-suite pytest options.

``--workers`` sizes the runtime stress fan-out
(:mod:`benchmarks.bench_runtime`) and ``--no-cache`` skips the policy-bank
cache passes (:mod:`benchmarks.bench_policy_bank`) without touching the
environment by hand; they land in ``RAMSIS_BENCH_WORKERS`` /
``RAMSIS_BENCH_NO_CACHE`` so
:func:`benchmarks._common.bench_workers` and friends can read them from any
process.
"""

from __future__ import annotations

import os


def pytest_addoption(parser):
    group = parser.getgroup("ramsis-bench")
    group.addoption(
        "--workers",
        action="store",
        type=int,
        default=None,
        help="processes for the runtime stress fan-out "
        "(default: RAMSIS_BENCH_WORKERS or CPU count)",
    )
    group.addoption(
        "--no-cache",
        action="store_true",
        default=False,
        help="skip persistent-cache passes in policy-bank benchmarks",
    )


def pytest_configure(config):
    workers = config.getoption("--workers", default=None)
    if workers is not None:
        os.environ["RAMSIS_BENCH_WORKERS"] = str(workers)
    if config.getoption("--no-cache", default=False):
        os.environ["RAMSIS_BENCH_NO_CACHE"] = "1"
