"""Shared benchmark configuration and result handling.

Every benchmark regenerates one of the paper's tables or figures at
``BENCH_SCALE`` — a 10x-smaller cluster with per-worker load identical to
the paper (DESIGN.md §6) and trimmed sweep densities so the full benchmark
suite completes in minutes.  Rendered tables are written to
``benchmarks/out/<name>.txt`` (and echoed through pytest's captured stdout)
so the reproduced series survive the run.

Set ``RAMSIS_BENCH_SCALE=paper`` in the environment to run any benchmark at
the paper's full parameters (hours).
"""

from __future__ import annotations

import json
import os
import platform
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np
import scipy

from repro.experiments.scale import ExperimentScale

__all__ = [
    "bench_scale",
    "bench_workers",
    "bench_use_cache",
    "emit",
    "host_metadata",
    "points_payload",
    "cached_fig5",
    "cached_fig6",
]

_OUT_DIR = Path(__file__).parent / "out"
_ROOT_DIR = Path(__file__).parent.parent


def bench_scale() -> ExperimentScale:
    """The benchmark preset (overridable via RAMSIS_BENCH_SCALE)."""
    name = os.environ.get("RAMSIS_BENCH_SCALE", "bench")
    if name == "paper":
        return ExperimentScale.paper()
    if name == "default":
        return ExperimentScale.default()
    if name == "smoke":
        return ExperimentScale.smoke()
    # The benchmark default: 1/10th cluster, trimmed sweeps.
    return ExperimentScale.default().with_overrides(
        name="bench",
        worker_counts=(4, 6, 8, 10, 12, 14),
        constant_loads_qps=tuple(float(q) for q in range(40, 401, 80)),
        trace_duration_s=60.0,
        constant_duration_s=15.0,
        fld_resolution=30,
        policy_grid_points=5,
        ms_profile_duration_s=5.0,
        ms_profile_grid_points=6,
        fidelity_worker_counts=(2, 4),
        many_model_workers=6,
    )


def bench_workers() -> int:
    """Process count for parallel policy-bank passes.

    Set with ``pytest benchmarks/... --workers N`` (see
    ``benchmarks/conftest.py``) or ``RAMSIS_BENCH_WORKERS``; defaults to the
    machine's CPU count, floored at 2 so the parallel path is exercised
    even on single-core CI runners.
    """
    env = os.environ.get("RAMSIS_BENCH_WORKERS")
    if env:
        return max(int(env), 1)
    return max(os.cpu_count() or 1, 2)


def host_metadata() -> Dict[str, object]:
    """CPU count and interpreter/library versions, for BENCH payloads."""
    return {
        "nproc": os.cpu_count() or 1,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def bench_use_cache() -> bool:
    """Whether policy-bank benchmarks should run their cache passes.

    Disabled with ``pytest benchmarks/... --no-cache`` or
    ``RAMSIS_BENCH_NO_CACHE=1``.
    """
    return os.environ.get("RAMSIS_BENCH_NO_CACHE", "") not in ("1", "true")


def emit(
    name: str,
    text: str,
    data: Optional[Dict] = None,
    root: bool = False,
) -> None:
    """Print a rendered table and persist it under benchmarks/out/.

    When ``data`` is given, a machine-readable ``<name>.json`` is written
    alongside the text table so the performance trajectory can be diffed
    across commits instead of scraped from ASCII (and appended to the
    benchmark history log by ``ramsis bench-history``).  With ``root=True``
    the same payload is also written to ``BENCH_<name>.json`` at the repo
    root — the convention for headline numbers that should be visible
    without digging into ``benchmarks/out/``.
    """
    print()
    print(text)
    _OUT_DIR.mkdir(exist_ok=True)
    (_OUT_DIR / f"{name}.txt").write_text(text + "\n")
    if data is not None:
        payload = json.dumps(data, indent=1, sort_keys=True) + "\n"
        (_OUT_DIR / f"{name}.json").write_text(payload)
        if root:
            (_ROOT_DIR / f"BENCH_{name}.json").write_text(payload)


def points_payload(points: Sequence) -> List[Dict]:
    """Convert a sequence of ``MethodPoint``-like rows to JSON-safe dicts.

    Accepts any objects exposing the ``MethodPoint`` fields; missing
    attributes are simply omitted so ablation variants with extra or
    fewer columns serialize without ceremony.
    """
    fields = (
        "task",
        "method",
        "variant",
        "slo_ms",
        "num_workers",
        "load_qps",
        "accuracy",
        "violation_rate",
        "queries",
    )
    rows: List[Dict] = []
    for point in points:
        row: Dict = {}
        for field in fields:
            value = getattr(point, field, None)
            if value is None:
                continue
            row[field] = value.item() if hasattr(value, "item") else value
        rows.append(row)
    return rows


# ----------------------------------------------------------------------
# Figure results shared between benchmarks (Fig. 5 <-> Table 3 etc.).
# ----------------------------------------------------------------------
_RESULTS: Dict[str, object] = {}


def cached_fig5(scale: Optional[ExperimentScale] = None):
    """Run (once per session) the Fig. 5 sweep at bench scale."""
    key = "fig5"
    if key not in _RESULTS:
        from repro.experiments.fig5 import run_fig5

        _RESULTS[key] = run_fig5(scale=scale or bench_scale(), slos_per_task=1)
    return _RESULTS[key]


def cached_fig6(scale: Optional[ExperimentScale] = None):
    """Run (once per session) the Fig. 6 sweep at bench scale."""
    key = "fig6"
    if key not in _RESULTS:
        from repro.experiments.fig6 import run_fig6

        _RESULTS[key] = run_fig6(scale=scale or bench_scale(), slos_per_task=1)
    return _RESULTS[key]
