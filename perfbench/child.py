"""One cold process of a workload: set up, do the work once, check it.

Started by ``run.py`` with the parent's ``time.monotonic()`` at spawn, so
``setup_s`` and ``e2e_s`` count interpreter start-up too (the monotonic
clock is system-wide).  Prints one JSON record as its last line; exits 3
when a correctness check fails.

    python3 perfbench/child.py --workload serve-twitter --seed 1 \
        --spawn <monotonic> --work <dir> --bank <prepared dir> [--trace] \
        [--setup-only] [--size tiny]

``--workload prepare`` is the untimed step that builds and checks the
prepared bank directory at ``--bank`` (``workloads.prepare_bank``); it
prints ``{"check": null | "<failure>"}``.
"""

import time

import argparse
import json
import os
import platform
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawn", type=float, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--bank", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--size", default="full")
    args = parser.parse_args(argv)
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)

    t0 = time.perf_counter()
    import numpy
    import scipy

    import workloads
    import_s = time.perf_counter() - t0

    import repro

    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"repro imported from {repro.__file__}, not this checkout", file=sys.stderr)
        return 2
    sizes = workloads.SIZES[args.size]

    prepared = Path(args.bank)
    if args.workload == "prepare":
        try:
            workloads.prepare_bank(sizes, prepared)
            check = None
        except workloads.CheckError as exc:
            check = str(exc)
        print(json.dumps({"check": check}))
        return 3 if check else 0

    recorder = None
    if args.trace:
        import tracing

        recorder = tracing.Recorder()
        tracing.install(recorder)

    marks = workloads.Marks(on_done=None if recorder is None else recorder.uninstall)
    serving = args.workload in workloads.SERVE_WORKLOADS
    inputs = workloads.make_inputs(sizes, args.seed, with_arrivals=serving)
    record = {"workload": args.workload, "seed": args.seed, "traced": args.trace}
    try:
        if serving:
            t0 = time.perf_counter()
            bank = workloads.read_bank(inputs, prepared / "cache")
            bank_s = time.perf_counter() - t0
            if args.setup_only:
                marks.start()
                result = {}
            else:
                result = workloads.SERVE_RUNNERS[args.workload](inputs, bank, work, marks)
                result["stage"]["bank_s"] = bank_s
            result["bank_cells"] = len(bank)
        elif args.workload == "bank-cold" and args.setup_only:
            marks.start()
            result = {}
        elif args.workload == "bank-cold":
            reference_digest = (prepared / workloads.REFERENCE_DIGEST).read_text()
            result = workloads.run_bank_cold(inputs, reference_digest, work, marks)
        else:
            print(f"unknown workload {args.workload!r}", file=sys.stderr)
            return 2
        record["check"] = None
    except workloads.CheckError as exc:
        result = {}
        record["check"] = str(exc)

    if marks.first is not None:
        record["setup_s"] = marks.first - args.spawn
    if marks.final is not None:
        record["e2e_s"] = marks.final - args.spawn
    record.update(
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        import_s=import_s,
        meta={
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "seed": args.seed,
            "size": sizes.name,
            "queries": 0 if inputs.arrivals is None else int(inputs.arrivals.size),
            "submitted": result.get("attempted") if serving else 0,
            "bank_cells": result.get("bank_cells"),
        },
    )
    for key in ("digest", "attempted", "failed", "stage"):
        record[key] = result.get(key)
    if record["stage"] is not None:
        record["stage"]["arrivals.queries"] = float(record["meta"]["queries"])
    # Per-layer metrics folded from spans; everything a child measures
    # itself is in "stage".
    record["layers"] = {}
    if recorder is not None:
        record["layers"] = {**tracing.fold(recorder), "import.s": import_s}
        recorder.dump(work / "spans.jsonl")
    print(json.dumps(record))
    return 3 if record["check"] else 0


if __name__ == "__main__":
    sys.exit(main())
