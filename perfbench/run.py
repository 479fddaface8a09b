"""The repo benchmark: cold processes from policy bank to audited report.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Each workload runs in fresh child processes (``child.py``), one after
another, for about ``--seconds`` after a short CPU warm-up: a child is
started only while it is expected to end in time, and at least one child
per mode runs.  Every child is a cold process that sets up, does the
workload's work once and checks its outputs.  The run reports medians
over its children:

- ``--trace 0``: the end-to-end metrics, every child untraced.  When
  fewer than three children fit into the run, set-up-only children make
  up the ``setup_s`` samples.
- ``--trace 1``: the per-layer metrics.  Children alternate untraced and
  traced; traced children record spans around each layer's entry points
  (``tracing.py``), untraced ones supply the stage and quality figures and
  the baseline for ``trace.overhead_s``.  Traced and untraced outputs must
  be equal.

Before its first run in a source tree, the benchmark prepares the bank
once, untimed: the stacked bank must equal, byte for byte, the bank
solved cell by cell through the per-load reference backend.  Serving
workloads read that bank from its cache, and each ``bank-cold`` child
checks the bank it saves against the recorded reference digest.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it name every
metric with its unit, median, highest supported percentile and sample
count, plus host and input metadata.  The exit code is 0 only when every
correctness check passed.  See NOTES.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
WORKLOADS = ("bank-cold", "serve-twitter", "serve-explain", "serve-paced")
#: Seconds every CPU is kept busy before a run's first child: on an idle
#: host the first child after a pause ran up to 40% slower than the rest.
WARM_UP_S = 2.0
#: A run must end within 180 s; children are killed before this much
#: time has passed since the run began.
RUN_BUDGET_S = 170.0
#: Fewest set-up samples behind a run's ``setup_s``: when fewer untraced
#: children fit into the run, set-up-only children make up the rest.
MIN_SETUPS = 3

#: End-to-end metrics: name -> unit (all lower is better).
END_TO_END = {
    "setup_s": "s",
    "e2e_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> Dict[str, str]:
    """Per-layer metric name -> unit, as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def bank_digest() -> str:
    """Hash of the program's source and the workload definitions, keying
    the prepared bank."""
    h = hashlib.sha256()
    for path in [*sorted((ROOT / "src").rglob("*.py")), HERE / "workloads.py"]:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


class ChildFailed(RuntimeError):
    """A child process or the build step did not finish cleanly."""


class BankWrong(Exception):
    """The bank the program built differs from the per-load reference."""


def compile_sources(deadline: float) -> None:
    """Byte-compile the program and the benchmark (the build step), so
    no timed child pays for compiling a module on first import."""
    done = subprocess.run(
        [sys.executable, "-m", "compileall", "-q", "src", str(HERE.relative_to(ROOT))],
        cwd=str(ROOT),
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if done.returncode != 0:
        raise ChildFailed(f"compileall failed:\n{done.stdout[-4000:]}{done.stderr[-4000:]}")


def warm_up(seconds: float) -> None:
    """Keep every CPU busy for ``seconds``; returns once all spinners ended."""
    spin = f"import time\nt = time.monotonic() + {seconds}\nwhile time.monotonic() < t: pass"
    others = [subprocess.Popen([sys.executable, "-c", spin])
              for _ in range((os.cpu_count() or 1) - 1)]
    try:
        end = time.monotonic() + seconds
        while time.monotonic() < end:
            pass
    finally:
        for proc in others:
            proc.wait()


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    # Keep every write inside the checkout.
    env["TMPDIR"] = str(tmp)
    env["RAMSIS_CACHE_DIR"] = str(WORK / "ramsis-cache")
    return env


def spawn(args: List[str], deadline: float) -> subprocess.CompletedProcess:
    """Run ``child.py`` to completion; killed (and reaped) at ``deadline``."""
    return subprocess.run(
        [sys.executable, str(HERE / "child.py"), *args],
        cwd=str(ROOT),
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )


def ensure_bank(size: str, deadline: float) -> Path:
    """The prepared bank directory, built and checked once per source
    tree; raises ``BankWrong`` when the bank differs from the reference."""
    target = WORK / f"bank-{size}-{bank_digest()}"
    if target.is_dir():
        return target
    work = WORK / "children" / f"prepare-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        done = spawn(["--workload", "prepare", "--seed", "0", "--size", size,
                      "--work", str(work), "--bank", str(target),
                      "--spawn", repr(time.monotonic())], deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if done.returncode not in (0, 3):
        raise ChildFailed(f"prepare child exited {done.returncode}:\n{done.stderr[-4000:]}")
    check = json.loads(done.stdout.strip().splitlines()[-1])["check"]
    if check:
        raise BankWrong(check)
    if not target.is_dir():
        raise ChildFailed("bank preparation left no bank")
    return target


def run_child(workload: str, seed: int, size: str, traced: bool,
              bank: Path, deadline: float,
              setup_only: bool = False) -> Dict[str, Any]:
    work = WORK / "children" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    args = ["--workload", workload, "--seed", str(seed), "--size", size,
            "--work", str(work), "--bank", str(bank)]
    if traced:
        args.append("--trace")
    if setup_only:
        args.append("--setup-only")
    args += ["--spawn", repr(time.monotonic())]
    done = spawn(args, deadline)
    try:
        if done.returncode not in (0, 3):
            raise ChildFailed(
                f"{workload} child exited {done.returncode}:\n{done.stderr[-4000:]}"
            )
        try:
            record = json.loads(done.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError) as exc:
            raise ChildFailed(f"{workload} child printed no record: {exc}") from exc
        if traced and (work / "spans.jsonl").is_file():
            spans = WORK / "spans"
            spans.mkdir(exist_ok=True)
            shutil.move(str(work / "spans.jsonl"), str(spans / f"{workload}.jsonl"))
        return record
    finally:
        shutil.rmtree(work, ignore_errors=True)


def high_percentile(values: List[float]) -> str:
    """The highest percentile with at least ten samples above it."""
    n = len(values)
    if n <= 10:
        return f"max {max(values):.6g}"
    q = 100.0 * (n - 10) / n
    ordered = sorted(values)
    return f"p{math.floor(q)} {ordered[math.ceil(q / 100.0 * n) - 1]:.6g}"


def describe(name: str, unit: str, values: List[float]) -> str:
    return (f"  {name:<36} {statistics.median(values):>14.6g} {unit:<6} "
            f"({high_percentile(values)}, n={len(values)})")


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 size: str, deadline: float) -> Dict[str, Any]:
    try:
        bank = ensure_bank(size, deadline)
    except BankWrong as exc:
        return {
            "lines": [f"{workload}: seed {seed}, size {size}",
                      f"  CHECK FAILED: prepared bank: {exc}"],
            "result": {"correct": False, "attempted": 1, "failed": 0, "metrics": {}},
            "children": [],
        }
    modes = [False, True] if trace else [False]
    warm_up(WARM_UP_S)
    children: List[Dict[str, Any]] = []
    lengths: List[float] = []
    start = time.monotonic()
    # Start another child only while it is expected to end within the
    # run's seconds, so a run lasts about --seconds whatever a child costs.
    while (len(children) < len(modes)
           or time.monotonic() - start + statistics.median(lengths) <= seconds):
        traced = modes[len(children) % len(modes)]
        began = time.monotonic()
        children.append(run_child(workload, seed, size, traced, bank, deadline))
        lengths.append(time.monotonic() - began)
    setups = [c for c in children if not c["traced"]]
    while not trace and len(setups) < MIN_SETUPS:
        setups.append(run_child(workload, seed, size, False, bank, deadline,
                                setup_only=True))

    failures = [c["check"] for c in children if c["check"]]
    digests = {c["digest"] for c in children if not c["check"]}
    if len(digests) > 1:
        failures.append(
            "outputs differ between children of one seed"
            + (" (traced vs untraced)" if trace else ""))
    plain = [c for c in children if not c["traced"]]
    traced_children = [c for c in children if c["traced"]]
    lines = [f"{workload}: seed {seed}, {len(children)} cold children "
             f"({len(traced_children)} traced, {len(setups) - len(plain)} more set up "
             f"only), size {size}"]
    meta = dict(children[0]["meta"])
    lines.append("  host/input: " + ", ".join(f"{k}={v}" for k, v in meta.items()))

    metrics: Dict[str, Dict[str, Any]] = {}
    if not failures:
        if trace:
            samples: Dict[str, List[float]] = {}
            for c in traced_children:
                for k, v in c["layers"].items():
                    samples.setdefault(k, []).append(float(v))
            for c in plain:
                for k, v in c["stage"].items():
                    samples.setdefault(k, []).append(float(v))
            samples["trace.overhead_s"] = [
                statistics.median(c["e2e_s"] for c in traced_children)
                - statistics.median(c["e2e_s"] for c in plain)]
            units = per_layer_units()
            for name in units:
                values = samples.get(name, [0.0])
                metrics[name] = {"value": statistics.median(values), "unit": units[name]}
                lines.append(describe(name, units[name], values))
        else:
            for name, unit in END_TO_END.items():
                values = [float(c[name]) for c in (setups if name == "setup_s" else plain)]
                metrics[name] = {"value": statistics.median(values), "unit": unit}
                lines.append(describe(name, unit, values))
            # The outcome and per-rate figures the children measure
            # themselves, by name; they are reported, not gated.
            for name, unit in per_layer_units().items():
                values = [float(c["stage"][name]) for c in plain if name in c["stage"]]
                if values:
                    lines.append(describe(name, unit, values))
    for failure in failures:
        lines.append(f"  CHECK FAILED: {failure}")
    return {
        "lines": lines,
        "result": {
            "correct": not failures,
            "attempted": sum(int(c["attempted"] or 0) for c in children) or len(children),
            "failed": sum(int(c["failed"] or 0) for c in children),
            "metrics": metrics,
        },
        "children": children,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    try:
        compile_sources(time.monotonic() + RUN_BUDGET_S)
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(exc, file=sys.stderr)
        return 1
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    for name in names:
        try:
            out = run_workload(name, args.seed, args.seconds, bool(args.trace), args.size,
                               time.monotonic() + RUN_BUDGET_S)
        except (ChildFailed, subprocess.TimeoutExpired) as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        results = WORK / "results"
        results.mkdir(exist_ok=True)
        (results / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(out, indent=1))
        print("\n".join(out["lines"]))
        print(json.dumps(out["result"]), flush=True)
        ok = ok and out["result"]["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
