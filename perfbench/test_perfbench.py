"""Tests of the benchmark itself: tiny runs and one negative test per check.

    python3 -m pytest perfbench -q

The tiny runs go through ``run.py`` exactly as a full run does, on the
``tiny`` sizes.  Each negative test breaks one output the way a faulty
program would (a flipped policy byte, a dropped completion event, a
changed decision count) and shows that the matching check raises.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402
from repro.cache import PolicyCache  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=str(cwd),
        capture_output=True,
        text=True,
        timeout=170,
    )


# ----------------------------------------------------------------------
# Tiny runs of every workload
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run(workload, trace):
    done = run_bench(
        "--workload", workload, "--seed", "3", "--seconds", "0",
        "--trace", trace, "--size", "tiny",
    )
    assert done.returncode == 0, done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    key = "end_to_end" if trace == "0" else "per_layer"
    wanted = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
        # Every metric is printed by name with its unit.
        for name, unit in wanted.items():
            assert any(line.split()[:1] == [name] and f" {unit} " in line
                       for line in done.stdout.splitlines()), name
    else:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        assert m["trace.spans"] > 0
        if workload == "bank-cold":
            assert m["core.cells"] > 0 and m["core.sweeps"] > 0
            assert m["cache.puts"] == m["core.cells"]
            assert m["selectors.decisions"] == 0
        else:
            assert m["cache.hit_ratio"] == 1.0 and m["core.cells"] == 0
            # serve-twitter replays the runtime's decisions in the simulator.
            replays = 2 if workload == "serve-twitter" else 1
            assert m["selectors.decisions"] == replays * m["runtime.batches"] > 0
            assert m["obs.audit_events"] > 0
        if workload == "serve-twitter":
            assert m["sim.latency_calls"] > 0 and m["sim_qps"] > 0
        if workload == "serve-explain":
            assert m["obs.attr_events"] > 0 and m["obs.artifact_bytes"] > 0
        if workload == "serve-paced":
            assert m["paced_max_qps"] > 0


def test_fails_without_the_program(tmp_path):
    """A checkout holding only the benchmark exits non-zero, printing no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("--workload", "serve-twitter", "--seed", "1",
                     "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_spec_matches_runner():
    import run

    assert list(run.END_TO_END) == [m["name"] for m in SPEC["end_to_end"]]
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOADS == workloads.WORKLOADS


# ----------------------------------------------------------------------
# Shared tiny state
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """Tiny inputs, the prepared bank directory, a bank built into a cache
    and its saved copy."""
    base = tmp_path_factory.mktemp("tiny")
    workloads.prepare_bank(workloads.TINY, base / "prepared")
    inputs = workloads.make_inputs(workloads.TINY, seed=5, with_arrivals=True)
    bank = workloads.build_bank(inputs, PolicyCache(base / "cache"))
    bank.save(base / "bank")
    return inputs, bank, base


@pytest.fixture
def bank_copy(tiny, tmp_path):
    inputs, bank, base = tiny
    shutil.copytree(base / "cache", tmp_path / "cache")
    shutil.copytree(base / "bank", tmp_path / "bank")
    return inputs, bank, tmp_path


@pytest.fixture(scope="module")
def reference_digest(tiny):
    return (tiny[2] / "prepared" / workloads.REFERENCE_DIGEST).read_text()


# ----------------------------------------------------------------------
# bank-cold checks
# ----------------------------------------------------------------------
def test_prepared_bank_is_the_reference(tiny, reference_digest, tmp_path):
    inputs, _bank, base = tiny
    assert workloads.digest_dir(base / "bank") == reference_digest
    workloads.check_matches_reference(
        base / "bank", workloads.reference_bank(inputs), tmp_path / "ref")
    assert workloads.read_bank(inputs, base / "prepared" / "cache")


def test_bank_check_passes(bank_copy, reference_digest):
    inputs, bank, d = bank_copy
    workloads.check_bank(inputs, bank, d / "cache", d / "bank", reference_digest)


def _flip_saved_byte(directory):
    victim = sorted(directory.iterdir())[0]
    raw = bytearray(victim.read_bytes())
    at = raw.index(b'"model": "') + len(b'"model": "')
    raw[at] ^= 0x01
    victim.write_bytes(bytes(raw))


def _swap_first_two(directory):
    a, b = sorted(directory.iterdir())[:2]
    a_bytes = a.read_bytes()
    a.write_bytes(b.read_bytes())
    b.write_bytes(a_bytes)


def _flip_first_action(directory):
    victim = sorted(directory.iterdir())[0]
    data = json.loads(victim.read_text())
    table = data["policy"]
    models = sorted({a["model"] for a in table.values()})
    first = next(iter(table))
    table[first]["model"] = next(m for m in models if m != table[first]["model"])
    victim.write_text(json.dumps(data, indent=1, sort_keys=True))


@pytest.mark.parametrize("corrupt", [_flip_saved_byte, _swap_first_two, _flip_first_action])
def test_bank_check_catches_wrong_saved_bank(bank_copy, reference_digest, corrupt):
    """A solver that returns a wrong policy the same way every time would
    save, load back and cache it consistently; only the reference digest
    catches it."""
    inputs, bank, d = bank_copy
    corrupt(d / "bank")
    with pytest.raises(workloads.CheckError, match="reference"):
        workloads.check_bank(inputs, bank, d / "cache", d / "bank", reference_digest)


def test_bank_check_catches_unsaved_policy(bank_copy, reference_digest):
    inputs, bank, d = bank_copy
    generated = workloads.PolicySet(list(bank)[1:])
    with pytest.raises(workloads.CheckError, match="load back"):
        workloads.check_bank(inputs, generated, d / "cache", d / "bank", reference_digest)


def test_prepare_keeps_nothing_for_a_wrong_bank(tiny, tmp_path, monkeypatch):
    _inputs, _bank, base = tiny
    shutil.copytree(base / "bank", tmp_path / "wrong")
    _flip_first_action(tmp_path / "wrong")
    monkeypatch.setattr(workloads, "reference_bank",
                        lambda _inputs: workloads.PolicySet.load(tmp_path / "wrong"))
    with pytest.raises(workloads.CheckError, match="reference"):
        workloads.prepare_bank(workloads.TINY, tmp_path / "prepared")
    assert not (tmp_path / "prepared").exists()


def test_bank_check_catches_cache_returning_another_policy(bank_copy, reference_digest):
    inputs, bank, d = bank_copy
    artifact = sorted((d / "cache").glob("??/*.json"))[0]
    data = json.loads(artifact.read_text())
    table = data["policy"]["policy"]
    models = sorted({a["model"] for a in table.values()})
    first = next(iter(table))
    table[first]["model"] = next(m for m in models if m != table[first]["model"])
    artifact.write_text(json.dumps(data, sort_keys=True))
    with pytest.raises(workloads.CheckError, match="cache differs"):
        workloads.check_bank(inputs, bank, d / "cache", d / "bank", reference_digest)


def test_read_bank_rejects_misses(bank_copy):
    inputs, _bank, d = bank_copy
    sorted((d / "cache").glob("??/*.json"))[0].write_text("{not json")
    with pytest.raises(workloads.CheckError, match="misses"):
        workloads.read_bank(inputs, d / "cache")


# ----------------------------------------------------------------------
# Serving checks
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def served(tiny):
    """One audited unpaced run and its fast-simulator replay."""
    inputs, bank, _base = tiny
    auditors = [workloads.GuaranteeAuditor() for _ in range(workloads.NUM_SHARDS)]
    report = workloads.make_controller(inputs, paced=False).serve(
        workloads.audited_selectors(bank, auditors), inputs.trace,
        arrivals=inputs.arrivals, auditors=auditors,
    )
    sim = workloads.Simulation(
        workloads.SimulationConfig(
            model_set=inputs.task.model_set,
            slo_ms=inputs.slo_ms,
            num_workers=workloads.NUM_WORKERS,
            max_batch_size=inputs.scale.max_batch_size,
            monitor=workloads.OracleLoadMonitor(inputs.trace),
        )
    ).run(workloads.RamsisSelector(bank), inputs.trace,
          arrival_times=inputs.arrivals, engine="fast")
    return report, sim


def test_accounting_check(served, tiny):
    report, _sim = served
    n = tiny[0].arrivals.size
    workloads.check_accounting(report, n)
    with pytest.raises(workloads.CheckError, match="accounting"):
        workloads.check_accounting(report, n + 1)
    lost = dataclasses.replace(report, served=report.served - 1)
    with pytest.raises(workloads.CheckError, match="accounting"):
        workloads.check_accounting(lost, n)


def test_runtime_vs_sim_check(served):
    report, sim = served
    workloads.check_runtime_matches_sim(report.metrics, sim)
    # A last-ulp difference from fold order passes ...
    ulp = dataclasses.replace(
        sim, mean_response_ms=sim.mean_response_ms * (1 + 2.0 ** -52))
    workloads.check_runtime_matches_sim(report.metrics, ulp)
    # ... a different decision does not.
    counts = dict(sim.model_query_counts)
    a, b = sorted(counts)[:2] if len(counts) > 1 else (sorted(counts)[0], "other")
    counts[a] -= 1
    counts[b] = counts.get(b, 0) + 1
    with pytest.raises(workloads.CheckError, match="model_query_counts"):
        workloads.check_runtime_matches_sim(
            report.metrics, dataclasses.replace(sim, model_query_counts=counts))
    off = dataclasses.replace(sim, accuracy_per_satisfied_query=sim.accuracy_per_satisfied_query
                              * (1 + 1e-9))
    with pytest.raises(workloads.CheckError, match="accuracy"):
        workloads.check_runtime_matches_sim(report.metrics, off)


def test_paced_check(served):
    report, _sim = served
    workloads.check_paced_matches_unpaced(report, report, 1000)
    other = dataclasses.replace(
        report, metrics=dataclasses.replace(
            report.metrics, satisfied_queries=report.metrics.satisfied_queries - 1))
    with pytest.raises(workloads.CheckError, match="virtual-time"):
        workloads.check_paced_matches_unpaced(other, report, 1000)


def test_reconstruction_check_catches_dropped_completion(tiny, tmp_path):
    inputs, bank, _base = tiny
    result = workloads.run_serve_explain(inputs, bank, tmp_path, workloads.Marks())
    assert result["attempted"] > 0
    run_dir = tmp_path / "run"
    events = run_dir / "merged.jsonl"
    report = result["report"]
    workloads.check_reconstruction(events, report)
    lines = events.read_text().splitlines(keepends=True)
    drop = next(i for i, line in enumerate(lines) if '"completion"' in line)
    events.write_text("".join(lines[:drop] + lines[drop + 1:]))
    with pytest.raises(workloads.CheckError, match="completions"):
        workloads.check_reconstruction(events, report)


def test_paced_run_matches_unpaced(tiny, tmp_path):
    inputs, bank, _base = tiny
    result = workloads.run_serve_paced(inputs, bank, tmp_path, workloads.Marks())
    assert result["stage"]["paced_max_qps"] > 0
    assert result["failed"] == 0
