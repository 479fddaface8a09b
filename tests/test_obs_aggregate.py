"""Cross-process trace shipping and merge semantics.

The tentpole contract: worker shards written by :class:`ShardTracer`
merge back into one multi-track tracer/registry in serial cell order, so
a traced parallel sweep reconstructs to *exactly* the serial traced
run's numbers, and the merged Chrome trace is Perfetto-loadable with one
process group per worker.
"""

import json

import pytest

from repro.arrivals.traces import LoadTrace
from repro.cache import PolicyCache
from repro.experiments.runner import clear_caches
from repro.experiments.scale import ExperimentScale
from repro.experiments.sweep import SweepCell, run_sweep
from repro.experiments.tasks import image_task
from repro.obs.aggregate import (
    ShardTracer,
    merge_run_dir,
    write_merged_artifacts,
)
from repro.obs.exporters import chrome_trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.reconstruct import reconstruct_from_jsonl, reconstruct_metrics
from repro.obs.trace import RecordingTracer


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_caches()
    yield
    clear_caches()


def sweep_cells(loads=(20.0, 50.0)):
    scale = ExperimentScale.smoke()
    task = image_task()
    cells = [
        SweepCell(
            method=method,
            task=task,
            slo_ms=task.slos_ms[0],
            num_workers=scale.constant_workers_image,
            trace=LoadTrace.constant(
                load, scale.constant_duration_s * 1000.0, name=f"agg-{load:g}"
            ),
            seed=23,
            oracle_load=True,
        )
        for load in loads
        for method in ("RAMSIS", "JF")
    ]
    return cells, scale


class TestShardTracer:
    def test_header_and_record_schema(self, tmp_path):
        path = tmp_path / "shard-123.jsonl"
        tracer = ShardTracer(path, pid=123)
        tracer.set_sequence(4)
        with tracer.span("outer", track="t"):
            with tracer.span("inner", track="t"):
                pass
        tracer.instant("tick", "t", 1.0)
        tracer.counter("queue", "t", 2.0, 7.0)
        tracer.close()

        records = [json.loads(line) for line in path.read_text().splitlines()]
        header, rest = records[0], records[1:]
        assert header["type"] == "shard_header"
        assert header["pid"] == 123
        assert header["anchor_unix_ms"] > 0
        # Every record carries the sequence stamp and a monotonic counter.
        assert [r["seq"] for r in rest] == [4] * len(rest)
        assert [r["n"] for r in rest] == list(range(len(rest)))
        inner, outer = rest[0], rest[1]  # inner span closes first
        assert inner["name"] == "inner"
        assert inner["parent"] == outer["id"]
        assert rest[2]["type"] == "instant"
        assert rest[3]["type"] == "counter"

    def test_mutable_args_captured_at_exit(self, tmp_path):
        tracer = ShardTracer(tmp_path / "shard-1.jsonl", pid=1)
        outcome = {}
        with tracer.span("cache_get", track="cache", args=outcome):
            outcome["hit"] = True
        tracer.close()
        records = [
            json.loads(line)
            for line in tracer.path.read_text().splitlines()
        ]
        assert records[-1]["args"] == {"hit": True}

    def test_shard_is_reconstruction_input(self, tmp_path, tiny_models):
        """A shard file is itself valid events_jsonl for reconstruction."""
        from tests.test_obs_integration import traced_run
        from tests.test_sim_simulator import AlwaysModelSelector

        metrics, tracer, _ = traced_run(
            tiny_models,
            AlwaysModelSelector("fast"),
            LoadTrace.constant(100.0, 5_000.0),
        )
        shard = ShardTracer(tmp_path / "shard-9.jsonl", pid=9)
        for span in tracer.spans:
            shard.complete(
                span.name,
                span.track,
                span.start_ms,
                span.duration_ms,
                span.category,
                dict(span.args),
            )
        for ev in tracer.events:
            if ev.is_counter:
                shard.counter(ev.name, ev.track, ev.ts_ms, ev.value)
            else:
                shard.instant(ev.name, ev.track, ev.ts_ms, args=dict(ev.args))
        shard.close()
        summary = reconstruct_from_jsonl(shard.path)
        assert summary.total_queries == metrics.total_queries
        assert summary.violation_rate == metrics.violation_rate


class TestMergeRunDir:
    def _write_shards(self, tmp_path):
        """Two shards with interleaved sequence numbers."""
        a = ShardTracer(tmp_path / "shard-100.jsonl", pid=100)
        b = ShardTracer(tmp_path / "shard-200.jsonl", pid=200)
        a.set_sequence(0)
        a.instant("cell_start", "worker", 1.0)
        b.set_sequence(1)
        b.instant("cell_start", "worker", 1.0)
        a.set_sequence(2)
        a.instant("cell_start", "worker", 1.0)
        a.close()
        b.close()
        return a, b

    def test_tracks_renamed_and_ordered_by_sequence(self, tmp_path):
        self._write_shards(tmp_path)
        merged = merge_run_dir(tmp_path)
        assert merged.tracer.tracks() == ["w0/worker", "w1/worker"]
        order = [
            ev.track for ev in merged.tracer.events if ev.name == "cell_start"
        ]
        # seq 0 (w0), seq 1 (w1), seq 2 (w0) — serial cell order.
        assert order == ["w0/worker", "w1/worker", "w0/worker"]
        assert merged.records == 3
        assert [s.pid for s in merged.shards] == [100, 200]
        assert [s.worker_index for s in merged.shards] == [0, 1]

    def test_merges_into_existing_recorder(self, tmp_path):
        self._write_shards(tmp_path)
        parent = RecordingTracer()
        with parent.span("sweep_submit", track="sweep"):
            pass
        merged = merge_run_dir(tmp_path, tracer=parent)
        assert merged.tracer is parent
        assert set(parent.tracks()) == {"sweep", "w0/worker", "w1/worker"}

    def test_offline_timestamps_reanchored_non_negative(self, tmp_path):
        a = ShardTracer(tmp_path / "shard-1.jsonl", pid=1)
        with a.span("solve", track="solver"):
            pass
        a.close()
        parent = RecordingTracer()  # created before merge → earliest anchor
        merged = merge_run_dir(tmp_path, tracer=parent)
        offline = [s for s in merged.tracer.spans if s.name == "solve"]
        assert offline
        assert all(s.start_ms >= 0.0 for s in offline)

    def test_registry_merge_sums_counters_and_labels_gauges(self, tmp_path):
        for pid in (10, 20):
            registry = MetricsRegistry()
            registry.counter("policy_cache_misses_total").inc(2)
            registry.gauge("load_qps").set(float(pid))
            (tmp_path / f"metrics-{pid}.json").write_text(
                json.dumps(registry.to_json_dict())
            )
        merged = merge_run_dir(tmp_path)
        (counter,) = merged.registry.collect("policy_cache_misses_total")
        assert counter.value == 4.0
        gauges = {
            dict(g.labels)["worker"]: g.value
            for g in merged.registry.collect("load_qps")
        }
        assert gauges == {"0": 10.0, "1": 20.0}


class TestParallelSweepEquality:
    def test_traced_parallel_reconstructs_exactly_like_serial(self, tmp_path):
        """The headline acceptance criterion: jobs>1 tracing is lossless."""
        cells, scale = sweep_cells()
        serial_tracer = RecordingTracer()
        serial = run_sweep(cells, scale, tracer=serial_tracer)
        clear_caches()
        parallel_tracer = RecordingTracer()
        registry = MetricsRegistry()
        parallel = run_sweep(
            cells,
            scale,
            jobs=2,
            cache=PolicyCache(directory=tmp_path / "cache"),
            tracer=parallel_tracer,
            registry=registry,
            run_dir=tmp_path / "run",
        )
        assert parallel == serial
        assert reconstruct_metrics(parallel_tracer) == reconstruct_metrics(
            serial_tracer
        )
        # Worker track groups exist alongside the parent's sweep track.
        tracks = parallel_tracer.tracks()
        assert "sweep" in tracks
        assert any(t.startswith("w0/") for t in tracks)

    def test_run_dir_gets_merged_artifacts(self, tmp_path):
        cells, scale = sweep_cells(loads=(20.0,))
        run_dir = tmp_path / "run"
        run_sweep(
            cells,
            scale,
            jobs=2,
            cache=PolicyCache(directory=tmp_path / "cache"),
            tracer=RecordingTracer(),
            run_dir=run_dir,
        )
        for name in ("merged.jsonl", "trace.json", "metrics.prom", "metrics.json"):
            assert (run_dir / name).is_file(), name
        assert list(run_dir.glob("shard-*.jsonl"))
        summary = reconstruct_from_jsonl(run_dir / "merged.jsonl")
        assert summary.total_queries > 0


class TestChromeTraceSplitProcesses:
    def _merged_tracer(self, tmp_path):
        a = ShardTracer(tmp_path / "shard-1.jsonl", pid=1)
        b = ShardTracer(tmp_path / "shard-2.jsonl", pid=2)
        for shard in (a, b):
            shard.complete("serve", "worker-0", 0.0, 5.0)
            shard.instant("arrival", "balancer", 0.5)
        a.close()
        b.close()
        parent = RecordingTracer()
        with parent.span("sweep_submit", track="sweep"):
            pass
        return merge_run_dir(tmp_path, tracer=parent).tracer

    def test_one_process_group_per_worker(self, tmp_path):
        doc = chrome_trace(self._merged_tracer(tmp_path), split_processes=True)
        names = {
            ev["args"]["name"]: ev["pid"]
            for ev in doc["traceEvents"]
            if ev["ph"] == "M" and ev["name"] == "process_name"
        }
        # Parent group plus one group per worker, distinct pids.
        assert len(names) == 3
        assert len(set(names.values())) == 3
        worker_groups = [n for n in names if n.endswith(("w0", "w1"))]
        assert len(worker_groups) == 2

    def test_events_mapped_to_group_pids_with_valid_timestamps(self, tmp_path):
        doc = chrome_trace(self._merged_tracer(tmp_path), split_processes=True)
        events = [ev for ev in doc["traceEvents"] if ev["ph"] in ("X", "i")]
        assert events
        pids = {ev["pid"] for ev in events}
        assert len(pids) == 3  # parent + two workers
        for ev in events:
            assert ev["ts"] >= 0
            if ev["ph"] == "X":
                assert ev["dur"] >= 0

    def test_document_is_loadable_json(self, tmp_path):
        merged = merge_run_dir(tmp_path, tracer=self._merged_tracer(tmp_path))
        paths = write_merged_artifacts(merged, tmp_path / "out")
        doc = json.loads(paths["chrome"].read_text())
        assert isinstance(doc["traceEvents"], list)
        assert doc["displayTimeUnit"]


class TestTruncatedShards:
    """A crashed worker tears its shard mid-line; merging must degrade
    gracefully: every record before the tear survives, the torn line is
    skipped with a warning, nothing raises."""

    def _torn_shard(self, tmp_path):
        from repro.obs.aggregate import ShardTracer

        path = tmp_path / "shard-7.jsonl"
        tracer = ShardTracer(path, pid=7)
        tracer.set_sequence(0)
        for i in range(5):
            tracer.instant(
                "completion",
                "worker-0",
                float(i),
                args={
                    "query": i, "worker": 0, "model": "m",
                    "satisfied": True, "response_ms": 1.0,
                },
            )
        tracer.close()
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"type": "instant", "name": "comp')  # torn mid-write
        return path

    def test_merge_run_dir_skips_torn_line(self, tmp_path, caplog):
        self._torn_shard(tmp_path)
        with caplog.at_level("WARNING", logger="repro.obs.aggregate"):
            merged = merge_run_dir(tmp_path)
        assert any("unparseable" in r.message for r in caplog.records)
        assert len(merged.tracer.events) == 5

    def test_reconstruct_from_jsonl_skips_torn_line(self, tmp_path, caplog):
        path = self._torn_shard(tmp_path)
        with caplog.at_level("WARNING", logger="repro.obs.reconstruct"):
            summary = reconstruct_from_jsonl(path)
        assert any("unparseable" in r.message for r in caplog.records)
        assert summary.total_queries == 5

    def test_attribution_fold_skips_torn_line(self, tmp_path, caplog):
        from repro.obs.attribution import attribution_from_jsonl

        path = self._torn_shard(tmp_path)
        with caplog.at_level("WARNING", logger="repro.obs.attribution"):
            attributor = attribution_from_jsonl(path)
        assert any("unparseable" in r.message for r in caplog.records)
        assert attributor.to_json_dict()["totals"]["queries"] == 5


class TestLiveSnapshots:
    def test_write_live_snapshot_atomic_files(self, tmp_path):
        from repro.obs.aggregate import write_live_snapshot
        from repro.obs.attribution import LatencyAttributor

        registry = MetricsRegistry()
        registry.counter("queries_total").inc(3)
        attributor = LatencyAttributor(slo_ms=100.0)
        attributor.observe_completion(1, 0, "m", 9.0, True)
        paths = write_live_snapshot(
            tmp_path, registry=registry, attributor=attributor, pid=42
        )
        names = sorted(p.name for p in paths)
        assert names == ["attribution-42.json", "metrics-42.json"]
        snap = json.loads((tmp_path / "attribution-42.json").read_text())
        assert snap["totals"]["queries"] == 1
        metrics = json.loads((tmp_path / "metrics-42.json").read_text())
        assert any(
            m["name"] == "queries_total" for m in metrics["metrics"]
        )
        # No temp files left behind.
        assert not list(tmp_path.glob(".*tmp"))

    def test_snapshot_feeds_render_top_frame(self, tmp_path):
        from repro.obs.aggregate import write_live_snapshot
        from repro.obs.attribution import LatencyAttributor
        from repro.obs.report import render_top_frame

        attributor = LatencyAttributor(slo_ms=100.0)
        attributor.observe_completion(1, 0, "m", 9.0, True)
        write_live_snapshot(tmp_path, attributor=attributor, pid=7)
        frame = render_top_frame(tmp_path)
        assert "attribution-7.json" in frame
        assert "m @ worker 0" in frame
