"""Run reports.

:func:`render_run_report` (``ramsis report --run-dir``) folds one run
directory — worker shards and merged artifacts from
:mod:`repro.obs.aggregate`, plus an ``audit.json`` from the live
guarantee auditor when present — into a single text or HTML summary:
shard inventory, reconstructed lifecycle aggregates, metric highlights,
audit verdicts.  :func:`render_top_frame` renders one frame of the live
``ramsis top`` view.
"""

from __future__ import annotations

import html
import json
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.obs.reconstruct import TraceSummary, _iter_jsonl, reconstruct_from_jsonl

__all__ = [
    "render_run_report",
    "write_run_report",
    "render_top_frame",
]


# ----------------------------------------------------------------------
# Run reports
# ----------------------------------------------------------------------
def _count_lines(path: Path) -> int:
    count = 0
    with path.open("r", encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                count += 1
    return count


def _find_merged_jsonl(run_dir: Path) -> Optional[Path]:
    merged = run_dir / "merged.jsonl"
    return merged if merged.is_file() else None


def _summary_rows(summary: TraceSummary) -> List[Tuple[str, str]]:
    return [
        ("arrivals", str(summary.arrivals)),
        ("completed queries", str(summary.total_queries)),
        ("satisfied queries", str(summary.satisfied_queries)),
        ("violation rate", f"{summary.violation_rate * 100:.3f}%"),
        (
            "accuracy (satisfied)",
            f"{summary.accuracy_per_satisfied_query * 100:.2f}%",
        ),
        ("MS&S decisions", str(summary.decisions)),
        ("mean batch size", f"{summary.mean_batch_size:.3f}"),
    ]


def _metric_rows(metrics_json: Path) -> List[Tuple[str, str]]:
    data = json.loads(metrics_json.read_text())
    rows: List[Tuple[str, str]] = []
    for entry in data.get("metrics", []):
        labels = ",".join(f"{k}={v}" for k, v in entry.get("labels", []))
        label = entry["name"] + (f"{{{labels}}}" if labels else "")
        state = entry.get("state", {})
        kind = entry.get("kind")
        if kind == "counter":
            rows.append((label, f"{state.get('value', 0.0):g}"))
        elif kind == "gauge":
            value = state.get("value")
            series = state.get("series", [])
            shown = "-" if value is None else f"{value:g}"
            rows.append((label, f"{shown} ({len(series)} samples)"))
        elif kind == "histogram":
            count = state.get("count", 0)
            total = state.get("sum", 0.0)
            mean = total / count if count else 0.0
            rows.append((label, f"count={count} mean={mean:.3f}"))
    return rows


def _audit_rows(audit_json: Path) -> List[Tuple[str, str]]:
    data = json.loads(audit_json.read_text())
    rows: List[Tuple[str, str]] = []
    for key in ("ok", "windows", "breaches", "alerts"):
        if key in data:
            value = data[key]
            rows.append((key, str(len(value) if isinstance(value, list) else value)))
    if not rows:
        rows.append(("keys", ", ".join(sorted(data)[:8])))
    return rows


def _load_attribution(run_dir: Path) -> Optional[Dict[str, Any]]:
    """The run's attribution snapshot, preferring the merged artifact.

    Falls back to folding ``merged.jsonl`` when no ``attribution.json``
    was written (e.g. the sweep ran without an attributor attached).
    """
    direct = run_dir / "attribution.json"
    if direct.is_file():
        return json.loads(direct.read_text())
    merged = _find_merged_jsonl(run_dir)
    if merged is None:
        return None
    from repro.obs.attribution import attribution_from_jsonl

    snap = attribution_from_jsonl(merged).to_json_dict()
    return snap if snap["totals"]["queries"] else None


def _attribution_rows(snap: Dict[str, Any]) -> List[Tuple[str, str]]:
    rows: List[Tuple[str, str]] = []
    for r in snap.get("rows", []):
        n = max(r["queries"], 1)
        rows.append(
            (
                f"{r['model']} @ worker {r['worker']}",
                "{} queries, wait {:.2f} ms, service {:.2f} ms, "
                "blame/q {:.2f} ms, {} violations, {} drops".format(
                    r["queries"],
                    r["queue_wait_ms"] / n,
                    r["service_ms"] / n,
                    r.get("blame_per_query_ms", 0.0),
                    r["violations"],
                    r["dropped"],
                ),
            )
        )
    totals = snap.get("totals", {})
    if totals:
        rows.append(
            (
                "totals",
                "{} queries, {} violations, {} drops, blame {:.1f} ms".format(
                    totals.get("queries", 0),
                    totals.get("violations", 0),
                    totals.get("dropped", 0),
                    totals.get("blame_ms", 0.0),
                ),
            )
        )
    for w in snap.get("burn", {}).get("windows", []):
        rows.append(
            (
                f"burn window {w['size']}",
                "rate {:.4f}, burn {:.3f}, alerts {}".format(
                    w["rate"], w["burn"], w["alerts"]
                ),
            )
        )
    chains = snap.get("exemplars", {}).get("chains", [])
    if chains:
        rows.append(("tail exemplars", f"{len(chains)} retained"))
    return rows


def _phase_stats(run_dir: Path) -> List[Any]:
    """Offline phase stats from the merged span records (may be empty)."""
    merged = _find_merged_jsonl(run_dir)
    if merged is None:
        return []
    from repro.obs.profile import stats_from_spans

    return stats_from_spans(_iter_jsonl(merged))


def _hotspot_rows(stats: List[Any], n: int = 10) -> List[Tuple[str, str]]:
    return [
        (
            ";".join(stat.path),
            "self {:.3f} ms / total {:.3f} ms over {} spans".format(
                stat.self_ms, stat.total_ms, stat.count
            ),
        )
        for stat in stats[:n]
    ]


def _gather_sections(run_dir: Path) -> List[Tuple[str, List[Tuple[str, str]]]]:
    sections: List[Tuple[str, List[Tuple[str, str]]]] = []

    shard_rows: List[Tuple[str, str]] = []
    for path in sorted(run_dir.glob("shard-*.jsonl")):
        shard_rows.append(
            (str(path.relative_to(run_dir)), f"{_count_lines(path) - 1} records")
        )
    if shard_rows:
        sections.append(("worker shards", shard_rows))

    merged = _find_merged_jsonl(run_dir)
    if merged is not None:
        summary = reconstruct_from_jsonl(merged)
        sections.append(
            (
                f"reconstructed from {merged.relative_to(run_dir)}",
                _summary_rows(summary),
            )
        )

    metrics_json = run_dir / "metrics.json"
    if metrics_json.is_file():
        sections.append(("merged metrics", _metric_rows(metrics_json)))

    audit_json = run_dir / "audit.json"
    if audit_json.is_file():
        sections.append(("guarantee audit", _audit_rows(audit_json)))

    attribution = _load_attribution(run_dir)
    if attribution is not None:
        sections.append(("latency attribution", _attribution_rows(attribution)))

    hotspot_rows = _hotspot_rows(_phase_stats(run_dir))
    if hotspot_rows:
        sections.append(("phase hotspots (self-time)", hotspot_rows))

    artifact_rows = [
        (name, f"{(run_dir / name).stat().st_size} bytes")
        for name in (
            "merged.jsonl",
            "trace.json",
            "metrics.prom",
            "metrics.json",
            "attribution.json",
            "profile.folded",
        )
        if (run_dir / name).is_file()
    ]
    if artifact_rows:
        sections.append(("merged artifacts", artifact_rows))
    return sections


def render_run_report(run_dir: Union[str, Path], fmt: str = "text") -> str:
    """One summary (text or HTML) of a run directory's artifacts."""
    directory = Path(run_dir)
    if not directory.is_dir():
        raise FileNotFoundError(f"run directory not found: {directory}")
    sections = _gather_sections(directory)
    title = f"ramsis run report — {directory}"
    if fmt == "text":
        lines = [title, "=" * len(title)]
        if not sections:
            lines.append("(no observability artifacts found)")
        for heading, rows in sections:
            lines.append("")
            lines.append(heading)
            lines.append("-" * len(heading))
            width = max((len(k) for k, _ in rows), default=0)
            for key, value in rows:
                lines.append(f"  {key.ljust(width)}  {value}")
        return "\n".join(lines) + "\n"
    if fmt == "html":
        parts = [
            "<!doctype html>",
            "<html><head><meta charset='utf-8'>",
            f"<title>{html.escape(title)}</title>",
            "<style>body{font-family:monospace;margin:2em}"
            "table{border-collapse:collapse;margin-bottom:1.5em}"
            "td,th{border:1px solid #999;padding:2px 8px;text-align:left}"
            "</style></head><body>",
            f"<h1>{html.escape(title)}</h1>",
        ]
        if not sections:
            parts.append("<p>(no observability artifacts found)</p>")
        for heading, rows in sections:
            parts.append(f"<h2>{html.escape(heading)}</h2>")
            parts.append("<table>")
            for key, value in rows:
                parts.append(
                    f"<tr><td>{html.escape(key)}</td>"
                    f"<td>{html.escape(value)}</td></tr>"
                )
            parts.append("</table>")
        parts.append("</body></html>")
        return "\n".join(parts) + "\n"
    raise ValueError(f"unknown report format {fmt!r} (expected 'text' or 'html')")


def write_run_report(
    run_dir: Union[str, Path],
    out_path: Optional[Union[str, Path]] = None,
    fmt: str = "text",
) -> Path:
    """Render the run report and write it under (or at) ``out_path``.

    Alongside the report, the merged trace's phase self-times are written
    as ``profile.folded`` in the run directory (flamegraph-folded lines,
    directly consumable by ``flamegraph.pl``/speedscope) whenever the run
    recorded any spans.
    """
    directory = Path(run_dir)
    if out_path is None:
        out_path = directory / ("report.html" if fmt == "html" else "report.txt")
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(render_run_report(directory, fmt=fmt))
    stats = _phase_stats(directory)
    if stats:
        from repro.obs.profile import folded_lines

        lines = folded_lines(stats)
        if lines:
            (directory / "profile.folded").write_text("\n".join(lines) + "\n")
    return out_path


# ----------------------------------------------------------------------
# Live view (``ramsis top``)
# ----------------------------------------------------------------------
def _live_attribution(run_dir: Path) -> Optional[Tuple[str, Dict[str, Any]]]:
    """Freshest attribution snapshot by mtime.

    While a run is in flight the per-pid live feeds are newest; once the
    pool drains, the merged ``attribution.json`` (written last, global
    rather than one worker's view) takes over.
    """
    candidates = list(run_dir.glob("attribution-*.json"))
    merged = run_dir / "attribution.json"
    if merged.is_file():
        candidates.append(merged)
    for path in sorted(
        candidates, key=lambda p: p.stat().st_mtime, reverse=True
    ):
        try:
            return path.name, json.loads(path.read_text())
        except (json.JSONDecodeError, OSError):
            continue
    return None


def render_top_frame(run_dir: Union[str, Path], limit: int = 12) -> str:
    """One ``ramsis top`` frame: the run directory's freshest state.

    Reads the periodic live snapshots (``metrics-<pid>.json`` /
    ``attribution-<pid>.json``, written by the runtime controller's
    snapshot thread and by ``run_sweep`` pool workers) plus any merged
    artifacts, and renders a single text frame.  Pure read — safe to
    call while the run is still writing (snapshots are atomic renames).
    """
    directory = Path(run_dir)
    if not directory.is_dir():
        raise FileNotFoundError(f"run directory not found: {directory}")
    feeds = sorted(directory.glob("metrics*.json")) + sorted(
        directory.glob("attribution*.json")
    )
    title = f"ramsis top — {directory}"
    lines = [title, "=" * len(title)]
    if feeds:
        newest = max(feeds, key=lambda p: p.stat().st_mtime)
        age = max(0.0, time.time() - newest.stat().st_mtime)
        lines.append(f"feeds: {len(feeds)} files, freshest {age:.1f}s ago")
    else:
        lines.append("(no metrics/attribution feeds yet)")

    live = _live_attribution(directory)
    if live is not None:
        source, snap = live
        lines.append("")
        lines.append(f"latency attribution [{source}]")
        rows = _attribution_rows(snap)
        width = max((len(k) for k, _ in rows), default=0)
        for key, value in rows[: limit + 6]:
            lines.append(f"  {key.ljust(width)}  {value}")

    for path in sorted(directory.glob("metrics-*.json")) or sorted(
        directory.glob("metrics.json")
    ):
        try:
            rows = _metric_rows(path)
        except (json.JSONDecodeError, OSError):
            continue
        lines.append("")
        lines.append(path.name)
        width = max((len(k) for k, _ in rows[:limit]), default=0)
        for key, value in rows[:limit]:
            lines.append(f"  {key.ljust(width)}  {value}")
        if len(rows) > limit:
            lines.append(f"  ... {len(rows) - limit} more metrics")
    return "\n".join(lines) + "\n"
