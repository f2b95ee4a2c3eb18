"""Exporters: telemetry as Prometheus/OpenMetrics text, flat JSON and CSV.

A telemetry session (or a saved :class:`~repro.obs.manifest.RunManifest`)
is a tree of snapshots; monitoring systems want flat, typed samples.
Three renderings cover the consumers we care about:

* :func:`manifests_to_prometheus` / :func:`session_to_prometheus` —
  OpenMetrics text (the Prometheus exposition format): one metric
  family per instrument, counters suffixed ``_total``, histograms
  rendered as summaries with ``quantile`` labels, stage
  durations and event counts as labelled families, terminated by
  ``# EOF``.
* :func:`flatten_metrics` / :func:`manifests_to_json` — a flat
  ``{"name.field": value}`` dict per run, the shape dashboards and
  ad-hoc scripts index painlessly.
* :func:`manifests_to_csv` — one ``run,command,seed,metric,value`` row
  per scalar, concatenable across runs and loadable anywhere.

Everything here is pure formatting over snapshots — no I/O, no global
state — so the CLI, tests and embedders can call it on anything.
"""

from __future__ import annotations

import csv
import io
import json
import re
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..exceptions import ValidationError
from .manifest import RunManifest
from .session import TelemetrySession

__all__ = [
    "flatten_metrics",
    "manifests_to_json",
    "manifests_to_csv",
    "manifests_to_prometheus",
    "scoreboard_to_prometheus",
    "session_to_prometheus",
    "timeline_to_prometheus",
    "span_tree_rows",
    "PrometheusWriter",
]

_INVALID_NAME_CHARS = re.compile(r"[^a-zA-Z0-9_:]")
_INVALID_LABEL_CHARS = re.compile(r"[^a-zA-Z0-9_]")


# -- flat dumps ----------------------------------------------------------------

def flatten_metrics(metrics: Mapping[str, Mapping[str, object]]) -> Dict[str, object]:
    """Flatten a registry snapshot to ``{"name.field": value}``.

    The ``type`` discriminator and empty (None) fields are dropped; what
    remains is exactly the numeric content of the snapshot.
    """
    flat: Dict[str, object] = {}
    for name, snap in metrics.items():
        for field, value in snap.items():
            if field == "type" or value is None:
                continue
            flat[f"{name}.{field}"] = value
    return flat


def manifests_to_json(manifests: Sequence[RunManifest]) -> List[dict]:
    """One JSON-able record per run: identity, envelope, flat metrics."""
    records = []
    for index, manifest in enumerate(manifests):
        records.append({
            "run": index,
            "command": manifest.command,
            "seed": manifest.seed,
            "started_at": manifest.started_at,
            "wall_seconds": manifest.wall_seconds,
            "n_spans": len(manifest.spans),
            "n_events": len(manifest.events),
            "stage_seconds": manifest.stage_durations(),
            "metrics": flatten_metrics(manifest.metrics),
            "outcome": manifest.outcome,
        })
    return records


def manifests_to_csv(manifests: Sequence[RunManifest]) -> str:
    """Flat CSV: ``run,command,seed,metric,value`` rows for every scalar.

    Stage durations are included under ``stage.<path>.seconds`` names,
    so one CSV carries the whole quantitative content of a run.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["run", "command", "seed", "metric", "value"])
    for index, manifest in enumerate(manifests):
        seed = "" if manifest.seed is None else manifest.seed
        rows: List[Tuple[str, object]] = list(
            flatten_metrics(manifest.metrics).items())
        if manifest.wall_seconds is not None:
            rows.append(("run.wall_seconds", manifest.wall_seconds))
        for path, seconds in manifest.stage_durations().items():
            rows.append((f"stage.{path}.seconds", seconds))
        for metric, value in rows:
            writer.writerow([index, manifest.command, seed, metric, value])
    return buffer.getvalue()


def span_tree_rows(spans: Sequence[Mapping[str, object]]) -> List[List[str]]:
    """Render span dicts as indented ``[stage, seconds, status, worker]`` rows.

    Input is the JSON form produced by ``SpanCollector.to_list()`` (or a
    manifest's ``spans``), entry order.  Depth becomes two-space
    indentation, so merged cross-process trees — worker spans ingested
    under the campaign span — read as one tree.  The worker column shows
    ``pid@ordinal`` when the merge tagged the span, blank for local
    spans.
    """
    rows: List[List[str]] = []
    for span in spans:
        depth = int(span.get("depth") or 0)
        duration = span.get("duration")
        attrs = span.get("attrs") or {}
        worker_pid = attrs.get("worker_pid")
        worker = ("" if worker_pid is None
                  else f"{worker_pid}@{attrs.get('worker_ordinal', '?')}")
        rows.append([
            "  " * depth + str(span.get("name", "?")),
            "" if duration is None else f"{float(duration):.4f}",
            str(span.get("status", "open")),
            worker,
        ])
    return rows


# -- Prometheus / OpenMetrics --------------------------------------------------

def _metric_name(name: str, prefix: str) -> str:
    full = prefix + _INVALID_NAME_CHARS.sub("_", name)
    # The exposition grammar is [a-zA-Z_:][a-zA-Z0-9_:]* — guard the
    # first character (an empty or digit-leading prefix would break it).
    if not full or not re.match(r"[a-zA-Z_:]", full[0]):
        full = "_" + full
    return full


def _label_str(labels: Mapping[str, object]) -> str:
    if not labels:
        return ""
    parts = []
    for key in labels:
        value = str(labels[key])
        value = value.replace("\\", r"\\").replace('"', r'\"').replace("\n", r"\n")
        safe_key = _INVALID_LABEL_CHARS.sub("_", str(key))
        parts.append(f'{safe_key}="{value}"')
    return "{" + ",".join(parts) + "}"


def _format_value(value: object) -> str:
    number = float(value)  # bools and ints included
    if number != number:
        return "NaN"
    if number in (float("inf"), float("-inf")):
        return "+Inf" if number > 0 else "-Inf"
    return repr(number)


class PrometheusWriter:
    """Accumulates samples into OpenMetrics text, one family per name.

    Families are declared once (``# TYPE``/``# HELP``) in first-use
    order; samples within a family keep insertion order.  Re-adding a
    family with a conflicting type is an error — the exposition format
    forbids it, and a silent override would corrupt scrapes.

    Names are sanitized to the exposition charset at :meth:`sample`
    time, so instrument paths like ``campaign.stress-aging@entropy.runs``
    export as legal metric names — and two raw names that sanitize to
    the same family merge (same type) or raise (conflicting types)
    instead of emitting duplicate ``# TYPE`` declarations.
    """

    def __init__(self, *, prefix: str = "repro_") -> None:
        self.prefix = prefix
        self._families: Dict[str, dict] = {}

    def sample(
        self, name: str, mtype: str, value: object, *,
        labels: Optional[Mapping[str, object]] = None,
        suffix: str = "", help: Optional[str] = None,
        timestamp: Optional[float] = None,
    ) -> None:
        """Record one sample of family ``name`` (suffix for _sum/_count etc.).

        ``timestamp`` (UNIX seconds) is appended to the exposition line
        when given — the form timeline backfills use.
        """
        if mtype not in ("counter", "gauge", "summary", "info", "unknown"):
            raise ValidationError(f"unsupported metric type {mtype!r}")
        name = _INVALID_NAME_CHARS.sub("_", name)
        family = self._families.get(name)
        if family is None:
            family = {"type": mtype, "help": help, "samples": []}
            self._families[name] = family
        elif family["type"] != mtype:
            raise ValidationError(
                f"metric family {name!r} already declared as "
                f"{family['type']}, not {mtype}"
            )
        family["samples"].append((suffix, dict(labels or {}), value, timestamp))

    def render(self) -> str:
        """The full OpenMetrics exposition, terminated by ``# EOF``."""
        lines: List[str] = []
        for name, family in self._families.items():
            full = _metric_name(name, self.prefix)
            if family["help"]:
                lines.append(f"# HELP {full} {family['help']}")
            lines.append(f"# TYPE {full} {family['type']}")
            for suffix, labels, value, timestamp in family["samples"]:
                sample_name = full + suffix
                if family["type"] == "counter" and not suffix:
                    sample_name = full + "_total"
                stamp = "" if timestamp is None else f" {float(timestamp)!r}"
                lines.append(
                    f"{sample_name}{_label_str(labels)} "
                    f"{_format_value(value)}{stamp}")
        lines.append("# EOF")
        return "\n".join(lines) + "\n"


def _add_metrics_samples(
    writer: PrometheusWriter,
    metrics: Mapping[str, Mapping[str, object]],
    labels: Mapping[str, object],
) -> None:
    for name, snap in metrics.items():
        kind = snap.get("type")
        if kind == "counter":
            writer.sample(name, "counter", snap["value"], labels=labels)
        elif kind == "gauge":
            writer.sample(name, "gauge", snap["value"], labels=labels)
            if snap.get("max") is not None:
                writer.sample(f"{name}_max", "gauge", snap["max"], labels=labels)
        elif kind == "histogram":
            if not snap.get("count"):
                continue
            writer.sample(name, "summary", snap["count"],
                          labels=labels, suffix="_count")
            writer.sample(name, "summary", snap["total"],
                          labels=labels, suffix="_sum")
            for field, quantile in (("p50", "0.5"), ("p90", "0.9"),
                                    ("p99", "0.99")):
                if snap.get(field) is not None:
                    writer.sample(name, "summary", snap[field],
                                  labels={**labels, "quantile": quantile})
            for bound in ("min", "max"):
                if snap.get(bound) is not None:
                    writer.sample(f"{name}_{bound}", "gauge",
                                  snap[bound], labels=labels)


def manifests_to_prometheus(
    manifests: Sequence[RunManifest], *, prefix: str = "repro_",
) -> str:
    """Render run manifests as one OpenMetrics exposition.

    Each run's samples carry ``run``/``command`` (and ``seed`` when set)
    labels, so a multi-run archive exports as distinct series of shared
    metric families rather than colliding declarations.
    """
    if not manifests:
        raise ValidationError("no manifests to export")
    writer = PrometheusWriter(prefix=prefix)
    for index, manifest in enumerate(manifests):
        labels: Dict[str, object] = {"run": index, "command": manifest.command}
        if manifest.seed is not None:
            labels["seed"] = manifest.seed
        if manifest.wall_seconds is not None:
            writer.sample("run_wall_seconds", "gauge", manifest.wall_seconds,
                          labels=labels, help="total run wall-clock seconds")
        for path, seconds in manifest.stage_durations().items():
            writer.sample("stage_seconds", "gauge", seconds,
                          labels={**labels, "stage": path},
                          help="summed stage-span duration")
        event_counts: Dict[str, int] = {}
        for event in manifest.events:
            kind = str(event.get("kind", "unknown"))
            event_counts[kind] = event_counts.get(kind, 0) + 1
        for kind, count in sorted(event_counts.items()):
            writer.sample("events", "counter", count,
                          labels={**labels, "kind": kind},
                          help="recorded telemetry events by kind")
        _add_metrics_samples(writer, manifest.metrics, labels)
    return writer.render()


def scoreboard_to_prometheus(
    scoreboard: Mapping, *, prefix: str = "repro_",
) -> str:
    """Render a ``repro.scoreboard/1`` artifact as OpenMetrics text.

    Per-detector pooled figures are labelled ``detector``; per-cell
    figures add a ``cell`` label, so one scrape carries both the league
    table and the grid breakdown.  Undefined figures (no crashed runs,
    no ROC sweep) are simply omitted rather than exported as fake zeros.
    """
    if not scoreboard.get("detectors") and not scoreboard.get("cells"):
        raise ValidationError("no scoreboard entries to export")
    writer = PrometheusWriter(prefix=prefix)
    gauges = (
        ("auc", "scoreboard_auc", "peak-statistic ROC area under curve"),
        ("detection_rate", "scoreboard_detection_rate",
         "detected / crashed runs"),
        ("lead_p50", "scoreboard_lead_p50_seconds",
         "median crash lead time (simulated s)"),
        ("lead_p90", "scoreboard_lead_p90_seconds",
         "p90 crash lead time (simulated s)"),
        ("false_alarms_per_hour", "scoreboard_false_alarms_per_hour",
         "false alarms per hour of healthy runtime"),
    )
    counters = (
        ("n_runs", "scoreboard_runs", "runs scored"),
        ("crashed", "scoreboard_crashes", "runs that crashed"),
        ("detected", "scoreboard_detections", "crashes detected in time"),
        ("premature", "scoreboard_premature", "alarms before the lead gate"),
        ("missed", "scoreboard_missed", "crashes never alarmed"),
        ("false_alarms", "scoreboard_false_alarms",
         "alarms on runs that never crashed"),
    )
    def emit(entry: Mapping, labels: Dict[str, object]) -> None:
        for key, name, help_text in gauges:
            value = entry.get(key)
            if value is not None:
                writer.sample(name, "gauge", value, labels=labels,
                              help=help_text)
        for key, name, help_text in counters:
            writer.sample(name, "counter", entry.get(key, 0), labels=labels,
                          help=help_text)
    for name, det in scoreboard.get("detectors", {}).items():
        emit(det, {"detector": name})
    for name, cell in scoreboard.get("cells", {}).items():
        emit(cell, {"detector": cell.get("detector", "holder"), "cell": name})
    return writer.render()


def timeline_to_prometheus(
    records: Sequence[Mapping], *, prefix: str = "repro_",
) -> str:
    """Render a ``repro.timeline/1`` stream as timestamped OpenMetrics.

    Each frame's progress and resource figures become one sample per
    frame carrying the frame's ``wall_time`` — the backfill form
    ``promtool tsdb create-blocks-from openmetrics`` (and any TSDB
    importer) accepts, so a finished campaign's history can be loaded
    into a real monitoring stack after the fact.  Annotations export as
    plain counters by event kind, alert-rule firings (a watch session's
    ``alert`` annotations) by rule and severity, and the alarm, crash and
    lead times an ``end`` record carries as gauges.
    """
    frames = [r for r in records if r.get("kind") == "frame"]
    if not frames:
        raise ValidationError("no timeline frames to export")
    writer = PrometheusWriter(prefix=prefix)
    progress_gauges = (
        ("units_done", "timeline_units_done", "units completed so far"),
        ("units_failed", "timeline_units_failed", "units permanently failed"),
        ("units_remaining", "timeline_units_remaining", "units still queued"),
        ("units_per_second", "timeline_units_per_second",
         "EWMA completion throughput"),
        ("eta_seconds", "timeline_eta_seconds", "EWMA time-to-completion"),
    )
    for frame in frames:
        stamp = frame.get("wall_time")
        progress = frame.get("progress") or {}
        for key, name, help_text in progress_gauges:
            value = progress.get(key)
            if value is not None:
                writer.sample(name, "gauge", value, timestamp=stamp,
                              help=help_text)
        resources = frame.get("resources") or {}
        parent_rss = resources.get("parent_rss_bytes")
        if parent_rss is not None:
            writer.sample("timeline_rss_bytes", "gauge", parent_rss,
                          labels={"process": "parent"}, timestamp=stamp,
                          help="resident set size per process")
        for worker in resources.get("workers") or []:
            rss = worker.get("rss_bytes")
            if rss is not None:
                writer.sample(
                    "timeline_rss_bytes", "gauge", rss,
                    labels={"process": f"worker{worker.get('ordinal')}"},
                    timestamp=stamp, help="resident set size per process")
    event_counts: Dict[str, int] = {}
    alert_counts: Dict[Tuple[str, str], int] = {}
    end: Mapping = {}
    for record in records:
        if record.get("kind") == "annotation":
            event = str(record.get("event", "unknown"))
            event_counts[event] = event_counts.get(event, 0) + 1
            if event == "alert" and "rule" in record:
                key = (str(record["rule"]),
                       str(record.get("severity", "unknown")))
                alert_counts[key] = alert_counts.get(key, 0) + 1
        elif record.get("kind") == "end":
            end = record
    for event, count in sorted(event_counts.items()):
        writer.sample("timeline_annotations", "counter", count,
                      labels={"event": event},
                      help="timeline annotations by event kind")
    for (rule, severity), count in sorted(alert_counts.items()):
        writer.sample("watch_alerts_fired", "counter", count,
                      labels={"rule": rule, "severity": severity},
                      help="alert rule firings")
    for field, name in (("alarm_time", "watch_alarm_time_seconds"),
                        ("crash_time", "watch_crash_time_seconds"),
                        ("lead_time", "watch_lead_seconds")):
        value = end.get(field)
        if value is not None:
            writer.sample(name, "gauge", value,
                          help=f"{field.replace('_', ' ')} (simulated s)")
    return writer.render()


def session_to_prometheus(
    session: TelemetrySession, *, prefix: str = "repro_",
    labels: Optional[Mapping[str, object]] = None,
) -> str:
    """Render a live telemetry session as OpenMetrics text."""
    writer = PrometheusWriter(prefix=prefix)
    _add_metrics_samples(writer, session.metrics.snapshot(),
                         dict(labels or {}))
    return writer.render()
