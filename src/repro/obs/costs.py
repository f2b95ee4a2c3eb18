"""Cross-worker cost attribution from merged span trees.

A campaign's telemetry session holds one merged span tree: the parent's
``campaign-pool`` span plus every worker's spans ingested under
``campaign-pool/campaign-worker/...`` paths (see
:meth:`~repro.obs.spans.SpanCollector.ingest`).  This module folds that
tree into a versioned ``repro.costs/1`` *cost profile* answering "where
did the wall time go":

* each span path's **self time** (summed duration minus summed child
  duration, clamped at zero — parents overlap their children, and a
  pool span overlaps its concurrent workers),
* classified into the pipeline's five **phases** — ``simulate``
  (machine setup/run, vector fleet runs, a campaign unit's shard
  simulation), ``cwt-holder`` (the wavelet transform + Hölder
  trajectory), ``analysis`` (preprocess/indicator/detector, and each
  detector family's scoring of a campaign run), ``trace-io`` (trace
  collection, reads and writes) and ``pool-overhead`` (pool scheduling,
  worker glue) — with unmatched names inheriting the
  nearest classified ancestor, else ``other``,
* per worker (``attrs.worker_ordinal``; local spans pool under
  ``"parent"``) and pooled, with shares over total attributed self time
  (so shares sum to exactly 1.0 whenever any time was attributed),
* plus a "top cost centers" table (the heaviest paths by self time).

Everything is pure folding over span dicts — no I/O, no globals — so
it works on a live session, a saved manifest or a worker's telemetry
capture alike.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from ..exceptions import ValidationError

__all__ = [
    "COSTS_SCHEMA",
    "PHASES",
    "classify_span",
    "build_cost_profile",
    "cost_table",
    "validate_cost_profile",
]

COSTS_SCHEMA = "repro.costs/1"

PHASES = ("simulate", "cwt-holder", "analysis", "trace-io",
          "pool-overhead", "other")

# Span names -> phase.  Unlisted names inherit their nearest classified
# ancestor on the path (a span under analyze-counter is analysis work).
_PHASE_BY_SPAN = {
    "machine-setup": "simulate",
    "machine-run": "simulate",
    "holder": "cwt-holder",
    "analyze-counter": "analysis",
    "preprocess": "analysis",
    "indicator": "analysis",
    "detector": "analysis",
    "detector-score": "analysis",
    "fleet-vec-run": "simulate",
    "shard-simulate": "simulate",
    "machine-collect": "trace-io",
    "write-trace": "trace-io",
    "read-trace": "trace-io",
    "campaign-pool": "pool-overhead",
    "campaign-worker": "pool-overhead",
    "cell-run": "pool-overhead",
}


def classify_span(path: str) -> str:
    """Phase of a span *path*: its deepest classified segment, else
    ``other``."""
    for segment in reversed(path.split("/")):
        phase = _PHASE_BY_SPAN.get(segment)
        if phase is not None:
            return phase
    return "other"


def _worker_key(attrs: Mapping) -> str:
    ordinal = attrs.get("worker_ordinal")
    return "parent" if ordinal is None else f"w{ordinal}"


def _parent_path(path: str, known: Mapping) -> Optional[str]:
    """Longest strict path prefix present in ``known``.

    Worker spans are ingested under phantom ``campaign-worker`` levels
    that have no record of their own, so the lookup walks up segment by
    segment instead of chopping one level.
    """
    segments = path.split("/")
    for cut in range(len(segments) - 1, 0, -1):
        candidate = "/".join(segments[:cut])
        if candidate in known:
            return candidate
    return None


def build_cost_profile(spans: Sequence[Mapping], *, top: int = 12) -> dict:
    """Fold span dicts into a ``repro.costs/1`` cost profile.

    ``spans`` is the JSON span list of a session or manifest
    (:meth:`SpanCollector.to_list` shape); open spans (no duration) are
    skipped.  Raises :class:`ValidationError` when no span carries a
    duration — a cost profile of nothing would be all-NaN noise.
    """
    # Aggregate per (path, worker): duration + call count.
    agg: Dict[str, dict] = {}
    for span in spans:
        duration = span.get("duration")
        if duration is None:
            continue
        path = str(span.get("path") or span.get("name") or "?")
        entry = agg.setdefault(path, {
            "duration": 0.0, "count": 0, "workers": {}})
        entry["duration"] += float(duration)
        entry["count"] += 1
        worker = _worker_key(span.get("attrs") or {})
        per = entry["workers"].setdefault(
            worker, {"duration": 0.0, "count": 0})
        per["duration"] += float(duration)
        per["count"] += 1
    if not agg:
        raise ValidationError(
            "no completed spans to attribute — run with telemetry enabled")

    # Children roll up to the nearest *recorded* ancestor path.
    child_sum: Dict[str, float] = {}
    child_sum_by_worker: Dict[str, Dict[str, float]] = {}
    for path, entry in agg.items():
        parent = _parent_path(path, agg)
        if parent is None:
            continue
        child_sum[parent] = child_sum.get(parent, 0.0) + entry["duration"]
        per_parent = child_sum_by_worker.setdefault(parent, {})
        for worker, per in entry["workers"].items():
            per_parent[worker] = per_parent.get(worker, 0.0) + per["duration"]

    # Self time per path (clamped: a pool span's concurrent workers can
    # sum past its wall duration) and the attribution tables.
    centers: List[dict] = []
    phase_self: Dict[str, float] = {phase: 0.0 for phase in PHASES}
    worker_phase: Dict[str, Dict[str, float]] = {}
    total_self = 0.0
    for path, entry in agg.items():
        self_seconds = max(0.0, entry["duration"] - child_sum.get(path, 0.0))
        phase = classify_span(path)
        phase_self[phase] += self_seconds
        total_self += self_seconds
        centers.append({
            "path": path,
            "phase": phase,
            "calls": entry["count"],
            "total_seconds": entry["duration"],
            "self_seconds": self_seconds,
        })
        per_parent = child_sum_by_worker.get(path, {})
        for worker, per in entry["workers"].items():
            worker_self = max(0.0, per["duration"]
                              - per_parent.get(worker, 0.0))
            phases = worker_phase.setdefault(
                worker, {p: 0.0 for p in PHASES})
            phases[phase] += worker_self

    def shares(by_phase: Dict[str, float]) -> dict:
        total = sum(by_phase.values())
        return {
            phase: {
                "self_seconds": seconds,
                "share": (seconds / total) if total > 0 else None,
            }
            for phase, seconds in by_phase.items()
        }

    centers.sort(key=lambda c: (-c["self_seconds"], c["path"]))
    for center in centers:
        center["share"] = ((center["self_seconds"] / total_self)
                           if total_self > 0 else None)

    roots = [path for path in agg if _parent_path(path, agg) is None]
    wall = max((agg[path]["duration"] for path in roots), default=0.0)

    return {
        "schema": COSTS_SCHEMA,
        "wall_seconds": wall,
        "attributed_seconds": total_self,
        "n_spans": sum(entry["count"] for entry in agg.values()),
        "phases": shares(phase_self),
        "workers": {
            worker: shares(phases)
            for worker, phases in sorted(worker_phase.items())
        },
        "top_cost_centers": centers[:top],
    }


def cost_table(costs: Mapping) -> List[List[str]]:
    """Render a cost profile's top centers as aligned table rows
    (``path, phase, calls, self s, share``) for CLI output."""
    rows: List[List[str]] = []
    for center in costs.get("top_cost_centers", []):
        share = center.get("share")
        rows.append([
            str(center.get("path")),
            str(center.get("phase")),
            str(center.get("calls")),
            f"{float(center.get('self_seconds', 0.0)):.4f}",
            "—" if share is None else f"{100.0 * share:.1f}%",
        ])
    return rows


def _is_figure(value: object) -> bool:
    return value is None or (isinstance(value, (int, float))
                             and not isinstance(value, bool))


def validate_cost_profile(costs: object) -> Mapping:
    """Check that ``costs`` is a ``repro.costs/1`` profile whose figures
    the renderers can read; returns it, else raises
    :class:`ValidationError`.

    Every figure (top-level totals, per-phase and per-worker phase
    stats, cost-center numbers) must be a number or ``None``.  Keys no
    renderer reads (such as the ``cpu`` block of older profiles) are
    ignored.
    """
    if not isinstance(costs, Mapping) or costs.get("schema") != COSTS_SCHEMA:
        raise ValidationError(f"not a {COSTS_SCHEMA} profile")
    workers = costs.get("workers", {})
    centers = costs.get("top_cost_centers", [])
    if not (isinstance(workers, Mapping) and isinstance(centers, list)):
        raise ValidationError("malformed workers/top_cost_centers")
    tables = {"phases": costs.get("phases")}
    tables.update((f"workers.{name}", table)
                  for name, table in workers.items())
    figures = {key: costs.get(key)
               for key in ("wall_seconds", "attributed_seconds", "n_spans")}
    for where, table in tables.items():
        if not isinstance(table, Mapping):
            raise ValidationError(f"{where} is not a mapping")
        for phase, stats in table.items():
            if not isinstance(stats, Mapping):
                raise ValidationError(f"{where}.{phase} is not a mapping")
            figures.update((f"{where}.{phase}.{key}", value)
                           for key, value in stats.items())
    for rank, center in enumerate(centers):
        if not isinstance(center, Mapping):
            raise ValidationError(f"top_cost_centers[{rank}] is not a mapping")
        figures.update(
            (f"top_cost_centers[{rank}].{key}", center.get(key))
            for key in ("calls", "total_seconds", "self_seconds", "share"))
    for where, value in figures.items():
        if not _is_figure(value):
            raise ValidationError(f"{where} is not a number: {value!r}")
    return costs
