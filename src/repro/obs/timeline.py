"""Campaign timeline recording: the control plane's historical dimension.

``/status`` and ``/metrics`` answer "what is happening *now*"; this
module answers "what happened" — how throughput, worker RSS, ETA and
retries evolved over a campaign — as a versioned append-only JSONL
artifact (schema ``repro.timeline/1``).

* :class:`TimelineRecorder` — the control plane's one sampling loop: a
  background daemon thread taking periodic *frames* (metrics-registry
  counter totals + deltas, a fresh
  :class:`~repro.obs.resources.ResourceSampler` sweep of parent/worker
  RSS — which also publishes the ``resources.*`` gauges, feeds
  self-watch and refreshes ``/status`` — and the
  :class:`~repro.obs.statusd.StatusBoard`'s progress/EWMA-ETA and
  journal heartbeat) interleaved with discrete *annotations* for
  retries, timeouts, worker deaths, alert firings and flight-record
  dumps (fed by the :func:`repro.obs.ops.flight_note` listener hook —
  no per-unit hot-path work).  A bounded in-memory ring mirrors the
  stream for the status server's ``/timeline`` endpoint; the artifact
  itself streams into an :func:`~repro.obs.atomic.atomic_write`
  temporary and appears atomically at :meth:`~TimelineRecorder.finalize`.
* :func:`read_timeline` / :func:`validate_timeline` — load and check a
  saved stream (header first, known kinds, monotone times, truncated
  final line tolerated like the campaign journal).
* :func:`slice_timeline`, :func:`timeline_summary`,
  :func:`timeline_to_csv` — the ``repro timeline`` subcommand's
  primitives: time-range slicing, a human digest, and a long-format
  CSV export.

Timestamps: every record carries ``t`` (seconds since recorder start,
forced monotone non-decreasing) and ``wall_time`` (UNIX seconds, for
cross-host merging).  Like the rest of the control plane the recorder
is provably observation-only — it reads counters, gauges and board
snapshots and never touches campaign payloads.
"""

from __future__ import annotations

import collections
import json
import os
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence

from ..exceptions import ValidationError
from . import session as _session
from .atomic import atomic_write, fsync_handle
from .logger import get_logger
from .metrics import Counter
from . import ops as _ops
from .resources import compact_resources

__all__ = [
    "TIMELINE_SCHEMA",
    "TimelineRecorder",
    "read_timeline",
    "validate_timeline",
    "slice_timeline",
    "timeline_summary",
    "timeline_to_csv",
]

TIMELINE_SCHEMA = "repro.timeline/1"

_log = get_logger("obs.timeline")

# The control plane's counter whitelist, shared by timeline frames and
# the /status payload: the resilience and campaign numbers an operator
# tails first ("scoreboard." carries the per-detector tournament gauges
# published after a grid campaign).  Library-internal counters like
# fractal.* cache hits churn far too fast to be signal.
CONTROL_COUNTER_PREFIXES = (
    "perf.pool.",
    "campaign.",
    "resources.",
    "obs.flight_dumps",
    "scoreboard.",
)

# Operational note kinds (repro.obs.ops.flight_note) that become
# timeline annotations, keyed by note kind.
_ANNOTATED_NOTES = ("retry", "unit", "round", "flight-dump")

# Progress keys copied from a StatusBoard snapshot into each frame.
_PROGRESS_KEYS = (
    "state",
    "total_units",
    "units_done",
    "units_failed",
    "units_remaining",
    "units_per_second",
    "eta_seconds",
    "last_progress_at",
)


class TimelineRecorder:
    """Samples campaign history into a ``repro.timeline/1`` JSONL stream.

    ``path`` names the artifact (None records to memory only — the ring
    still feeds ``/timeline``).  ``board`` is the live
    :class:`~repro.obs.statusd.StatusBoard` each frame reads;
    ``resources`` the :class:`~repro.obs.resources.ResourceSampler`
    each frame drives (one ``sample_once`` per frame, stored through
    :func:`~repro.obs.resources.compact_resources`); both optional.
    ``interval`` is the frame period, and so the resource-sampling and
    self-watch cadence; ``ring`` bounds the in-memory mirror.
    :meth:`sample_once` is public and synchronous so tests and
    endpoints never race the thread.

    Lifecycle: :meth:`start` writes the header, takes one resource
    sample (no frame) so ``/status`` has resources from its first
    scrape, registers the operational-note listener and starts the
    daemon thread; :meth:`finalize` takes a last frame, writes the
    ``end`` record and atomically publishes the artifact.  Usable as a
    context manager.
    """

    def __init__(
        self,
        path: Optional[str | os.PathLike] = None,
        *,
        interval: float = 1.0,
        ring: int = 512,
        board=None,
        resources=None,
        fields: Optional[Dict[str, object]] = None,
        clock: Callable[[], float] = time.monotonic,
        wall_clock: Callable[[], float] = time.time,
    ) -> None:
        if interval <= 0:
            raise ValidationError(
                f"timeline interval must be positive, got {interval}")
        if ring < 8:
            raise ValidationError(
                f"timeline ring must hold at least 8 records, got {ring}")
        self.path = None if path is None else os.fspath(path)
        self.interval = float(interval)
        self.board = board
        self.resources = resources
        self.fields = dict(fields or {})
        self._clock = clock
        self._wall_clock = wall_clock
        self._ring: collections.deque = collections.deque(maxlen=ring)
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._ctx = None
        self._handle = None
        self._t0: Optional[float] = None
        self._last_t = 0.0
        self._seq = 0
        self.n_frames = 0
        self.n_annotations = 0
        self._prev_counters: Dict[str, float] = {}
        self._prev_alerts = 0
        self._started = False
        self._finalized = False

    # -- record plumbing -------------------------------------------------------

    def _now(self) -> float:
        """Seconds since start, forced monotone non-decreasing."""
        t = 0.0 if self._t0 is None else self._clock() - self._t0
        t = max(t, self._last_t)
        self._last_t = t
        return t

    def _emit(self, kind: str, fields: Dict[str, object]) -> dict:
        """Stamp one record (``t``, ``wall_time``, a frame's ``seq``) and
        append it.  Stamping and appending share one lock, so records from
        the frame thread and from annotating threads land in time order."""
        with self._lock:
            record: Dict[str, object] = {"kind": kind}
            if kind == "frame":
                record["seq"] = self._seq
                self._seq += 1
                self.n_frames += 1
            elif kind == "annotation":
                self.n_annotations += 1
            record["t"] = round(self._now(), 6)
            record["wall_time"] = self._wall_clock()
            record.update(fields)
            self._append(record)
        return record

    def _append(self, record: dict) -> None:
        """Ring + artifact append; the caller holds ``self._lock``."""
        self._ring.append(record)
        if self._handle is not None:
            try:
                self._handle.write(json.dumps(record) + "\n")
                self._handle.flush()
            except (OSError, ValueError):  # pragma: no cover - disk full
                pass

    # -- frames ----------------------------------------------------------------

    def _counter_totals(self) -> Dict[str, float]:
        session = _session.current_session()
        totals: Dict[str, float] = {}
        # _instruments is the registry's name->instrument dict; reading
        # counter values is lock-free (ints are atomic under the GIL).
        for name, instrument in list(
                getattr(session.metrics, "_instruments", {}).items()):
            if not name.startswith(CONTROL_COUNTER_PREFIXES):
                continue
            if isinstance(instrument, Counter):
                totals[name] = instrument.value
        return totals

    def sample_once(self) -> dict:
        """Take one frame now; append it to ring + artifact; return it."""
        totals = self._counter_totals()
        deltas = {
            name: value - self._prev_counters.get(name, 0)
            for name, value in totals.items()
            if value != self._prev_counters.get(name, 0)
        }
        self._prev_counters = totals
        progress = None
        if self.board is not None:
            snap = self.board.snapshot()
            progress = {key: snap.get(key) for key in _PROGRESS_KEYS}
        resources = None
        if self.resources is not None:
            resources = compact_resources(self.resources.sample_once())
        frame = self._emit("frame", {
            "counters": totals,
            "deltas": deltas,
            "progress": progress,
            "resources": resources,
        })
        self._check_alert_annotations(resources)
        return frame

    def _check_alert_annotations(self, resources: Optional[dict]) -> None:
        """Self-watch firings surface as annotations via per-frame deltas."""
        if not resources:
            return
        fired = resources.get("self_watch_alerts")
        if isinstance(fired, int) and fired > self._prev_alerts:
            self.annotate("alert", count=fired - self._prev_alerts,
                          state=resources.get("self_watch_state"))
            self._prev_alerts = fired

    # -- annotations -----------------------------------------------------------

    def annotate(self, event: str, /, **fields) -> dict:
        """Append one discrete annotation record at the current time."""
        return self._emit("annotation", {"event": event, **fields})

    def _on_note(self, kind: str, fields: Dict[str, object]) -> None:
        """Operational-note listener: map pool/ops notes to annotations."""
        if kind not in _ANNOTATED_NOTES:
            return
        if kind == "retry":
            self.annotate("retry",
                          index=fields.get("index"),
                          attempt=fields.get("attempt"),
                          error_kind=fields.get("kind"),
                          delay_s=fields.get("delay_s"))
        elif kind == "unit":
            status = fields.get("status")
            if status not in ("failed", "error"):
                return
            error_kind = fields.get("kind") or fields.get("error_kind")
            event = {"timeout": "timeout",
                     "worker-death": "worker-death"}.get(error_kind,
                                                         "unit-failed")
            self.annotate(event, index=fields.get("index"),
                          error_kind=error_kind, status=status)
        elif kind == "round":
            self.annotate("round", pending=fields.get("pending"),
                          workers=fields.get("workers"),
                          round=fields.get("round"))
        elif kind == "flight-dump":
            self.annotate("flight-dump", reason=fields.get("reason"))

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "TimelineRecorder":
        """Write the header, sample resources once, hook operational
        notes, start the thread."""
        if self._started:
            return self
        self._started = True
        self._t0 = self._clock()
        self._last_t = 0.0
        if self.path is not None:
            self._ctx = atomic_write(self.path)
            self._handle = self._ctx.__enter__()
        header = {
            "kind": "header",
            "schema": TIMELINE_SCHEMA,
            "t": 0.0,
            "wall_time": self._wall_clock(),
            "pid": os.getpid(),
            "interval": self.interval,
            **({"fields": self.fields} if self.fields else {}),
        }
        with self._lock:
            self._append(header)
        if self.resources is not None:
            self.resources.sample_once()
        _ops.add_note_listener(self._on_note)
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-timeline", daemon=True)
        self._thread.start()
        _log.info("timeline recording", path=self.path,
                  interval=self.interval)
        return self

    def _run(self) -> None:
        while not self._stop.is_set():
            self._stop.wait(self.interval)
            if self._stop.is_set():
                break
            try:
                self.sample_once()
            except Exception as exc:  # pragma: no cover - defensive: the
                # recorder must never take down the campaign it watches
                _log.warning("timeline frame failed",
                             error=f"{type(exc).__name__}: {exc}")

    def records(self) -> List[dict]:
        """The in-memory ring (most recent ``ring`` records), oldest first."""
        with self._lock:
            return list(self._ring)

    def finalize(self, status: str = "ok", **fields) -> Optional[str]:
        """Stop sampling, write the ``end`` record, publish atomically.

        ``fields`` are added to the ``end`` record (a watch session's
        summary lands there).  Returns the artifact path (None for
        memory-only recorders).  Idempotent; safe to call from a
        ``finally`` block.
        """
        if not self._started or self._finalized:
            return self.path if self._finalized else None
        self._finalized = True
        _ops.remove_note_listener(self._on_note)
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        try:
            self.sample_once()
        except Exception:  # pragma: no cover - final frame is best-effort
            pass
        self._emit("end", {
            "status": status,
            "frames": self.n_frames,
            "annotations": self.n_annotations,
            **fields,
        })
        if self._ctx is not None:
            try:
                fsync_handle(self._handle)
            except (OSError, ValueError):  # pragma: no cover
                pass
            ctx, self._ctx, self._handle = self._ctx, None, None
            try:
                ctx.__exit__(None, None, None)
            except OSError as exc:  # pragma: no cover - disk-full style
                _log.warning("timeline finalize failed", path=self.path,
                             error=f"{type(exc).__name__}: {exc}")
                return None
            _log.info("timeline written", path=self.path,
                      frames=self.n_frames, annotations=self.n_annotations)
        return self.path

    def __enter__(self) -> "TimelineRecorder":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.finalize("error" if exc_type is not None else "ok")
        return False


# -- reading / validation ------------------------------------------------------

def read_timeline(path: str | os.PathLike) -> List[dict]:
    """Load a timeline JSONL file; tolerates a truncated final line.

    (The recorder only publishes complete files, but a copied-out
    temporary from a killed run should still load — same stance as the
    campaign journal.)
    """
    records: List[dict] = []
    with open(path, "r", encoding="utf-8") as handle:
        for i, line in enumerate(handle):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                # Only the final line may be torn.
                remainder = handle.read(1)
                if remainder:
                    raise ValidationError(
                        f"timeline line {i + 1} is corrupt (not the final "
                        f"line) in {os.fspath(path)!r}")
                break
    return records


_KNOWN_KINDS = ("header", "frame", "annotation", "end")


def validate_timeline(records: Sequence[dict]) -> Dict[str, int]:
    """Structural check of a timeline stream; returns counts by kind.

    Enforces: non-empty, header first with the right schema, only known
    record kinds, ``t`` present and monotone non-decreasing, frame
    ``seq`` strictly increasing, at most one ``end`` (and nothing after
    it).
    """
    if not records:
        raise ValidationError("empty timeline stream")
    header = records[0]
    if header.get("kind") != "header":
        raise ValidationError(
            f"timeline must start with a header record, got "
            f"{header.get('kind')!r}")
    if header.get("schema") != TIMELINE_SCHEMA:
        raise ValidationError(
            f"unsupported timeline schema {header.get('schema')!r} "
            f"(expected {TIMELINE_SCHEMA!r})")
    counts: Dict[str, int] = {}
    last_t = None
    last_seq = None
    ended = False
    for i, record in enumerate(records):
        kind = record.get("kind")
        if kind not in _KNOWN_KINDS:
            raise ValidationError(
                f"unknown timeline record kind {kind!r} at line {i + 1}")
        if kind == "header" and i != 0:
            raise ValidationError(f"duplicate header at line {i + 1}")
        if ended:
            raise ValidationError(
                f"record after the end record at line {i + 1}")
        t = record.get("t")
        if not isinstance(t, (int, float)) or t != t:
            raise ValidationError(
                f"timeline record at line {i + 1} lacks a finite t")
        if last_t is not None and t < last_t:
            raise ValidationError(
                f"non-monotone timeline time at line {i + 1}: "
                f"{t} < {last_t}")
        last_t = t
        if kind == "frame":
            seq = record.get("seq")
            if not isinstance(seq, int):
                raise ValidationError(
                    f"frame at line {i + 1} lacks an integer seq")
            if last_seq is not None and seq <= last_seq:
                raise ValidationError(
                    f"frame seq not increasing at line {i + 1}: "
                    f"{seq} after {last_seq}")
            last_seq = seq
        if kind == "end":
            ended = True
        counts[kind] = counts.get(kind, 0) + 1
    return counts


def slice_timeline(
    records: Sequence[dict], *,
    since: Optional[float] = None,
    until: Optional[float] = None,
) -> List[dict]:
    """Records with ``since <= t <= until`` plus the header (always) and
    the end record (with its counters rebuilt for the slice)."""
    out: List[dict] = []
    n_frames = 0
    n_annotations = 0
    end: Optional[dict] = None
    for record in records:
        kind = record.get("kind")
        if kind == "header":
            out.append(record)
            continue
        if kind == "end":
            end = dict(record)
            continue
        t = record.get("t", 0.0)
        if since is not None and t < since:
            continue
        if until is not None and t > until:
            continue
        if kind == "frame":
            n_frames += 1
        elif kind == "annotation":
            n_annotations += 1
        out.append(record)
    if end is not None:
        end["frames"] = n_frames
        end["annotations"] = n_annotations
        out.append(end)
    return out


def timeline_summary(records: Sequence[dict]) -> dict:
    """Digest of one timeline: duration, frame/annotation counts,
    annotation breakdown by event, peak RSS, peak throughput, final
    progress."""
    counts = validate_timeline(records)
    frames = [r for r in records if r.get("kind") == "frame"]
    annotations = [r for r in records if r.get("kind") == "annotation"]
    by_event: Dict[str, int] = {}
    for record in annotations:
        event = str(record.get("event", "unknown"))
        by_event[event] = by_event.get(event, 0) + 1
    peak_parent_rss = None
    peak_worker_rss = None
    max_workers = 0
    peak_rate = None
    final_progress = None
    for frame in frames:
        resources = frame.get("resources") or {}
        rss = resources.get("parent_rss_bytes")
        if rss is not None:
            peak_parent_rss = rss if peak_parent_rss is None else max(
                peak_parent_rss, rss)
        workers = resources.get("workers") or []
        max_workers = max(max_workers, len(workers))
        for worker in workers:
            wrss = worker.get("rss_bytes")
            if wrss is not None:
                peak_worker_rss = wrss if peak_worker_rss is None else max(
                    peak_worker_rss, wrss)
        progress = frame.get("progress")
        if progress:
            final_progress = progress
            rate = progress.get("units_per_second")
            if rate is not None:
                peak_rate = rate if peak_rate is None else max(peak_rate, rate)
    end = records[-1] if records[-1].get("kind") == "end" else None
    return {
        "schema": TIMELINE_SCHEMA,
        "duration_seconds": records[-1].get("t", 0.0),
        "n_frames": counts.get("frame", 0),
        "n_annotations": counts.get("annotation", 0),
        "annotations_by_event": by_event,
        "peak_parent_rss_bytes": peak_parent_rss,
        "peak_worker_rss_bytes": peak_worker_rss,
        "max_workers_seen": max_workers,
        "peak_units_per_second": peak_rate,
        "final_progress": final_progress,
        "status": None if end is None else end.get("status"),
    }


def timeline_to_csv(records: Sequence[dict]) -> str:
    """Long-format CSV: one ``seq,t,wall_time,metric,value`` row per
    numeric frame field (progress, resources, counter totals)."""
    import csv
    import io

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["seq", "t", "wall_time", "metric", "value"])
    for record in records:
        if record.get("kind") != "frame":
            continue
        seq = record.get("seq")
        t = record.get("t")
        wall = record.get("wall_time")
        rows: List[tuple] = []
        for key, value in (record.get("progress") or {}).items():
            if isinstance(value, (int, float)):
                rows.append((f"progress.{key}", value))
        resources = record.get("resources") or {}
        for key in ("parent_rss_bytes", "parent_cpu_seconds"):
            if isinstance(resources.get(key), (int, float)):
                rows.append((f"resources.{key}", resources[key]))
        for worker in resources.get("workers") or []:
            ordinal = worker.get("ordinal")
            for key in ("rss_bytes", "cpu_seconds"):
                if isinstance(worker.get(key), (int, float)):
                    rows.append(
                        (f"resources.worker.{ordinal}.{key}", worker[key]))
        for name, value in (record.get("counters") or {}).items():
            rows.append((f"counter.{name}", value))
        for metric, value in rows:
            writer.writerow([seq, t, wall, metric, value])
    return buffer.getvalue()
