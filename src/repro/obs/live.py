"""Live watch sessions: an online aging monitor over a running host.

:class:`LiveWatcher` glues an
:class:`~repro.core.online.OnlineAgingMonitor` and an optional
:class:`~repro.obs.alerts.AlertEngine` to a sample source — a live
:class:`~repro.memsim.machine.Machine` (attached as an in-sim periodic
poller over the counter sampler) or a replayed trace bundle — so an
analyst can watch the windowed Hölder indicator of a running host and
get a crash warning before failure.

A session is recorded through an optional
:class:`~repro.obs.timeline.TimelineRecorder` as one ``repro.timeline/1``
stream: the header's ``fields`` name the session (``counter``,
``source``, ``monitor`` config, alert ``rules``), every watch event is
an annotation named after it (:data:`WATCH_EVENTS`) carrying its
simulation time as ``sim_t``, and the session summary lands on the
``end`` record.  Without a recorder nothing is recorded.  Streams read
back from disk are checked once, by :func:`validate_watch_timeline`.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from ..exceptions import TraceError
from .alerts import AlertEngine
from .logger import get_logger
from . import session as _obs

__all__ = ["WATCH_EVENTS", "validate_watch_timeline", "LiveWatcher"]

_log = get_logger("obs.live")

#: Watch annotation events: (required payload fields, numeric ones).
WATCH_EVENTS: Dict[str, tuple] = {
    "sample": (("value",), ("value",)),
    "indicator": (("value", "n"), ("value",)),
    "detector_state": (("state", "previous"), ()),
    "alarm": (("indicator", "value", "baseline"),
              ("indicator", "value", "baseline")),
    "alert": (("rule", "severity", "signal", "value", "message"), ("value",)),
    "status": (("state", "n_samples", "n_indicators", "alerts_fired"), ()),
    "crash": (("reason",), ()),
}
# The header ``fields`` naming a watch session, and the summary its
# ``end`` record carries.
_HEADER_FIELDS = ("counter", "source", "monitor", "rules")
_END_FIELDS = (("n_samples", "n_indicators", "state", "alarm_time",
                "crash_time", "lead_time", "alerts"), ())


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def validate_watch_timeline(records: Sequence[dict]) -> Dict[str, int]:
    """Check a watch session's ``repro.timeline/1`` stream read from disk.

    On top of :func:`~repro.obs.timeline.validate_timeline`: the header
    names a watch session, every annotation is a known watch event with
    its required and numeric fields, the ``end`` record carries the
    summary, and ``sim_t`` is finite and never goes backwards.  Returns
    counts by watch event (``end`` included).
    """
    from .timeline import validate_timeline

    validate_timeline(records)
    fields = records[0].get("fields") or {}
    missing = [name for name in _HEADER_FIELDS if name not in fields]
    if missing:
        raise TraceError(f"not a watch timeline: header fields lack {missing}")
    counts: Dict[str, int] = {}
    last_t: Optional[float] = None
    for i, record in enumerate(records):
        if record["kind"] == "annotation":
            event = record.get("event")
            if event not in WATCH_EVENTS:
                raise TraceError(f"line {i + 1}: unknown watch event "
                                 f"{event!r} (known: {tuple(WATCH_EVENTS)})")
            required, numeric = WATCH_EVENTS[event]
        elif record["kind"] == "end":
            event, (required, numeric) = "end", _END_FIELDS
        else:
            continue
        where = f"line {i + 1}: {event}"
        sim_t = record.get("sim_t")
        if not _is_number(sim_t) or not math.isfinite(sim_t):
            raise TraceError(f"{where} needs a finite numeric 'sim_t'")
        if last_t is not None and sim_t < last_t:
            raise TraceError(
                f"{where}: sim_t goes backwards ({sim_t} after {last_t})")
        last_t = sim_t
        missing = [name for name in required if name not in record]
        if missing:
            raise TraceError(f"{where} missing field(s) {missing}")
        for name in numeric:
            if not _is_number(record[name]):
                raise TraceError(f"{where} field {name!r} must be numeric, "
                                 f"got {record[name]!r}")
        counts[event] = counts.get(event, 0) + 1
    return counts


class LiveWatcher:
    """Attach an online monitor + alert rules to a live sample stream.

    One watcher observes one counter.  Open the session with
    :meth:`write_header`, then feed it samples directly (:meth:`feed`
    one at a time, :meth:`feed_many` in runs), replay a recorded bundle
    (:meth:`replay`), or attach it to a running
    machine (:meth:`attach` before ``machine.run()``), then
    :meth:`finalize` to close it with ``crash``/``end`` and get the
    session summary.

    Parameters
    ----------
    monitor:
        The :class:`~repro.core.online.OnlineAgingMonitor` to drive (its
        ``on_indicator``/``on_state_change`` callbacks are taken over).
    timeline:
        Optional unstarted :class:`~repro.obs.timeline.TimelineRecorder`
        the session is recorded through; :meth:`write_header` starts it
        and :meth:`finalize` finalizes it (finishing its status board,
        if any, first).  None records nothing.
    engine:
        Optional :class:`~repro.obs.alerts.AlertEngine`; counter samples
        are offered under the counter's name, indicator points under
        ``"indicator"``.
    counter:
        Counter this watcher observes.
    status_every:
        Simulated seconds between ``status`` heartbeats (0 disables
        them).
    sample_every:
        Record every Nth counter sample (decimation keeps multi-day
        streams tailable; the monitor always sees every sample).  0
        records no ``sample`` events.
    on_status:
        Optional callback receiving each status heartbeat as a dict with
        ``t`` and the ``status`` payload (CLI live lines).
    """

    def __init__(
        self,
        monitor,
        *,
        timeline=None,
        engine: Optional[AlertEngine] = None,
        counter: str = "AvailableBytes",
        status_every: float = 600.0,
        sample_every: int = 1,
        on_status: Optional[Callable[[dict], None]] = None,
    ) -> None:
        if sample_every < 0:
            raise TraceError(f"sample_every must be >= 0, got {sample_every}")
        if status_every < 0:
            raise TraceError(f"status_every must be >= 0, got {status_every}")
        self.monitor = monitor
        self.timeline = timeline
        self.engine = engine
        self.counter = counter
        self.status_every = status_every
        self.sample_every = sample_every
        self.on_status = on_status
        self.n_samples = 0
        self.n_dropped = 0
        self._n_indicators = 0
        self._last_value: Optional[float] = None
        self._last_t: Optional[float] = None
        self._last_status_t: Optional[float] = None
        self._finalized = False
        self._header_written = False
        self._cursor = 0
        monitor.on_indicator = self._on_indicator
        monitor.on_state_change = self._on_state_change

    # -- stream lifecycle ------------------------------------------------------

    def write_header(self, source: Dict[str, object]) -> None:
        """Open the session: source identity, monitor config, rule set."""
        if self._header_written:
            raise TraceError("watch stream header already written")
        self._header_written = True
        if self.timeline is None:
            return
        monitor = self.monitor
        rules = [] if self.engine is None else [
            {"name": r.name, "signal": r.signal, "kind": r.kind,
             "condition": r.condition, "severity": r.severity}
            for r in self.engine.rules
        ]
        self.timeline.fields.update(
            counter=self.counter,
            source=dict(source),
            monitor={
                "chunk_size": monitor.chunk_size,
                "history": monitor.history,
                "indicator_window": monitor.indicator_window,
                "indicator": monitor.indicator,
                "n_warmup": monitor.n_warmup,
                "n_calibration": monitor.n_calibration,
                "cusum_k": monitor.cusum_k,
                "cusum_h": monitor.cusum_h,
            },
            rules=rules,
        )
        self.timeline.start()

    def _event(self, event: str, t: float, **payload) -> None:
        """One watch event at simulation time ``t``, as an annotation."""
        self._last_t = t
        if self.timeline is not None:
            self.timeline.annotate(event, sim_t=t, **payload)

    def feed(self, t: float, value: float) -> None:
        """Push one counter sample through stream + rules + monitor.

        Non-finite samples (collector gaps in replayed traces) are
        counted and dropped — a gap must never become a spurious alarm.
        """
        if not self._header_written:
            raise TraceError("write_header() must precede feed()")
        t = float(t)
        value = float(value)
        if not math.isfinite(t) or not math.isfinite(value):
            self.n_dropped += 1
            _obs.counter("watch.dropped_samples").inc()
            return
        self.n_samples += 1
        self._last_value = value
        if self.sample_every and (self.n_samples - 1) % self.sample_every == 0:
            self._event("sample", t, value=value)
        if self.engine is not None:
            self._observe(self.counter, t, value)
        self.monitor.update(t, value)
        if self._last_status_t is None:
            self._last_status_t = t
        elif self.status_every and t - self._last_status_t >= self.status_every:
            self._last_status_t = t
            self._emit_status(t)

    def feed_many(self, times, values) -> None:
        """Push a run of counter samples: the same as :meth:`feed` per
        sample, with the same events, callbacks and counts in the same
        order.

        Non-finite samples are counted and dropped in one pass.  The rest
        is taken in pieces that end at the next ``status`` heartbeat or
        the next indicator point; per piece, only ``sample`` events (with
        a recorder) and alert rules (with an engine) look at each sample,
        and the monitor takes the piece as one
        :meth:`~repro.core.online.OnlineAgingMonitor.update_many` would,
        without re-validating it: the whole run was checked once.
        Unlike a :meth:`feed` loop, a run that is out of time order (once
        its gaps are dropped) is rejected whole, before anything is
        consumed.
        """
        if not self._header_written:
            raise TraceError("write_header() must precede feed_many()")
        t = np.asarray(times, dtype=float)
        v = np.asarray(values, dtype=float)
        if t.ndim != 1 or t.shape != v.shape:
            raise TraceError(f"times and values must be 1-D and equally "
                             f"long (got {t.shape} and {v.shape})")
        finite = np.isfinite(t) & np.isfinite(v)
        dropped = int(t.size - np.count_nonzero(finite))
        if dropped:
            t, v = t[finite], v[finite]
        t, v = self.monitor.check_batch(t, v)
        if dropped:
            self.n_dropped += dropped
            _obs.counter("watch.dropped_samples").inc(dropped)
        n = int(t.size)
        if n == 0:
            return
        if self._last_status_t is None:
            # feed() sets it at the first sample, which is no heartbeat.
            self._last_status_t = float(t[0])
        every = self.sample_every
        per_sample = self.engine is not None or (
            every and self.timeline is not None)
        i = 0
        while i < n:
            stop = min(n, i + self.monitor.samples_to_emit)
            beat = False
            if self.status_every:
                due = (t[i:stop] - self._last_status_t) >= self.status_every
                j = int(due.argmax())
                if due[j]:
                    stop, beat = i + j + 1, True
            first = self.n_samples
            self.n_samples += stop - i
            self._last_value = float(v[stop - 1])
            if per_sample:
                for k, (tk, vk) in enumerate(zip(t[i:stop].tolist(),
                                                 v[i:stop].tolist())):
                    if every and (first + k) % every == 0:
                        self._event("sample", tk, value=vk)
                    if self.engine is not None:
                        self._observe(self.counter, tk, vk)
            elif every:
                # Nothing sees these sample events but _last_t.
                last = self.n_samples - 1
                last -= last % every
                if last >= first:
                    self._last_t = float(t[i + last - first])
            # The whole run passed check_batch above: skip re-checking.
            self.monitor._update_checked(t[i:stop], v[i:stop])
            if beat:
                self._last_status_t = float(t[stop - 1])
                self._emit_status(self._last_status_t)
            i = stop

    def replay(self, bundle) -> Dict[str, object]:
        """Replay a recorded :class:`~repro.trace.series.TraceBundle`.

        Writes the header (source type ``replay``), feeds every sample
        of the watched counter, then finalizes against the bundle's
        ground-truth crash metadata.  Returns the session summary.
        """
        if self.counter not in bundle:
            raise TraceError(
                f"no counter {self.counter!r} in bundle; "
                f"available: {bundle.names}")
        series = bundle[self.counter]
        meta = bundle.metadata
        source = {"type": "replay"}
        for key in ("os_profile", "seed", "duration"):
            if key in meta:
                source[key] = meta[key]
        self.write_header(source)
        self.feed_many(series.times, series.values)
        crash_time = meta.get("crash_time")
        return self.finalize(
            crash_time=None if crash_time is None else float(crash_time),
            crash_reason=meta.get("crash_reason"),
        )

    # -- live attachment -------------------------------------------------------

    def attach(self, machine, *, poll_interval: Optional[float] = None) -> None:
        """Schedule this watcher as an in-sim periodic poller.

        Call before ``machine.run()``; the watcher drains new sampler
        output every ``poll_interval`` simulated seconds (default: 16
        sampling intervals), so events interleave with the simulation at
        the right times.  After the run, :meth:`finalize` drains the
        tail and closes the session.
        """
        interval = (poll_interval if poll_interval is not None
                    else 16.0 * machine.config.sampling_interval)
        if interval <= 0:
            raise TraceError(f"poll_interval must be positive, got {interval}")
        self._machine = machine
        if not self._header_written:
            config = machine.config
            self.write_header({
                "type": "simulation",
                "os_profile": config.os_profile,
                "seed": config.seed,
                "max_run_seconds": config.max_run_seconds,
            })

        def poll() -> None:
            self.drain(machine.sampler)
            if not machine.crashed:
                machine.sim.schedule_in(interval, poll, label="watch.poll")

        machine.sim.schedule_in(interval, poll, label="watch.poll")

    def drain(self, sampler) -> int:
        """Feed every sample collected since the last drain; returns count."""
        times, values, self._cursor = sampler.read_since(self.counter, self._cursor)
        self.feed_many(times, values)
        return len(times)

    def finalize(
        self,
        *,
        crash_time: Optional[float] = None,
        crash_reason: Optional[str] = None,
        t: Optional[float] = None,
    ) -> Dict[str, object]:
        """Close the session: drain the tail, record ``crash`` + ``end``.

        Returns the session summary (the fields of the ``end`` record:
        ``sim_t``, counts, detector state, alarm/crash/lead times and
        alert counts by rule).
        """
        if self._finalized:
            raise TraceError("watch session already finalized")
        self._finalized = True
        machine = getattr(self, "_machine", None)
        if machine is not None:
            self.drain(machine.sampler)
            if crash_time is None and machine.crashed:
                crash_time = machine.crash_time
                crash_reason = machine.crash_reason
        end_t = t
        if end_t is None:
            end_t = self._last_t if self._last_t is not None else 0.0
        if crash_time is not None:
            end_t = max(end_t, float(crash_time))
            self._event("crash", float(crash_time),
                        reason=crash_reason or "unknown")
        alarm_time = self.monitor.alarm_time
        lead = None
        if alarm_time is not None and crash_time is not None:
            lead = float(crash_time) - float(alarm_time)
        end = {
            "sim_t": float(end_t),
            "n_samples": self.n_samples,
            "n_dropped": self.n_dropped,
            "n_indicators": self._n_indicators,
            "state": self.monitor.state,
            "alarm_time": alarm_time,
            "crash_time": crash_time,
            "crash_reason": crash_reason,
            "lead_time": lead,
            "alerts": {} if self.engine is None else self.engine.counts(),
        }
        if self.timeline is not None:
            if self.timeline.board is not None:
                self.timeline.board.finish(end["state"], alarm_time=alarm_time,
                                           crash_time=crash_time)
            self.timeline.finalize("ok", **end)
        _log.info("watch session finished", n_samples=self.n_samples,
                  state=self.monitor.state,
                  alarm_time=alarm_time if alarm_time is not None else "none",
                  crash_time=crash_time if crash_time is not None else "none")
        return end

    # -- monitor callbacks -----------------------------------------------------

    def _observe(self, signal: str, t: float, value: float) -> None:
        """Offer one value to the rules; record and mirror each firing."""
        for firing in self.engine.observe(signal, t, value):
            self._event("alert", firing.time, rule=firing.rule,
                        severity=firing.severity, signal=firing.signal,
                        value=firing.value, message=firing.message)
            _obs.record_event("alert", sim_time=firing.time, rule=firing.rule,
                              severity=firing.severity, signal=firing.signal,
                              value=firing.value)
            _obs.counter("watch.alerts_fired").inc()
            _obs.counter(f"watch.alerts_fired.{firing.rule}").inc()

    def _on_indicator(self, t: float, value: float) -> None:
        self._n_indicators += 1
        self._event("indicator", t, value=value, n=self._n_indicators)
        if self.engine is not None:
            self._observe("indicator", t, value)

    def _on_state_change(self, t: float, old: str, new: str) -> None:
        self._event("detector_state", t, state=new, previous=old)
        if new == "alarmed":
            point = float(self.monitor.indicator_history[-1])
            self._event("alarm", t, indicator=point, value=point,
                        baseline=self.monitor.baseline_mean)
            _obs.counter("watch.alarms").inc()

    # -- status ----------------------------------------------------------------

    def _emit_status(self, t: float) -> None:
        status = {
            "state": self.monitor.state,
            "n_samples": self.n_samples,
            "n_indicators": self._n_indicators,
            "alerts_fired": (0 if self.engine is None
                             else self.engine.total_fired),
            "value": self._last_value,
        }
        self._event("status", t, **status)
        if self.on_status is not None:
            self.on_status({"t": t, **status})
