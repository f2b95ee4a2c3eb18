"""Process resource telemetry: /proc sampling, pool-worker gauges, self-watch.

The paper's whole premise is that memory counters age before failure —
and a multi-hour campaign is itself a long-running process worth the
same scrutiny.  This module closes the loop:

* :func:`sample_process` reads one process's RSS / CPU / thread / fd
  counts from ``/proc`` (stdlib only, no psutil).  On platforms without
  ``/proc`` the calling process degrades to :mod:`resource`.getrusage
  (``source="rusage"``); other pids come back as None rather than
  guesses.
* :class:`ResourceSampler` publishes those numbers for the parent and
  every live pool worker into the metrics registry
  (``resources.parent.rss_bytes``,
  ``resources.worker.<ordinal>.rss_bytes``, …), so a ``/metrics``
  scrape or a run manifest shows the harness's own memory trajectory.
* ``self_watch=True`` streams the parent's RSS through an
  :class:`~repro.core.online.OnlineAgingMonitor` and the declarative
  alert engine (:class:`SelfWatch`): the pipeline watching its *own*
  aging with its *own* detector.

The sampler owns no thread: :meth:`ResourceSampler.sample_once` is
synchronous, and the control plane's one sampling loop — the
:class:`~repro.obs.timeline.TimelineRecorder` frame tick — calls it, so
frames, ``/status`` and self-watch all read the same sweep.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from .alerts import AlertEngine, AlertFiring, AlertRule
from .logger import get_logger
from . import session as _obs

__all__ = [
    "ProcessSample",
    "read_proc_stat",
    "sample_process",
    "compact_resources",
    "ResourceSampler",
    "SelfWatch",
    "DEFAULT_SELF_WATCH_RULES",
]

_log = get_logger("obs.resources")

# Fields of /proc/<pid>/stat *after* the (comm) field, 0-indexed from
# field 3 ("state").  utime=14, stime=15, num_threads=20, rss=24 in the
# 1-indexed proc(5) numbering.
_STAT_UTIME = 14 - 3
_STAT_STIME = 15 - 3
_STAT_THREADS = 20 - 3
_STAT_RSS_PAGES = 24 - 3


@dataclass(frozen=True)
class ProcessSample:
    """One instantaneous resource reading for one process."""

    pid: int
    rss_bytes: Optional[float] = None
    cpu_seconds: Optional[float] = None
    num_threads: Optional[int] = None
    open_fds: Optional[int] = None
    source: str = "proc"

    def to_dict(self) -> dict:
        """JSON-able form used by ``/status`` payloads."""
        return {
            "pid": self.pid,
            "rss_bytes": self.rss_bytes,
            "cpu_seconds": self.cpu_seconds,
            "num_threads": self.num_threads,
            "open_fds": self.open_fds,
            "source": self.source,
        }


def read_proc_stat(pid: int, *, proc_root: str = "/proc") -> Optional[dict]:
    """Parse ``/proc/<pid>/stat``; None when unreadable (no /proc, dead pid).

    The comm field can contain spaces and parentheses (``(tmux: server)``),
    so the line is split at the *last* ``)`` — the only robust parse.
    """
    try:
        with open(os.path.join(proc_root, str(pid), "stat"), "rb") as handle:
            raw = handle.read().decode("ascii", "replace")
    except OSError:
        return None
    _, _, tail = raw.rpartition(")")
    fields = tail.split()
    if len(fields) <= _STAT_RSS_PAGES:
        return None
    try:
        ticks = os.sysconf("SC_CLK_TCK") or 100
        page = os.sysconf("SC_PAGE_SIZE") or 4096
        return {
            "cpu_seconds": (int(fields[_STAT_UTIME])
                            + int(fields[_STAT_STIME])) / ticks,
            "num_threads": int(fields[_STAT_THREADS]),
            "rss_bytes": int(fields[_STAT_RSS_PAGES]) * page,
        }
    except (ValueError, OSError):
        return None


def _count_fds(pid: int, *, proc_root: str = "/proc") -> Optional[int]:
    try:
        return len(os.listdir(os.path.join(proc_root, str(pid), "fd")))
    except OSError:
        return None


def _rusage_self_sample() -> ProcessSample:
    """Best-effort self sample for platforms without /proc."""
    rss = None
    cpu = None
    try:
        import resource

        usage = resource.getrusage(resource.RUSAGE_SELF)
        # ru_maxrss is KiB on Linux, bytes on macOS; both are "at least
        # this much" peaks — good enough for a fallback trajectory.
        scale = 1 if os.uname().sysname == "Darwin" else 1024
        rss = float(usage.ru_maxrss) * scale
        cpu = float(usage.ru_utime + usage.ru_stime)
    except Exception:  # pragma: no cover - exotic platforms
        pass
    return ProcessSample(
        pid=os.getpid(),
        rss_bytes=rss,
        cpu_seconds=cpu,
        num_threads=threading.active_count(),
        open_fds=None,
        source="rusage",
    )


def sample_process(
    pid: int, *, proc_root: str = "/proc",
) -> Optional[ProcessSample]:
    """Sample one process; None when it cannot be read at all.

    The calling process always gets *something*: when ``/proc`` is
    absent the rusage fallback reports what the platform can
    (``source="rusage"``).  Foreign pids without ``/proc`` are
    unknowable and return None.
    """
    stat = read_proc_stat(pid, proc_root=proc_root)
    if stat is None:
        if pid == os.getpid():
            _obs.counter("resources.sampler_fallbacks").inc()
            return _rusage_self_sample()
        return None
    return ProcessSample(
        pid=pid,
        rss_bytes=float(stat["rss_bytes"]),
        cpu_seconds=float(stat["cpu_seconds"]),
        num_threads=int(stat["num_threads"]),
        open_fds=_count_fds(pid, proc_root=proc_root),
        source="proc",
    )


# Deliberately conservative: a campaign parent growing faster than
# 100 MB/s for a minute is pathological on any hardware this runs on.
# Deployments with tighter budgets pass their own rules.
DEFAULT_SELF_WATCH_RULES = (
    AlertRule(
        name="parent-rss-growth",
        signal="self.rss",
        kind="rate",
        op="gt",
        value=100e6,
        cooldown=60.0,
        severity="warning",
        description="campaign parent RSS growing > 100 MB/s",
    ),
)


def compact_resources(snapshot: Optional[dict]) -> Optional[dict]:
    """Reduce a :meth:`ResourceSampler.sample_once` snapshot to the small
    per-frame digest timeline frames store.

    Keeps the parent's RSS/CPU, one ``{ordinal, rss_bytes, cpu_seconds}``
    entry per worker and the self-watch state + firing count; drops
    pids, fd counts, thread counts and sampling provenance.  None in,
    None out.
    """
    if snapshot is None:
        return None
    parent = snapshot.get("parent") or {}
    compact: dict = {
        "parent_rss_bytes": parent.get("rss_bytes"),
        "parent_cpu_seconds": parent.get("cpu_seconds"),
        "workers": [
            {
                "ordinal": worker.get("ordinal"),
                "rss_bytes": worker.get("rss_bytes"),
                "cpu_seconds": worker.get("cpu_seconds"),
            }
            for worker in snapshot.get("workers", [])
        ],
    }
    self_watch = snapshot.get("self_watch")
    if self_watch is not None:
        compact["self_watch_state"] = self_watch.get("state")
        compact["self_watch_alerts"] = self_watch.get("alerts_fired")
    return compact


class SelfWatch:
    """The harness watching its own RSS with its own detector.

    Feeds ``(time, rss)`` observations to an
    :class:`~repro.core.online.OnlineAgingMonitor` (default geometry
    sized for second-scale sampling: chunk 16, history 256) and to an
    :class:`~repro.obs.alerts.AlertEngine` under signal ``"self.rss"``.
    Indicator points are forwarded to the engine as ``"self.indicator"``.

    ``state`` summarises both: the monitor's lifecycle state, promoted
    to ``"warning"`` once any alert rule has fired (and ``"alarmed"``
    always wins — the detector's word is final).
    """

    def __init__(self, *, monitor=None,
                 rules: Optional[Sequence[AlertRule]] = None) -> None:
        if monitor is None:
            # Imported lazily: repro.core sits above repro.obs in the
            # layer diagram.
            from ..core.online import OnlineAgingMonitor

            monitor = OnlineAgingMonitor(
                chunk_size=16, history=256, indicator_window=64,
                n_warmup=0, n_calibration=4,
            )
        self.monitor = monitor
        self.engine = AlertEngine(
            list(DEFAULT_SELF_WATCH_RULES if rules is None else rules))
        self.firings: List[AlertFiring] = []
        self._last_time: Optional[float] = None
        previous = monitor.on_indicator

        def forward(t: float, value: float) -> None:
            self._on_indicator(t, value)
            if previous is not None:  # pragma: no cover - caller-supplied
                previous(t, value)

        monitor.on_indicator = forward

    def _on_indicator(self, t: float, value: float) -> None:
        self._fire(self.engine.observe("self.indicator", t, value))

    def _fire(self, firings: List[AlertFiring]) -> None:
        for firing in firings:
            self.firings.append(firing)
            _obs.counter("resources.self_watch_alerts").inc()
            _obs.record_event(
                "self_watch_alert", rule=firing.rule, severity=firing.severity,
                time=firing.time, value=firing.value, message=firing.message)
            _log.warning("self-watch alert", rule=firing.rule,
                         severity=firing.severity, message=firing.message)

    def observe(self, t: float, rss: float) -> None:
        """Feed one (time, parent-RSS) observation to detector + rules."""
        if rss is None or not (rss == rss):  # None or NaN
            return
        self._fire(self.engine.observe("self.rss", float(t), float(rss)))
        # The monitor insists on strictly increasing, finite times.
        if self._last_time is not None and t <= self._last_time:
            return
        self._last_time = float(t)
        self.monitor.update(float(t), float(rss))

    @property
    def alerts_fired(self) -> int:
        """Total alert-rule firings so far."""
        return len(self.firings)

    @property
    def state(self) -> str:
        """Combined detector + alert state (see class docstring)."""
        monitor_state = self.monitor.state
        if monitor_state == "alarmed":
            return "alarmed"
        if self.firings:
            return "warning"
        return monitor_state

    def snapshot(self) -> dict:
        """JSON-able digest for ``/status``."""
        return {
            "state": self.state,
            "monitor_state": self.monitor.state,
            "n_samples": self.monitor.n_samples,
            "n_indicators": self.monitor.n_indicators,
            "alerts_fired": self.alerts_fired,
            "alarm_time": self.monitor.alarm_time,
        }


class ResourceSampler:
    """Parent + pool-worker resource gauges, one synchronous sweep at a time.

    ``worker_pids`` is a zero-argument callable returning the pids to
    sample besides the parent — pass
    :func:`repro.perf.pool.pool_worker_pids` to follow whatever pool is
    live (the sampler deliberately does not import the pool: ``perf``
    sits above ``obs``).  Worker ordinals are assigned in first-seen
    order and sticky for the sampler's lifetime, so
    ``resources.worker.0.rss_bytes`` stays one worker's series even as
    pools are torn down and rebuilt around it.

    The cadence belongs to the caller: a
    :class:`~repro.obs.timeline.TimelineRecorder` given this sampler as
    ``resources`` calls :meth:`sample_once` once at start and once per
    frame; :meth:`latest` hands the newest sweep to ``/status`` readers
    on other threads.
    """

    def __init__(
        self,
        *,
        worker_pids: Optional[Callable[[], Sequence[int]]] = None,
        proc_root: str = "/proc",
        self_watch: bool = False,
        self_watch_monitor=None,
        self_watch_rules: Optional[Sequence[AlertRule]] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.proc_root = proc_root
        self._worker_pids = worker_pids
        self._clock = clock
        self._ordinals: Dict[int, int] = {}
        self._latest: Optional[dict] = None
        self._latest_lock = threading.Lock()
        self.n_samples = 0
        self.self_watch: Optional[SelfWatch] = (
            SelfWatch(monitor=self_watch_monitor, rules=self_watch_rules)
            if self_watch else None
        )

    def _publish(self, role: str, sample: ProcessSample) -> None:
        base = f"resources.{role}"
        if sample.rss_bytes is not None:
            _obs.gauge(f"{base}.rss_bytes").set(sample.rss_bytes)
        if sample.cpu_seconds is not None:
            _obs.gauge(f"{base}.cpu_seconds").set(sample.cpu_seconds)
        if sample.num_threads is not None:
            _obs.gauge(f"{base}.threads").set(sample.num_threads)
        if sample.open_fds is not None:
            _obs.gauge(f"{base}.open_fds").set(sample.open_fds)
        _obs.gauge(f"{base}.pid").set(sample.pid)

    def sample_once(self) -> dict:
        """Take one sample sweep; publish gauges; return the snapshot.

        The returned dict is the ``/status`` ``resources`` payload:
        ``{"sampled_at", "parent", "workers", "self_watch"}``.
        """
        now = self._clock()
        parent = sample_process(os.getpid(), proc_root=self.proc_root)
        workers: List[dict] = []
        if self._worker_pids is not None:
            for pid in self._worker_pids():
                sample = sample_process(pid, proc_root=self.proc_root)
                if sample is None:
                    continue
                ordinal = self._ordinals.setdefault(pid, len(self._ordinals))
                self._publish(f"worker.{ordinal}", sample)
                workers.append({"ordinal": ordinal, **sample.to_dict()})
        if parent is not None:
            self._publish("parent", parent)
            if self.self_watch is not None:
                self.self_watch.observe(now, parent.rss_bytes)
        _obs.counter("resources.samples").inc()
        self.n_samples += 1
        snapshot = {
            "sampled_at": time.time(),
            "parent": None if parent is None else parent.to_dict(),
            "workers": workers,
            "self_watch": (None if self.self_watch is None
                           else self.self_watch.snapshot()),
        }
        with self._latest_lock:
            self._latest = snapshot
        return snapshot

    def latest(self) -> Optional[dict]:
        """Most recent :meth:`sample_once` snapshot (None before the first)."""
        with self._latest_lock:
            return self._latest
