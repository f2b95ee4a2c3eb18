"""The telemetry session: one process-wide bundle of metrics + spans + events.

Instrumented library code (simulator, pipeline, campaign runner) talks
to *the current session* through the module-level helpers re-exported
from :mod:`repro.obs` — it never owns telemetry state itself.  The
default session is **disabled**: every helper degrades to a no-op (null
instruments, a shared null span, dropped events), so an un-instrumented
caller pays effectively nothing.  The CLI (or a test, or an embedding
application) turns telemetry on for the duration of a run with
:func:`enable_telemetry` / :func:`disable_telemetry` or the
:func:`telemetry_session` context manager.

Besides metrics and spans the session keeps an ordered **event log** —
discrete occurrences worth forensic attention (crash, alarm,
rejuvenation, allocation-failure onset).  Events carry a wall-clock
timestamp plus free-form fields and end up in the run manifest's
``events.jsonl``.
"""

from __future__ import annotations

import contextlib
import time
from typing import Dict, List, Optional

from .logger import get_logger
from .metrics import MetricsRegistry, NULL_COUNTER, NULL_GAUGE, NULL_HISTOGRAM
from .spans import NULL_SPAN, SpanCollector

__all__ = [
    "TelemetrySession",
    "current_session",
    "enable_telemetry",
    "disable_telemetry",
    "telemetry_enabled",
    "telemetry_session",
    "counter",
    "gauge",
    "histogram",
    "span",
    "record_event",
]


class TelemetrySession:
    """Metrics registry + span collector + event log for one run."""

    def __init__(self, *, enabled: bool = True) -> None:
        self.enabled = enabled
        self.metrics = MetricsRegistry(enabled=enabled)
        self.spans = SpanCollector(enabled=enabled)
        self.events: List[dict] = []
        self.started_at = time.time()
        # Stamped by repro.obs.ops.trace_scope when a campaign mints a trace.
        self.trace_id: Optional[str] = None

    def record_event(self, kind: str, **fields) -> None:
        """Append one discrete event (kind + fields + wall timestamp)."""
        if not self.enabled:
            return
        event = {"wall_time": time.time(), "kind": kind}
        event.update(fields)
        self.events.append(event)

    def events_of(self, kind: str) -> List[dict]:
        """Every recorded event of one kind, in order."""
        return [e for e in self.events if e["kind"] == kind]

    def summary(self) -> Dict[str, object]:
        """Compact JSON-able digest (used by heartbeat logs and tests)."""
        return {
            "enabled": self.enabled,
            "trace_id": self.trace_id,
            "n_metrics": len(self.metrics),
            "n_spans": len(self.spans.records),
            "n_events": len(self.events),
            "uptime_seconds": time.time() - self.started_at,
        }


_DISABLED = TelemetrySession(enabled=False)
_session: TelemetrySession = _DISABLED


def _install(session: TelemetrySession) -> None:
    """Make ``session`` current."""
    global _session
    _session = session


def current_session() -> TelemetrySession:
    """The active session (the shared disabled one when telemetry is off)."""
    return _session


def telemetry_enabled() -> bool:
    """Whether a live session is collecting."""
    return _session.enabled


def enable_telemetry() -> TelemetrySession:
    """Install and return a fresh live session."""
    _install(TelemetrySession(enabled=True))
    get_logger("obs").debug("telemetry enabled")
    return _session


def disable_telemetry() -> None:
    """Return to the shared disabled session."""
    _install(_DISABLED)


@contextlib.contextmanager
def telemetry_session():
    """Enable telemetry for a ``with`` block, restoring the previous session.

    Yields the fresh live session; embedders and tests use this to scope
    collection without touching global state by hand.
    """
    previous = _session
    fresh = TelemetrySession(enabled=True)
    _install(fresh)
    try:
        yield fresh
    finally:
        _install(previous)


# -- call-site helpers (hot-path friendly) -------------------------------------

def counter(name: str):
    """The current session's counter ``name`` (null when disabled)."""
    s = _session
    return s.metrics.counter(name) if s.enabled else NULL_COUNTER


def gauge(name: str):
    """The current session's gauge ``name`` (null when disabled)."""
    s = _session
    return s.metrics.gauge(name) if s.enabled else NULL_GAUGE


def histogram(name: str):
    """The current session's histogram ``name`` (null when disabled)."""
    s = _session
    return s.metrics.histogram(name) if s.enabled else NULL_HISTOGRAM


def span(name: str, **attrs):
    """A span on the current session (shared no-op when disabled)."""
    s = _session
    return s.spans.span(name, **attrs) if s.enabled else NULL_SPAN


def record_event(kind: str, **fields) -> None:
    """Record a discrete event on the current session (no-op when disabled)."""
    _session.record_event(kind, **fields)
