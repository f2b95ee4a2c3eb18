"""Live HTTP status/metrics surface for running campaigns and watches.

A threaded stdlib HTTP server (:class:`StatusServer`) exposing three
read-only endpoints on localhost while a run is in flight:

* ``/healthz`` — liveness: ``{"status": "ok"}``.
* ``/status`` — one JSON document (schema ``repro.status/1``): campaign
  progress (units done/failed/resumed, per-cell counts), an EWMA-based
  ETA, journal/resume state including the last-progress heartbeat,
  selected pool/campaign counters, the latest worker resource snapshot
  and the self-watch digest.
* ``/metrics`` — the live telemetry session rendered through the
  existing Prometheus/OpenMetrics exporter
  (:func:`~repro.obs.export.session_to_prometheus`).
* ``/timeline`` — the in-memory ring of the attached
  :class:`~repro.obs.timeline.TimelineRecorder` (most recent frames and
  annotations), when a campaign runs with ``--timeline``.

Progress state lives in a :class:`StatusBoard` — a lock-protected,
plain-data accumulator the campaign runner updates from its
``on_result`` path.  The split keeps the server dumb (it only *reads*)
and the producer fast (an update is a dict write under a lock), and
lets tests drive the board without any HTTP at all.

Everything is observation: neither the board nor the server touches
work items, seeds or results, so a campaign run with the control plane
on is bit-identical to one without it (enforced in tests).
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, Mapping, Optional

from ..exceptions import ValidationError
from .export import session_to_prometheus
from .logger import get_logger
from . import session as _session
from .timeline import CONTROL_COUNTER_PREFIXES, TIMELINE_SCHEMA

__all__ = [
    "STATUS_SCHEMA",
    "StatusBoard",
    "StatusServer",
]

STATUS_SCHEMA = "repro.status/1"

_log = get_logger("obs.statusd")


class StatusBoard:
    """Thread-safe progress accumulator behind the ``/status`` endpoint.

    The producer (campaign runner, watch loop) calls :meth:`begin`,
    :meth:`unit_finished`/:meth:`unit_failed`, :meth:`update` and
    :meth:`finish`; any thread may call :meth:`snapshot`.  The ETA is an
    exponentially weighted mean of inter-completion wall intervals times
    the remaining unit count — crude, but it needs no model of the work
    and converges as fast as the EWMA does.
    """

    def __init__(self, *, kind: str = "campaign", ewma_alpha: float = 0.3,
                 clock: Callable[[], float] = time.time) -> None:
        if not 0.0 < ewma_alpha <= 1.0:
            raise ValidationError(
                f"ewma_alpha must be in (0, 1], got {ewma_alpha}")
        self.kind = kind
        self._alpha = ewma_alpha
        self._clock = clock
        self._lock = threading.Lock()
        self._state = "idle"
        self._started_at: Optional[float] = None
        self._total_units = 0
        self._done = 0
        self._failed = 0
        self._resumed = 0
        self._cells: Dict[str, dict] = {}
        self._detectors: Dict[str, dict] = {}
        self._ewma_interval: Optional[float] = None
        self._last_finish: Optional[float] = None
        self._last_progress_at: Optional[float] = None
        self._fields: Dict[str, object] = {}

    # -- producer API ----------------------------------------------------------

    def begin(self, *, total_units: int,
              cells: Optional[Mapping[str, int]] = None,
              resumed: int = 0, **fields) -> None:
        """Open the run: totals, per-cell unit counts, resume context."""
        with self._lock:
            self._state = "running"
            self._started_at = self._clock()
            self._total_units = int(total_units)
            self._resumed = int(resumed)
            self._cells = {
                str(name): {"total": int(total), "done": 0, "failed": 0}
                for name, total in (cells or {}).items()
            }
            self._detectors = {}
            self._fields.update(fields)

    def unit_finished(self, cell: Optional[str] = None,
                      detector: Optional[str] = None,
                      alarmed: Optional[bool] = None) -> None:
        """Record one completed unit (updates progress, EWMA, heartbeat).

        ``detector``/``alarmed`` feed the live per-detector tournament
        tallies in ``/status`` — optional, so non-grid producers (watch
        loops, older callers) keep working unchanged.
        """
        now = self._clock()
        with self._lock:
            self._done += 1
            self._last_progress_at = now
            if cell is not None and cell in self._cells:
                self._cells[cell]["done"] += 1
            if detector is not None:
                tally = self._detectors.setdefault(
                    str(detector), {"done": 0, "alarms": 0})
                tally["done"] += 1
                if alarmed:
                    tally["alarms"] += 1
            anchor = self._last_finish
            if anchor is None:
                anchor = self._started_at
            if anchor is not None:
                interval = max(0.0, now - anchor)
                if self._ewma_interval is None:
                    self._ewma_interval = interval
                else:
                    self._ewma_interval = (self._alpha * interval
                                           + (1 - self._alpha)
                                           * self._ewma_interval)
            self._last_finish = now

    def unit_failed(self, cell: Optional[str] = None,
                    error: Optional[str] = None) -> None:
        """Record one permanently failed unit."""
        with self._lock:
            self._failed += 1
            if cell is not None and cell in self._cells:
                self._cells[cell]["failed"] += 1
            if error is not None:
                self._fields["last_error"] = error

    def update(self, **fields) -> None:
        """Merge free-form fields into the snapshot (journal path, …)."""
        with self._lock:
            self._fields.update(fields)

    def finish(self, status: str, **fields) -> None:
        """Close the run with a final status string."""
        with self._lock:
            self._state = status
            self._fields.update(fields)

    # -- consumer API ----------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-able progress state (one consistent read)."""
        with self._lock:
            remaining = max(
                0, self._total_units - self._resumed - self._done - self._failed)
            eta = (None if self._ewma_interval is None or remaining == 0
                   else self._ewma_interval * remaining)
            rate = (None if not self._ewma_interval
                    else 1.0 / self._ewma_interval)
            return {
                "kind": self.kind,
                "state": self._state,
                "started_at": self._started_at,
                "total_units": self._total_units,
                "units_done": self._done,
                "units_failed": self._failed,
                "units_resumed": self._resumed,
                "units_remaining": remaining,
                "cells": {name: dict(counts)
                          for name, counts in self._cells.items()},
                "detectors": {name: dict(counts)
                              for name, counts in self._detectors.items()},
                "eta_seconds": eta,
                "units_per_second": rate,
                "last_progress_at": self._last_progress_at,
                **dict(self._fields),
            }


def _status_counters() -> Dict[str, float]:
    """The /status view of the live metrics: selected counters only."""
    session = _session.current_session()
    if not session.enabled:
        return {}
    out: Dict[str, float] = {}
    for name in list(session.metrics._instruments):
        if not name.startswith(CONTROL_COUNTER_PREFIXES):
            continue
        instrument = session.metrics.get(name)
        value = getattr(instrument, "value", None)
        if value is not None:
            out[name] = value
    return dict(sorted(out.items()))


class _StatusHandler(BaseHTTPRequestHandler):
    """Routes GETs; everything is built from a snapshot per request."""

    server_version = "repro-statusd/1"
    protocol_version = "HTTP/1.1"

    def do_GET(self) -> None:  # noqa: N802 - stdlib API
        path = self.path.split("?", 1)[0]
        server: "StatusServer" = self.server.control  # type: ignore[attr-defined]
        if path == "/healthz":
            self._reply(200, json.dumps({"status": "ok"}) + "\n",
                        "application/json")
        elif path == "/status":
            self._reply(200, json.dumps(server.status_payload(),
                                        sort_keys=True) + "\n",
                        "application/json")
        elif path == "/metrics":
            self._reply(200, server.metrics_payload(),
                        "text/plain; version=0.0.4; charset=utf-8")
        elif path == "/timeline":
            self._reply(200, json.dumps(server.timeline_payload(),
                                        sort_keys=True) + "\n",
                        "application/json")
        else:
            self._reply(404, json.dumps(
                {"error": f"unknown path {path!r}",
                 "paths": ["/healthz", "/status", "/metrics",
                           "/timeline"]}) + "\n",
                "application/json")

    def _reply(self, code: int, body: str, content_type: str) -> None:
        data = body.encode()
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        _log.debug("statusd request", detail=format % args)


class StatusServer:
    """Threaded localhost HTTP server for ``/healthz``, ``/status``,
    ``/metrics`` and ``/timeline``.

    ``port=0`` binds an ephemeral port (read it back from :attr:`port`
    after :meth:`start`).  The serve loop runs on one named daemon
    thread; per-request threads are daemons too, so :meth:`stop` —
    ``shutdown`` + ``server_close`` + join — leaves nothing running.

    ``board`` and ``resources`` are optional read-only data sources;
    the metrics endpoint always renders the *current* telemetry session
    so it keeps working across session swaps.
    """

    def __init__(self, *, host: str = "127.0.0.1", port: int = 0,
                 board: Optional[StatusBoard] = None,
                 resources=None, timeline=None) -> None:
        if not 0 <= int(port) <= 65535:
            raise ValidationError(f"port must be in [0, 65535], got {port}")
        self.host = host
        self.board = board
        self.resources = resources
        self.timeline = timeline
        self._requested_port = int(port)
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    # -- payloads (also used directly by tests) --------------------------------

    def status_payload(self) -> dict:
        """The full ``/status`` JSON document."""
        session = _session.current_session()
        payload: dict = {
            "schema": STATUS_SCHEMA,
            "time": time.time(),
            "trace_id": getattr(session, "trace_id", None),
            "counters": _status_counters(),
        }
        if self.board is not None:
            payload.update(self.board.snapshot())
        if self.resources is not None:
            payload["resources"] = self.resources.latest()
        return payload

    def timeline_payload(self) -> dict:
        """The ``/timeline`` JSON document: the recorder's ring."""
        if self.timeline is None:
            return {"schema": None, "records": [],
                    "note": "no timeline recorder attached — run with "
                            "--timeline"}
        return {"schema": TIMELINE_SCHEMA,
                "records": self.timeline.records()}

    def metrics_payload(self) -> str:
        """The ``/metrics`` OpenMetrics text for the current session.

        A scrape races the single-threaded producer; on the (rare)
        mutation-during-snapshot error it simply retries — the registry
        is append-only, so a retry converges.
        """
        last_error: Optional[Exception] = None
        for _ in range(3):
            try:
                return session_to_prometheus(_session.current_session())
            except RuntimeError as exc:  # pragma: no cover - timing window
                last_error = exc
        _log.warning("metrics scrape raced the producer; serving empty",
                     error=str(last_error))  # pragma: no cover
        return "# EOF\n"  # pragma: no cover

    # -- lifecycle -------------------------------------------------------------

    @property
    def port(self) -> Optional[int]:
        """Bound port once started, else None."""
        if self._httpd is None:
            return None
        return self._httpd.server_address[1]

    @property
    def url(self) -> Optional[str]:
        """Base URL once started, else None."""
        port = self.port
        return None if port is None else f"http://{self.host}:{port}"

    def start(self) -> int:
        """Bind and serve on a background thread; returns the bound port."""
        if self._httpd is not None:
            return self.port  # type: ignore[return-value]
        httpd = ThreadingHTTPServer(
            (self.host, self._requested_port), _StatusHandler)
        httpd.daemon_threads = True
        httpd.control = self  # type: ignore[attr-defined]
        self._httpd = httpd
        self._thread = threading.Thread(
            target=httpd.serve_forever, name="repro-statusd", daemon=True,
            kwargs={"poll_interval": 0.05})
        self._thread.start()
        _log.info("status server listening", url=self.url)
        return self.port  # type: ignore[return-value]

    def stop(self, *, timeout: float = 5.0) -> None:
        """Shut the server down and join its thread (idempotent)."""
        if self._httpd is None:
            return
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=timeout)
        self._httpd = None
        self._thread = None

    def __enter__(self) -> "StatusServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
