"""The discrete-event engine: event list, virtual clock, run loop.

Determinism contract
--------------------
Given the same schedule of callbacks and the same RNG seeds, a simulation
replays bit-identically.  Two properties guarantee this:

1. Events fire in ``(time, priority, seq)`` order, where ``seq`` is a
   monotonically increasing insertion counter — simultaneous events fire
   in a stable, insertion-defined order.
2. Cancelled events are tombstoned in place (lazy deletion), so heap
   structure never depends on cancellation timing.

Tombstones are additionally swept in bulk when they come to dominate the
heap (see :meth:`Simulator.schedule`): because ``(time, priority, seq)``
is a *total* order (``seq`` is unique), rebuilding the heap from only the
live events cannot reorder any future pop — the sweep changes memory
footprint, never firing order.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from .._validation import check_finite
from ..exceptions import SimulationError
from ..obs import session as _obs

EventCallback = Callable[[], None]


@dataclass(order=True, slots=True)
class Event:
    """A scheduled callback.  Ordering key: (time, priority, seq)."""

    time: float
    priority: int
    seq: int
    callback: EventCallback = field(compare=False)
    cancelled: bool = field(default=False, compare=False)
    label: str = field(default="", compare=False)
    fired: bool = field(default=False, compare=False)


class EventHandle:
    """Opaque handle returned by :meth:`Simulator.schedule`; supports cancel."""

    __slots__ = ("_event", "_sim")

    def __init__(self, event: Event, sim: Optional["Simulator"] = None) -> None:
        self._event = event
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        event = self._event
        if not event.cancelled:
            event.cancelled = True
            # Count only tombstones actually sitting in the heap: a
            # cancel after firing is a semantic no-op.
            if not event.fired and self._sim is not None:
                self._sim._note_tombstone()

    @property
    def cancelled(self) -> bool:
        """True when the event will not fire."""
        return self._event.cancelled

    @property
    def time(self) -> float:
        """The scheduled firing time."""
        return self._event.time


class Simulator:
    """Event loop with a virtual clock.

    Typical use::

        sim = Simulator()
        sim.schedule(10.0, lambda: print("fires at t=10"))
        sim.run_until(100.0)
    """

    # Sweep the heap of tombstones when at least this many have piled up
    # AND they outnumber the live events — dead handles from cancelled
    # sessions/timers otherwise linger until the clock reaches them.
    _SWEEP_MIN_TOMBSTONES = 64

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: List[Event] = []
        self._seq = itertools.count()
        self._running = False
        self._n_fired = 0
        self._stop_requested = False
        self._n_tombstones = 0

    @property
    def now(self) -> float:
        """Current virtual time, in seconds."""
        return self._now

    @property
    def events_fired(self) -> int:
        """Number of callbacks executed so far."""
        return self._n_fired

    @property
    def pending(self) -> int:
        """Number of not-yet-cancelled events in the queue."""
        return len(self._heap) - self._n_tombstones

    def _note_tombstone(self) -> None:
        """An in-heap event was just cancelled (called by its handle)."""
        self._n_tombstones += 1

    def _sweep_tombstones(self) -> None:
        """Drop every tombstone and re-heapify the survivors.

        Safe at any moment: ``(time, priority, seq)`` totally orders
        events, so the rebuilt heap pops in exactly the order the old
        one would have — lazy deletion and bulk sweeping are
        observationally identical.
        """
        self._heap = [e for e in self._heap if not e.cancelled]
        heapq.heapify(self._heap)
        self._n_tombstones = 0

    def schedule(
        self, time: float, callback: EventCallback, *,
        priority: int = 0, label: str = "",
    ) -> EventHandle:
        """Schedule ``callback`` at absolute virtual time ``time``.

        Scheduling in the past raises :class:`SimulationError` — a
        component that does this is buggy, and silently clamping would
        hide the bug.
        """
        check_finite(time, name="time")
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event {label!r} at t={time} before now={self._now}"
            )
        event = Event(time=float(time), priority=priority,
                      seq=next(self._seq), callback=callback, label=label)
        heapq.heappush(self._heap, event)
        if (self._n_tombstones >= self._SWEEP_MIN_TOMBSTONES
                and self._n_tombstones * 2 > len(self._heap)):
            self._sweep_tombstones()
        return EventHandle(event, self)

    def schedule_in(self, delay: float, callback: EventCallback, *,
                    priority: int = 0, label: str = "") -> EventHandle:
        """Schedule ``callback`` after a relative ``delay >= 0``."""
        check_finite(delay, name="delay")
        if delay < 0:
            raise SimulationError(f"delay must be non-negative, got {delay}")
        return self.schedule(self._now + delay, callback, priority=priority, label=label)

    def stop(self) -> None:
        """Request the run loop to stop after the current event returns."""
        self._stop_requested = True

    def run_until(self, t_end: float, *, max_events: Optional[int] = None) -> None:
        """Fire events in order until the clock would pass ``t_end``.

        On return the clock equals ``t_end`` (or the time of the event
        that triggered :meth:`stop`).  ``max_events`` guards against
        runaway self-rescheduling loops.
        """
        check_finite(t_end, name="t_end")
        if t_end < self._now:
            raise SimulationError(f"t_end ({t_end}) is before now ({self._now})")
        if self._running:
            raise SimulationError("run_until called re-entrantly from inside an event")
        self._running = True
        self._stop_requested = False
        fired_this_run = 0
        try:
            while self._heap:
                event = self._heap[0]
                if event.cancelled:
                    heapq.heappop(self._heap)
                    self._n_tombstones -= 1
                    continue
                if event.time > t_end:
                    break
                heapq.heappop(self._heap)
                event.fired = True
                self._now = event.time
                event.callback()
                self._n_fired += 1
                fired_this_run += 1
                if self._stop_requested:
                    return
                if max_events is not None and fired_this_run >= max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events} before reaching t={t_end}"
                    )
            self._now = t_end
        finally:
            self._running = False
            if _obs.telemetry_enabled():
                # Whole-run aggregates only: per-event instrumentation in
                # this loop would dominate the loop body itself.
                _obs.counter("sim.events_fired").inc(fired_this_run)
                _obs.gauge("sim.queue_depth").set(len(self._heap))
                _obs.gauge("sim.clock_seconds").set(self._now)

    def run_next(self) -> bool:
        """Fire exactly the next pending event.  Returns False when empty."""
        if self._running:
            raise SimulationError("run_next called re-entrantly from inside an event")
        while self._heap:
            event = heapq.heappop(self._heap)
            if event.cancelled:
                self._n_tombstones -= 1
                continue
            self._running = True
            try:
                event.fired = True
                self._now = event.time
                event.callback()
                self._n_fired += 1
            finally:
                self._running = False
            return True
        return False
