"""Lightweight in-process metrics: counters, gauges, histograms.

A :class:`MetricsRegistry` is a name-keyed bag of instruments.  Call
sites fetch an instrument once (``registry.counter("sim.events")``) and
then update it in their hot path; updates are plain attribute writes, so
the cost of an *enabled* instrument is tens of nanoseconds and the cost
of a *disabled* one (the shared null instruments a disabled registry
hands out) is a no-op method call.  Nothing is sampled, buffered or
threaded — a snapshot is an explicit, synchronous read.

Instrument semantics follow the usual conventions:

* **Counter** — monotone accumulator (``inc``).
* **Gauge** — last-write-wins level (``set``), with ``max`` tracking.
* **Histogram** — streaming summary of observations (count / total /
  min / max / mean) plus approximate quantiles (p50/p90/p99) from a
  bounded, deterministically decimated reservoir — memory is O(cap)
  per instrument, never O(stream).
"""

from __future__ import annotations

from typing import Dict, Optional

from ..exceptions import ValidationError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_COUNTER",
    "NULL_GAUGE",
    "NULL_HISTOGRAM",
]


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValidationError(
                f"counter {self.name!r} cannot decrease (inc by {amount})"
            )
        self.value += amount

    def snapshot(self) -> dict:
        """One JSON-able dict describing the current state."""
        return {"type": "counter", "value": self.value}


class Gauge:
    """Last-write-wins level, tracking the maximum it ever reached."""

    __slots__ = ("name", "value", "max_value", "_written")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self.max_value = float("-inf")
        self._written = False

    def set(self, value: float) -> None:
        """Record the instantaneous level."""
        value = float(value)
        self.value = value
        if value > self.max_value:
            self.max_value = value
        self._written = True

    def snapshot(self) -> dict:
        """One JSON-able dict describing the current state."""
        return {
            "type": "gauge",
            "value": self.value,
            "max": self.max_value if self._written else None,
        }


class Histogram:
    """Streaming summary (count/total/min/max/mean/quantiles) of observations.

    Quantiles come from a bounded reservoir: every ``stride``-th
    observation is kept, and when the reservoir hits its cap it is
    thinned in place (every second kept sample dropped) and the stride
    doubled.  The scheme is deterministic (replays reproduce the same
    estimates), spends O(:data:`RESERVOIR_CAP`) memory however long the
    stream, and is *exact* until the cap is first reached.
    """

    __slots__ = ("name", "count", "total", "min", "max",
                 "_reservoir", "_stride", "_skipped")

    RESERVOIR_CAP = 4096
    QUANTILES = (0.5, 0.9, 0.99)

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._reservoir: list = []
        self._stride = 1
        self._skipped = 0

    def observe(self, value: float) -> None:
        """Fold one observation into the summary."""
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self._skipped += 1
        if self._skipped >= self._stride:
            self._skipped = 0
            reservoir = self._reservoir
            reservoir.append(value)
            if len(reservoir) >= self.RESERVOIR_CAP:
                del reservoir[::2]
                self._stride *= 2

    @property
    def mean(self) -> float:
        """Mean observation (NaN before the first one)."""
        return self.total / self.count if self.count else float("nan")

    def quantile(self, q: float) -> float:
        """Approximate ``q``-quantile (NaN before the first observation).

        Linear interpolation over the sorted reservoir; exact while the
        stream is shorter than :data:`RESERVOIR_CAP`.
        """
        if not 0.0 <= q <= 1.0:
            raise ValidationError(f"quantile must be in [0, 1], got {q}")
        if not self._reservoir:
            return float("nan")
        ordered = sorted(self._reservoir)
        position = q * (len(ordered) - 1)
        lower = int(position)
        upper = min(lower + 1, len(ordered) - 1)
        fraction = position - lower
        return ordered[lower] * (1.0 - fraction) + ordered[upper] * fraction

    def snapshot(self) -> dict:
        """One JSON-able dict describing the current state."""
        empty = self.count == 0
        out = {
            "type": "histogram",
            "count": self.count,
            "total": self.total,
            "min": None if empty else self.min,
            "max": None if empty else self.max,
            "mean": None if empty else self.mean,
        }
        for q in self.QUANTILES:
            label = f"p{q * 100:g}".replace(".", "_")
            out[label] = None if empty else self.quantile(q)
        return out

    def merge_summary(self, summary: dict) -> None:
        """Fold another histogram's :meth:`snapshot` into this one.

        Count, total, min and max merge exactly.  The full observation
        stream is gone once summarised, so the donor's quantile points
        are folded into the reservoir as representative samples — the
        merged quantiles are approximate (the summary bounds stay exact).
        Used to carry per-worker telemetry across a process boundary.
        """
        donor_count = int(summary.get("count") or 0)
        if donor_count == 0:
            return
        self.count += donor_count
        self.total += float(summary.get("total") or 0.0)
        donor_min = summary.get("min")
        donor_max = summary.get("max")
        if donor_min is not None and donor_min < self.min:
            self.min = float(donor_min)
        if donor_max is not None and donor_max > self.max:
            self.max = float(donor_max)
        for q in self.QUANTILES:
            label = f"p{q * 100:g}".replace(".", "_")
            point = summary.get(label)
            if point is not None:
                self._reservoir.append(float(point))
        if len(self._reservoir) >= self.RESERVOIR_CAP:
            del self._reservoir[::2]
            self._stride *= 2


class _NullInstrument:
    """Shared no-op stand-in handed out by a disabled registry."""

    __slots__ = ()
    name = "<null>"
    value = 0.0
    count = 0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def quantile(self, q: float) -> float:
        return float("nan")

    def snapshot(self) -> dict:
        return {"type": "null"}


NULL_COUNTER = _NullInstrument()
NULL_GAUGE = _NullInstrument()
NULL_HISTOGRAM = _NullInstrument()


class MetricsRegistry:
    """Name-keyed instrument registry.

    ``enabled=False`` turns the registry into a sink: every accessor
    returns a shared null instrument and :meth:`snapshot` is empty, so
    instrumented code pays only a dictionary-free no-op per update.
    Instrument names are namespaced with dots by convention
    (``"sim.events_fired"``); requesting an existing name with a
    different instrument type is an error — silent type morphing would
    corrupt dashboards.
    """

    def __init__(self, *, enabled: bool = True) -> None:
        self.enabled = enabled
        self._instruments: Dict[str, object] = {}

    def _get(self, name: str, cls, null):
        if not self.enabled:
            return null
        if not name:
            raise ValidationError("metric name must be non-empty")
        inst = self._instruments.get(name)
        if inst is None:
            inst = cls(name)
            self._instruments[name] = inst
        elif type(inst) is not cls:
            raise ValidationError(
                f"metric {name!r} already registered as "
                f"{type(inst).__name__}, not {cls.__name__}"
            )
        return inst

    def counter(self, name: str) -> Counter:
        """Get or create the counter ``name``."""
        return self._get(name, Counter, NULL_COUNTER)

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge ``name``."""
        return self._get(name, Gauge, NULL_GAUGE)

    def histogram(self, name: str) -> Histogram:
        """Get or create the histogram ``name``."""
        return self._get(name, Histogram, NULL_HISTOGRAM)

    def get(self, name: str) -> Optional[object]:
        """The instrument registered under ``name``, or None."""
        return self._instruments.get(name)

    def __len__(self) -> int:
        return len(self._instruments)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def snapshot(self) -> Dict[str, dict]:
        """JSON-able state of every instrument, sorted by name.

        Safe against a concurrent reader (a /metrics scrape) racing the
        producer's registrations: the name list is materialised first
        and instruments looked up defensively, so a registry growing
        mid-snapshot yields a slightly stale view instead of a
        ``RuntimeError``.
        """
        out: Dict[str, dict] = {}
        for name in sorted(list(self._instruments)):
            inst = self._instruments.get(name)
            if inst is not None:
                out[name] = inst.snapshot()
        return out

    def merge_snapshot(self, snapshot: Dict[str, dict]) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        This is how worker-process telemetry survives the pool
        boundary: counters add, gauges keep the later write but the
        larger max, histograms merge their summaries
        (:meth:`Histogram.merge_summary`).  A disabled registry ignores
        the merge, matching every other write path.
        """
        if not self.enabled:
            return
        for name, state in snapshot.items():
            kind = state.get("type")
            if kind == "counter":
                self.counter(name).inc(float(state.get("value") or 0.0))
            elif kind == "gauge":
                gauge = self.gauge(name)
                gauge.set(float(state.get("value") or 0.0))
                donor_max = state.get("max")
                if donor_max is not None and donor_max > gauge.max_value:
                    gauge.max_value = float(donor_max)
            elif kind == "histogram":
                self.histogram(name).merge_summary(state)
            else:
                raise ValidationError(
                    f"cannot merge metric {name!r} of unknown type {kind!r}"
                )

    def reset(self) -> None:
        """Drop every instrument (new run, fresh numbers)."""
        self._instruments.clear()
