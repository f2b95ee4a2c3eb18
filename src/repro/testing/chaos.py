"""Fault injection for the resilience layer: kill, hang, raise, torn writes.

The paper's methodology is "run hosts under stress until they crash";
this module applies the same discipline to the campaign harness itself.
A :class:`ChaosSpec` deterministically schedules worker-process kills
(``os._exit`` mid-unit), hangs (sleeps past the pool timeout) and
transient :class:`ChaosError` raises against pool work units, via the
``pre_unit`` hook of :func:`repro.perf.pool.resilient_map`; the
:class:`TornWriter` wrapper and :func:`slow_write` simulate writes
interrupted partway for exercising the atomic artifact writers.

Everything is deterministic: which units fail, and on which attempts,
is a pure function of ``(spec.seed, failure kind, unit index)`` through
``crc32`` (no salted hashing), so a chaos test that fails is a chaos
test you can re-run.  Because a unit stops being sabotaged after
``max_failures_per_unit`` attempts, a retry budget of at least that
many always converges — and since the *work function* is untouched on
the successful attempt, the chaos run's results are bit-identical to a
calm run's.  That equivalence is the core assertion of the chaos tests.

Used from tests and from ``python -m repro campaign --chaos`` (a dev
flag: sabotage your own campaign, then watch retries, the checkpoint
journal and ``--resume`` repair it).
"""

from __future__ import annotations

import os
import time
import zlib
from dataclasses import dataclass
from random import Random
from typing import IO

from ..exceptions import ReproError, ValidationError

__all__ = [
    "ChaosError",
    "ChaosSpec",
    "TornWriteError",
    "TornWriter",
    "chaos_pre_unit",
    "slow_write",
]


class ChaosError(ReproError, RuntimeError):
    """A failure injected by the chaos harness.

    Campaign execution treats this as *transient* (retryable); anything
    else a unit raises is still a real bug and propagates.
    """


class TornWriteError(ChaosError):
    """Injected mid-write failure from :class:`TornWriter`."""


@dataclass(frozen=True)
class ChaosSpec:
    """Deterministic schedule of injected faults for pool work units.

    Rates are per-unit probabilities (evaluated once per unit, not per
    attempt): a unit selected for a fault suffers it on its first
    ``max_failures_per_unit`` attempts and then runs clean, so retry
    budgets ``>= max_failures_per_unit`` always converge.  ``kill``
    takes precedence over ``hang`` over ``raise`` when a unit is
    selected for several.

    ``hang_seconds`` must exceed the pool timeout to be meaningful;
    ``kill`` uses ``os._exit`` so the worker dies without running any
    cleanup — exactly like the OOM killer the campaign fears.
    """

    kill_rate: float = 0.0
    hang_rate: float = 0.0
    raise_rate: float = 0.0
    hang_seconds: float = 3600.0
    seed: int = 0
    max_failures_per_unit: int = 1

    def __post_init__(self) -> None:
        for name in ("kill_rate", "hang_rate", "raise_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValidationError(
                    f"{name} must be in [0, 1], got {rate}")
        if self.hang_seconds <= 0:
            raise ValidationError(
                f"hang_seconds must be positive, got {self.hang_seconds}")
        if self.max_failures_per_unit < 1:
            raise ValidationError(
                f"max_failures_per_unit must be >= 1, "
                f"got {self.max_failures_per_unit}")

    def _selected(self, kind: str, index: int, rate: float) -> bool:
        if rate <= 0.0:
            return False
        draw = Random(zlib.crc32(f"{self.seed}:{kind}:{index}".encode()))
        return draw.random() < rate

    def fault_for(self, index: int, attempt: int) -> str | None:
        """The fault (``"kill"``/``"hang"``/``"raise"``) this unit
        suffers on this attempt, or ``None``."""
        if attempt > self.max_failures_per_unit:
            return None
        for kind, rate in (("kill", self.kill_rate),
                           ("hang", self.hang_rate),
                           ("raise", self.raise_rate)):
            if self._selected(kind, index, rate):
                return kind
        return None

    def scheduled_faults(self, n_units: int) -> dict:
        """``{index: kind}`` for every unit that will be sabotaged —
        lets tests and the CLI report what the schedule holds."""
        out = {}
        for index in range(n_units):
            kind = self.fault_for(index, attempt=1)
            if kind is not None:
                out[index] = kind
        return out


def chaos_pre_unit(spec: ChaosSpec, index: int, attempt: int) -> None:
    """``pre_unit`` hook for the pool: inject this unit's scheduled fault.

    Runs inside the worker process, before the work function.  Pass as
    ``functools.partial(chaos_pre_unit, spec)`` — module-level and
    dataclass-argument, so it pickles across the process boundary.
    """
    fault = spec.fault_for(index, attempt)
    if fault == "kill":
        os._exit(17)  # die like the OOM killer: no cleanup, no excuse
    elif fault == "hang":
        time.sleep(spec.hang_seconds)
    elif fault == "raise":
        raise ChaosError(
            f"injected transient failure (unit {index}, attempt {attempt})")


class TornWriter:
    """File-handle wrapper that dies partway through writing.

    Wrap the handle yielded by an atomic writer and the write "tears"
    after ``fail_after_bytes`` — the simulated mid-write SIGKILL.  The
    atomic-write contract under test: the destination path must be left
    untouched (previous version or absent), with no partial content
    visible.
    """

    def __init__(self, handle: IO, *, fail_after_bytes: int):
        if fail_after_bytes < 0:
            raise ValidationError(
                f"fail_after_bytes must be >= 0, got {fail_after_bytes}")
        self._handle = handle
        self._budget = fail_after_bytes
        self.bytes_written = 0

    def write(self, data: str) -> int:
        remaining = self._budget - self.bytes_written
        if len(data) > remaining:
            self._handle.write(data[:remaining])
            self.bytes_written += remaining
            raise TornWriteError(
                f"injected torn write after {self._budget} byte(s)")
        self._handle.write(data)
        self.bytes_written += len(data)
        return len(data)

    def __getattr__(self, name: str):
        return getattr(self._handle, name)


def slow_write(handle: IO, data: str, *, chunk_size: int = 64,
               delay: float = 0.01) -> None:
    """Write ``data`` in small flushed chunks with sleeps in between.

    Stretches a write out in wall-clock time so an external killer (a
    SIGKILL, a test's watchdog) has a window to land mid-write — the
    scenario the atomic writers must survive.
    """
    if chunk_size < 1:
        raise ValidationError(f"chunk_size must be >= 1, got {chunk_size}")
    if delay < 0:
        raise ValidationError(f"delay must be >= 0, got {delay}")
    for start in range(0, len(data), chunk_size):
        handle.write(data[start:start + chunk_size])
        handle.flush()
        time.sleep(delay)
