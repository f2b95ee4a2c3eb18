"""Machine assembly and stress-run driver.

:class:`Machine` wires a memory manager, the ON/OFF + session workload,
the aging-fault models and the counter sampler onto one simulator, runs
until the host dies (commit or pool exhaustion) or the time budget ends,
and returns a :class:`RunResult` carrying the counter traces and the
ground-truth crash time.

Crash semantics: the first allocation failure starts a grace window of
``crash_grace`` seconds (a real host limps, pages frantically and then
hangs rather than dying on the first failed VirtualAlloc); the crash is
declared at the end of that window.  The sampler keeps sampling through
the grace window, so traces include the death throes like the paper's
do.

:func:`run_fleet` drives N independent seeded runs (the multi-run
experiments behind tables T3/T4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..exceptions import SimulationError
from ..obs import get_logger
from ..obs import session as _obs
from ..simkernel import RngRegistry, Simulator
from ..trace.series import TraceBundle
from .config import MachineConfig
from .faults import CompositeListener, FragmentationFault, LeakProcess
from .memory import MemoryManager
from .sampler import CounterSampler
from .workloads import OnOffSource, SessionWorkload

_log = get_logger("memsim.machine")


@dataclass(frozen=True)
class RunResult:
    """Outcome of one stress run.

    Attributes
    ----------
    bundle:
        The collected performance-counter traces, with run metadata
        (``crash_time``, ``crash_reason``, ``os_profile``, ``seed``).
    crashed:
        Whether the host died before the time budget.
    crash_time:
        Simulated time of death (None when it survived).
    crash_reason:
        ``"commit"`` or ``"pool"`` (None when it survived).
    duration:
        Total simulated seconds.
    """

    bundle: TraceBundle
    crashed: bool
    crash_time: Optional[float]
    crash_reason: Optional[str]
    duration: float
    rejuvenation_times: tuple = ()


class Machine:
    """One simulated host under stress."""

    def __init__(self, config: MachineConfig, *, crash_grace: float = 120.0) -> None:
        if crash_grace < 0:
            raise SimulationError(f"crash_grace must be non-negative, got {crash_grace}")
        self.config = config
        self.crash_grace = crash_grace
        self.sim = Simulator()
        self.rngs = RngRegistry(config.seed)
        self.memory = MemoryManager(config, self.rngs.stream("memory"))

        self._first_failure_time: Optional[float] = None
        self._crash_time: Optional[float] = None
        self._crash_reason: Optional[str] = None
        self._crash_handle = None
        self.rejuvenation_times: List[float] = []

        # Fault models.
        self.leak = LeakProcess(
            self.sim, self.rngs, self.memory, config.faults,
            on_failure=self._note_failure,
        )
        self.fragmentation = FragmentationFault(
            self.memory, config.faults, self.rngs.stream("fault.frag"),
        )
        listener = CompositeListener(self.fragmentation, self.leak)

        # Workload.
        self.sources: List[OnOffSource] = [
            OnOffSource(
                self.sim, self.rngs, f"source.{i}", config.workload, self.memory,
                listener=listener, on_failure=self._note_failure,
            )
            for i in range(config.workload.n_sources)
        ]
        self.sessions = SessionWorkload(
            self.sim, self.rngs, "sessions", config.workload, self.memory,
            listener=listener, on_failure=self._note_failure,
        )
        self.sampler = CounterSampler(self.sim, self.rngs, self.memory, config)

        # Pre-warm: a freshly assembled machine would otherwise spend its
        # first thousands of seconds filling memory toward the workload's
        # steady state, and that transient pollutes baseline calibration.
        # We model an already-running server: a preload block equal to
        # ~90% of the expected steady-state footprint is committed at
        # t=0 and released in chunks as the real workload ramps in.
        w = config.workload
        duty = w.mean_on / (w.mean_on + w.mean_off)
        steady_pages = int(
            w.n_sources * duty * w.on_rate_pages * w.hold_time
            + w.session_rate * w.session_pages_mean * w.session_lifetime
        )
        self._preload_pages = int(0.9 * steady_pages)
        self._preload_chunks = 20
        self._preload_release_span = 2.0 * max(w.hold_time, w.session_lifetime)

    # -- live state (readable during the run by in-sim observers) ---------------

    @property
    def crashed(self) -> bool:
        """True once the host has died (readable mid-run)."""
        return self._crash_time is not None

    @property
    def crash_time(self) -> Optional[float]:
        """Simulated time of death, or None while alive."""
        return self._crash_time

    @property
    def crash_reason(self) -> Optional[str]:
        """``"commit"`` or ``"pool"`` once dead/doomed, else None."""
        return self._crash_reason

    @property
    def first_failure_time(self) -> Optional[float]:
        """Time of the first allocation failure (grace-window start)."""
        return self._first_failure_time

    # -- crash handling ---------------------------------------------------------

    def _note_failure(self, reason: str) -> None:
        """Record the first allocation failure and schedule the crash."""
        if self._first_failure_time is not None:
            return
        self._first_failure_time = self.sim.now
        self._crash_reason = reason
        self._crash_handle = self.sim.schedule_in(
            self.crash_grace, self._crash, priority=-10, label="machine.crash")
        _log.warning("first allocation failure", sim_time=self.sim.now,
                     reason=reason, grace_seconds=self.crash_grace)
        _obs.record_event("alloc_failure_onset", sim_time=self.sim.now,
                          reason=reason)

    def _crash(self) -> None:
        self._crash_time = self.sim.now
        _log.warning("machine crashed", sim_time=self.sim.now,
                     reason=self._crash_reason or "unknown")
        _obs.record_event("crash", sim_time=self.sim.now,
                          reason=self._crash_reason or "unknown")
        self.sim.stop()

    def note_failure(self, reason: str) -> None:
        """Public hook for extra workload components to report allocation
        failures (they feed the same crash logic as the built-in ones)."""
        self._note_failure(reason)

    # -- rejuvenation --------------------------------------------------------------

    def rejuvenate(self) -> None:
        """Restart the software stack: clear all user state and decay.

        Callable from inside the simulation (policy controllers) or, for
        stitched experiments, between ``run_until`` segments.  A pending
        crash (scheduled after a first allocation failure) is averted —
        the restart happened first.
        """
        self.memory.reset_user_state()
        if self._crash_handle is not None:
            self._crash_handle.cancel()
            self._crash_handle = None
        self._first_failure_time = None
        self._crash_reason = None
        self.rejuvenation_times.append(self.sim.now)
        _log.info("rejuvenated", sim_time=self.sim.now,
                  n_rejuvenations=len(self.rejuvenation_times))
        _obs.record_event("rejuvenation", sim_time=self.sim.now)
        _obs.counter("memsim.rejuvenations").inc()

    # -- telemetry ----------------------------------------------------------------

    def _publish_metrics(self) -> None:
        """Fold the run's memory/paging activity into the metrics registry.

        Counters are cumulative across a fleet (each run adds its
        totals); gauges carry the last run's end state.  Everything is
        read from the manager's own accounting, so this is one cheap
        pass at run end rather than per-allocation overhead.
        """
        if not _obs.telemetry_enabled():
            return
        mem = self.memory
        _obs.counter("memsim.allocated_pages").inc(mem.cum_allocated_pages)
        _obs.counter("memsim.freed_pages").inc(mem.cum_freed_pages)
        _obs.counter("memsim.page_faults").inc(mem.cum_page_faults)
        _obs.counter("memsim.pages_out").inc(mem.cum_pages_out)
        _obs.counter("memsim.pages_in").inc(mem.cum_pages_in)
        _obs.counter("memsim.alloc_failures").inc(mem.cum_alloc_failures)
        _obs.counter("memsim.samples_collected").inc(self.sampler.n_samples())
        _obs.gauge("memsim.leaked_pinned_pages").set(mem.pinned_pages)
        _obs.gauge("memsim.resident_pages").set(mem.resident_pages)
        _obs.gauge("memsim.pagefile_pages").set(mem.pagefile_pages)
        _obs.gauge("memsim.available_bytes").set(mem.available_bytes)
        _obs.histogram("memsim.run_sim_seconds").observe(self.sim.now)

    # -- driving ------------------------------------------------------------------

    def run(self) -> RunResult:
        """Run the stress experiment to crash or time budget."""
        _log.info("run starting", profile=self.config.os_profile,
                  seed=self.config.seed,
                  budget_seconds=self.config.max_run_seconds)
        with _obs.span("machine-setup", profile=self.config.os_profile,
                       seed=self.config.seed):
            if self._preload_pages > 0:
                result = self.memory.allocate(self._preload_pages)
                if not result.ok:
                    raise SimulationError(
                        "preload exceeds memory; workload steady state does not fit "
                        "this machine configuration"
                    )
                chunk = self._preload_pages // self._preload_chunks
                remainder = self._preload_pages - chunk * self._preload_chunks
                for i in range(self._preload_chunks):
                    pages = chunk + (remainder if i == self._preload_chunks - 1 else 0)
                    if pages <= 0:
                        continue
                    when = (i + 1) * self._preload_release_span / self._preload_chunks
                    epoch = self.memory.epoch
                    self.sim.schedule(
                        when,
                        lambda p=pages, e=epoch: (
                            self.memory.free(p) if self.memory.epoch == e else None),
                        label="machine.preload_release")
            for source in self.sources:
                source.ensure_started()
            self.sessions.ensure_started()
            self.leak.ensure_started()
            self.sampler.ensure_started()

        with _obs.span("machine-run", profile=self.config.os_profile,
                       seed=self.config.seed):
            self.sim.run_until(self.config.max_run_seconds)
        self.memory.check_invariants()

        crashed = self._crash_time is not None
        duration = self.sim.now
        self._publish_metrics()
        if crashed:
            _log.info("run finished: crashed", sim_time=self._crash_time,
                      reason=self._crash_reason or "unknown",
                      samples=self.sampler.n_samples())
        else:
            _log.info("run finished: survived", duration=duration,
                      samples=self.sampler.n_samples())
        metadata: dict = {
            "os_profile": self.config.os_profile,
            "seed": float(self.config.seed),
            "duration": duration,
        }
        if self.rejuvenation_times:
            metadata["n_rejuvenations"] = float(len(self.rejuvenation_times))
        if crashed:
            metadata["crash_time"] = float(self._crash_time)
            metadata["crash_reason"] = self._crash_reason or "unknown"
            metadata["first_failure_time"] = float(self._first_failure_time)
        with _obs.span("machine-collect", seed=self.config.seed):
            bundle = self.sampler.to_bundle(metadata)
        return RunResult(
            bundle=bundle,
            crashed=crashed,
            crash_time=self._crash_time,
            crash_reason=self._crash_reason if crashed else None,
            duration=duration,
            rejuvenation_times=tuple(self.rejuvenation_times),
        )


def _fleet_unit(unit) -> RunResult:
    """Pool entry point: one seeded fleet run."""
    base_config, i, crash_grace = unit
    config = base_config.with_seed(base_config.seed + i)
    return Machine(config, crash_grace=crash_grace).run()


FLEET_ENGINES = ("object", "vector")


def run_fleet(
    base_config: MachineConfig,
    n_runs: int,
    *,
    crash_grace: float = 120.0,
    workers: int = 1,
    engine: str = "object",
) -> List[RunResult]:
    """Run ``n_runs`` independent machines differing only in seed.

    Run ``i`` uses seed ``base_config.seed + i``; everything else is
    shared, so fleets give i.i.d. replicates of the same experiment.
    ``workers > 1`` fans the runs across a process pool
    (:func:`repro.perf.pool.parallel_map`); per-run seeding and ordered
    reassembly keep the result list bit-identical to the sequential one.

    ``engine`` selects the simulation core: ``"object"`` steps one
    :class:`Machine` per run through the discrete-event kernel (the
    oracle), ``"vector"`` advances the whole fleet per tick through the
    struct-of-arrays engine (:mod:`repro.memsim.fleet_vec`) — order of
    magnitude faster per host, statistically equivalent traces (see
    ``docs/PERFORMANCE.md`` for the contract).
    """
    if n_runs < 1:
        raise SimulationError(f"n_runs must be >= 1, got {n_runs}")
    if engine not in FLEET_ENGINES:
        raise SimulationError(
            f"unknown fleet engine {engine!r}; expected one of {FLEET_ENGINES}")
    if engine == "vector":
        from .fleet_vec import run_fleet_vector

        return run_fleet_vector(base_config, n_runs, crash_grace=crash_grace,
                                workers=workers)
    from ..perf.pool import parallel_map

    units = [(base_config, i, crash_grace) for i in range(n_runs)]
    return parallel_map(_fleet_unit, units, workers=workers,
                        label="fleet-worker")
