"""Vectorised struct-of-arrays fleet engine.

One process advances an entire fleet of simulated hosts per tick: every
piece of per-machine state in the object model (resident/pagefile/pinned
pages, pool usage, fragmentation decay, ON/OFF source phases, session
pools, grace-window clocks, crash flags) becomes a numpy array indexed
by host, and the discrete-event loop collapses into a fixed-step advance
(``dt`` = 1 s by default, the object model's burst/sampling granularity)
with an *event-horizon mask*: crashed hosts drop out of the active set
without per-host branching.

Equivalence contract (enforced by ``tests/test_fleet_vec.py`` and the
``memsim.fleet_vec_equiv`` bench case; methodology in
``docs/PERFORMANCE.md``):

* **exact batch decomposition** — host ``i`` of an ``n``-host fleet is
  bit-identical to host ``i`` simulated alone (and to any sharding of
  the fleet across workers), because every variate is a counter-based
  function of ``(base_seed + i, stream, tick)``
  (:mod:`repro.simkernel.batch_rng`);
* **object-model agreement** — same sample grid, counter set, units and
  metadata keys as :class:`~repro.memsim.machine.Machine`; same crash
  vocabulary (``commit`` / ``memory`` / ``pool``) and grace-window
  semantics; crash-*time* distributions statistically indistinguishable
  (KS) from the object engine.  Bit-equality across engines is
  impossible by construction (an event heap and a fixed-step loop
  consume randomness differently), so cross-engine equivalence is
  distributional by design while within-engine determinism is exact.

Mechanism-by-mechanism the tick loop mirrors the object model's
aggregate accounting (`memory.py`): commit-first allocation with
page-out shortfall handling, 2x cold-biased frees, working-set trim,
thrash churn, binomial heap-leak pinning, periodic pool drip, and
fragmentation erosion of the commit limit.  Differences are deliberate
and documented: allocations aggregate per tick (partial fills near the
limit instead of per-request all-or-nothing), burst/session releases
land on tick-resolution ring buffers, and the pool drip uses a
moment-matched lognormal in place of the gamma.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import SimulationError
from ..obs import get_logger
from ..obs import session as _obs
from ..simkernel import batch_rng
from ..simkernel.batch_rng import FleetRng
from ..trace.series import TimeSeries, TraceBundle
from .config import PAGE_SIZE, MachineConfig
from .machine import RunResult
from .sampler import COUNTER_NAMES, _COUNTER_UNITS

_log = get_logger("memsim.fleet_vec")

_REASONS = {1: "commit", 2: "memory", 3: "pool"}
_POOL_DRIP_PERIOD = 5.0  # LeakProcess default period, seconds
_MIN_TRACE_SLOTS = 1024  # first allocation of the per-host sample slots


class VectorFleet:
    """A fleet of independent hosts advanced in lockstep.

    Parameters
    ----------
    config:
        The shared machine configuration.  ``config.seed`` is the base
        seed; host ``i`` runs with seed ``config.seed + i`` (the same
        derivation as :func:`~repro.memsim.machine.run_fleet`).
    n_hosts:
        Fleet size (ignored when ``seeds`` is given).
    seeds:
        Explicit per-host seeds, for sharded execution.
    crash_grace:
        Seconds between the first allocation failure and the crash.
    dt:
        Tick length in seconds.  ``config.sampling_interval`` must be an
        integer multiple.
    ring_bins:
        Depth of the future-release ring buffers, in ticks.  Holds and
        lifetimes beyond the ring are clamped to its horizon (with the
        default 4096-tick ring the clamped tail is negligible for every
        stock scenario).
    collect_traces:
        When False, skip per-sample trace storage (results carry empty
        bundles with full metadata) — for throughput studies where only
        crash times matter.
    batch_job:
        Optional ``(period, pages, run_time)`` tuple attaching the
        scenario-style periodic batch job to every host.
    """

    def __init__(
        self,
        config: MachineConfig,
        n_hosts: Optional[int] = None,
        *,
        seeds: Optional[Sequence[int]] = None,
        crash_grace: float = 120.0,
        dt: float = 1.0,
        ring_bins: int = 4096,
        collect_traces: bool = True,
        batch_job: Optional[Tuple[float, int, float]] = None,
    ) -> None:
        if crash_grace < 0:
            raise SimulationError(f"crash_grace must be non-negative, got {crash_grace}")
        if dt <= 0:
            raise SimulationError(f"dt must be positive, got {dt}")
        if seeds is None:
            if n_hosts is None or n_hosts < 1:
                raise SimulationError(f"n_hosts must be >= 1, got {n_hosts}")
            seed_arr = batch_rng.host_seeds(config.seed, n_hosts)
        else:
            seed_arr = np.asarray(list(seeds), dtype=np.int64)
            if seed_arr.size == 0:
                raise SimulationError("seeds must be non-empty")
        n = int(seed_arr.size)
        se = config.sampling_interval / dt
        if abs(se - round(se)) > 1e-9 or round(se) < 1:
            raise SimulationError(
                f"sampling_interval ({config.sampling_interval}) must be an "
                f"integer multiple of dt ({dt})"
            )
        if ring_bins < 16:
            raise SimulationError(f"ring_bins must be >= 16, got {ring_bins}")

        self.config = config
        self.crash_grace = float(crash_grace)
        self.dt = float(dt)
        self.n_hosts = n
        self._seeds = seed_arr.astype(np.int64)
        self._rng = FleetRng(self._seeds)
        self._collect = bool(collect_traces)
        self._B = int(ring_bins)
        self._sample_every = int(round(se))

        w = config.workload
        self._S = w.n_sources
        f = config.faults

        # -- memory-manager state (mirrors MemoryManager) -------------------
        self.total_pages = config.total_pages
        self.commit_limit_pages = config.commit_limit_bytes // PAGE_SIZE
        self.os_resident_pages = int(self.total_pages * 0.18)
        self._pool_baseline = int(config.nonpaged_pool_bytes * 0.25)
        self._pf_capacity = config.pagefile_bytes // PAGE_SIZE

        z = lambda dtype=np.int64: np.zeros(n, dtype=dtype)
        self.resident = z()
        self.pagefile = z()
        self.pinned = z()
        self.pool_used = np.full(n, float(self._pool_baseline))
        self.frag_lost = z(np.float64)
        self.cum_out = z()
        self.cum_in = z()
        self.cum_faults = z()
        self.cum_alloc_failures = z()
        self.cum_allocated = z()
        self.cum_freed = z()

        # -- crash bookkeeping ---------------------------------------------
        self.active = np.ones(n, dtype=bool)
        self.first_failure = np.full(n, np.nan)
        self.crash_time = np.full(n, np.nan)
        self.crash_reason = z(np.int8)
        self._rejuvenations: List[List[float]] = [[] for _ in range(n)]

        # -- workload state -------------------------------------------------
        u0 = self._rng.uniforms("onoff.init", 0, lanes=self._S)
        self.src_on = np.zeros((n, self._S), dtype=bool)
        self.src_next = u0 * w.mean_off  # absolute time of next toggle
        self._release_ring = np.zeros((n, self._B), dtype=np.int64)
        self._touch_ring = np.zeros((n, self._B), dtype=np.int64)

        self._batch = batch_job
        if batch_job is not None:
            period, pages, run_time = batch_job
            if period <= 0 or pages <= 0 or run_time <= 0:
                raise SimulationError("batch_job period, pages and run_time must be positive")
            ub = self._rng.uniforms("batch.init", 0)
            self._batch_next = ub * float(period)
        else:
            self._batch_next = None

        # -- preload (identical to Machine: ~90% of steady state) ------------
        duty = w.mean_on / (w.mean_on + w.mean_off)
        steady = int(
            w.n_sources * duty * w.on_rate_pages * w.hold_time
            + w.session_rate * w.session_pages_mean * w.session_lifetime
        )
        self._preload_pages = int(0.9 * steady)
        self._preload_enabled = np.ones(n, dtype=bool)
        self._preload_map: Dict[int, int] = {}
        chunks = 20
        span = 2.0 * max(w.hold_time, w.session_lifetime)
        if self._preload_pages > 0:
            chunk = self._preload_pages // chunks
            remainder = self._preload_pages - chunk * chunks
            for i in range(chunks):
                pages = chunk + (remainder if i == chunks - 1 else 0)
                if pages <= 0:
                    continue
                when = (i + 1) * span / chunks
                k = max(1, int(np.ceil(when / dt - 1e-9)))
                self._preload_map[k] = self._preload_map.get(k, 0) + pages

        # -- sampler state --------------------------------------------------
        t_end = config.max_run_seconds
        self._t_end = float(t_end)
        self._T = int(np.floor(t_end / dt + 1e-9))
        self._n_slots = self._T // self._sample_every
        self._last_io = z()
        self._last_faults = z()
        self._sample_grid = (
            np.arange(1, self._n_slots + 1, dtype=np.float64)
            * self._sample_every * dt
        )
        # Sample slots, grown as they are written (see _grow_traces):
        # most hosts crash long before the time budget runs out.
        self._traces = np.zeros((n, 0, len(COUNTER_NAMES)))
        self._n_samples = 0  # telemetry: host-samples recorded

        self._tick = 0  # last completed tick index
        self._now = 0.0
        self._host_ticks = 0
        self._pool_next = _POOL_DRIP_PERIOD

        # Per-tick draws, one block of ticks at a time (see _draws).
        self._strides = self._stream_strides()
        self._block_ticks = self._rng.block_ticks(sum(self._strides.values()))
        self._blk: Dict[str, np.ndarray] = {}
        self._blk_lo = self._blk_hi = 0

        # Precompute fault/workload scalars.
        self._leak_frac = f.heap_leak_fraction
        self._pool_rate = f.pool_leak_rate
        self._pool_cv = f.pool_leak_burst_cv
        self._frag_rate = f.fragmentation_rate
        self._onset = f.fault_onset_time
        self._sess_mu = float(np.log(w.session_pages_mean) - 0.5)

        if self._preload_pages > 0:
            self._allocate_aggregate(
                np.full(n, self._preload_pages, dtype=np.int64), k=0
            )
            if np.isnan(self.first_failure).sum() != n:
                raise SimulationError(
                    "preload exceeds memory; workload steady state does not fit "
                    "this machine configuration"
                )

    # -- per-tick draws -------------------------------------------------------

    def _stream_strides(self) -> Dict[str, int]:
        """Counters per tick of each per-tick stream this fleet draws: lane
        ``j`` of tick ``k`` on stream ``s`` is counter ``k * stride + j``.
        Streams the configuration never reads are left out."""
        S = self._S
        f = self.config.faults
        strides = {"onoff": S, "burst": 3 * S, "hold": S, "sess": 8, "thrash": 2}
        if f.pool_leak_rate > 0:
            strides["pool"] = 2
        if f.fragmentation_rate > 0:
            strides["frag"] = 1
        if f.heap_leak_fraction > 0:
            strides["leak"] = 4
        if self._batch is not None:
            strides["batch"] = 4
        if self._collect and self.config.sample_drop_probability > 0:
            strides["sampler"] = 8
        return strides

    def _draws(self, k: int) -> Tuple[Dict[str, np.ndarray], int]:
        """The block of draws holding tick ``k``, and ``k``'s column in it.

        A block spans up to ``self._block_ticks`` ticks from ``k`` (never
        past the time budget) and holds each stream after every transform
        that depends only on the draw and run constants.  Draws are pure
        functions of the tick, so a block outlives ``advance`` calls and
        rejuvenation, and is bit-identical to drawing tick by tick.
        """
        if not self._blk_lo <= k < self._blk_hi:
            self._fill_block(k, max(1, min(self._block_ticks, self._T + 1 - k)))
        return self._blk, k - self._blk_lo

    def _fill_block(self, k: int, nt: int) -> None:
        w = self.config.workload
        S, B, dt = self._S, self._B, self.dt
        st = self._strides

        def draw(stream: str) -> np.ndarray:
            return self._rng.block(stream, k, nt, st[stream])

        def offsets(delay: np.ndarray) -> np.ndarray:
            return np.clip(np.rint(delay / dt).astype(np.int64), 1, B - 1)

        blk: Dict[str, np.ndarray] = {}
        # Pareto phase lengths of unit mean; the tick scales by the phase.
        blk["onoff"] = batch_rng.pareto_duration(draw("onoff"), w.pareto_shape, 1.0)
        u = draw("burst")
        blk["burst"] = np.maximum(batch_rng.poisson(
            w.on_rate_pages * dt, u[..., :S],
            batch_rng.box_muller(u[..., S:2 * S], u[..., 2 * S:])), 1)
        blk["hold"] = offsets(batch_rng.exponential(draw("hold"), w.hold_time))
        u = draw("sess")
        blk["sess_u"] = u[..., 0]
        pages = np.maximum(np.floor(batch_rng.lognormal(
            batch_rng.box_muller(u[..., 4], u[..., 5]), self._sess_mu, 1.0)), 8.0)
        blk["sess_pages"] = pages.astype(np.int64)
        life = batch_rng.exponential(u[..., 1], w.session_lifetime)
        blk["sess_life"] = offsets(life)
        blk["sess_touch"] = offsets(life * (0.2 + 0.6 * u[..., 2]))
        blk["thrash"] = draw("thrash")
        if "pool" in st:
            u = draw("pool")
            blk["pool"] = batch_rng.box_muller(u[..., 0], u[..., 1])
        if "frag" in st:
            blk["frag"] = draw("frag")[..., 0]
        if "leak" in st:
            u = draw("leak")
            blk["leak_u"] = u[..., 0]
            blk["leak_z"] = batch_rng.box_muller(u[..., 1], u[..., 2])
        if "batch" in st:
            blk["batch"] = draw("batch")
        if "sampler" in st:
            blk["sampler"] = (draw("sampler")[..., :len(COUNTER_NAMES)]
                              < self.config.sample_drop_probability)
        self._blk, self._blk_lo, self._blk_hi = blk, k, k + nt

    # -- derived quantities (vectorised MemoryManager views) ---------------

    @property
    def now(self) -> float:
        return self._now

    @property
    def committed(self) -> np.ndarray:
        return self.resident + self.pagefile

    def _available(self) -> np.ndarray:
        pool_pages = np.ceil(self.pool_used / PAGE_SIZE).astype(np.int64)
        free = (self.total_pages - self.os_resident_pages
                - self.resident - pool_pages)
        return np.maximum(free, 0)

    def _eff_limit(self) -> np.ndarray:
        lost = np.floor(self.frag_lost).astype(np.int64) // PAGE_SIZE
        return np.maximum(self.commit_limit_pages - lost, 0)

    # -- paging machinery ---------------------------------------------------

    def _page_out(self, req: np.ndarray) -> np.ndarray:
        room = self._pf_capacity - self.pagefile
        trimmable = (np.maximum(self.resident - self.pinned, 0) * 0.85).astype(np.int64)
        moved = np.maximum(np.minimum(np.minimum(req, room), trimmable), 0)
        self.resident -= moved
        self.pagefile += moved
        self.cum_out += moved
        return moved

    def _touch_in(self, req: np.ndarray) -> None:
        pages = np.minimum(req, self.pagefile)
        avail = self._available()
        shortfall = pages - avail
        need = shortfall > 0
        if need.any():
            moved = self._page_out(np.where(need, shortfall, 0))
            avail2 = self._available()
            pages = np.where(
                need, np.minimum(pages, moved + np.maximum(avail2, 0)), pages)
        pages = np.maximum(pages, 0)
        self.pagefile -= pages
        self.resident += pages
        self.cum_in += pages
        self.cum_faults += pages

    def _free(self, req: np.ndarray) -> None:
        committed = self.committed
        pages = np.minimum(np.maximum(req, 0), committed)
        cold_share = self.pagefile / np.maximum(committed, 1)
        want_cold = np.rint(pages * np.minimum(1.0, 2.0 * cold_share)).astype(np.int64)
        unpinned = np.maximum(self.resident - self.pinned, 0)
        from_pf = np.minimum(np.minimum(want_cold, self.pagefile), pages)
        from_res = pages - from_pf
        over = from_res > unpinned
        from_res = np.where(over, unpinned, from_res)
        from_pf = np.minimum(pages - from_res, self.pagefile)
        self.pagefile -= from_pf
        self.resident -= from_res
        self.cum_freed += from_pf + from_res

    def _pin(self, pages: np.ndarray) -> None:
        self.pinned += pages
        deficit = self.pinned - self.resident
        need = deficit > 0
        if need.any():
            self._touch_in(np.where(need, deficit, 0))
            deficit = np.maximum(self.pinned - self.resident, 0)
            moved = np.minimum(deficit, self.pagefile)
            self.pagefile -= moved
            self.resident += moved
            self._page_out(moved)

    def _maybe_trim(self) -> None:
        frac = self._available() / self.total_pages
        low = frac < self.config.trim_threshold
        if low.any():
            target = (self.resident * self.config.trim_aggressiveness).astype(np.int64)
            self._page_out(np.where(low, target, 0))

    def _thrash(self, alloc_pages: np.ndarray, k: int) -> None:
        frac = self._available() / self.total_pages
        threshold = self.config.thrash_threshold
        hot = (frac < threshold) & (alloc_pages > 0) & self.active
        if not hot.any():
            return
        severity = np.where(hot, (threshold - frac) / threshold, 0.0)
        blk, j = self._draws(k)
        u = blk["thrash"][:, j]
        p = np.maximum(0.02, 1.0 - 0.9 * severity)
        burst = batch_rng.geometric(u[:, 0], p)
        churn = (alloc_pages * severity * burst).astype(np.int64)
        churn = np.where(hot, churn, 0)
        moved = self._page_out(churn)
        back = (moved * (0.4 + 0.55 * u[:, 1])).astype(np.int64)
        self._touch_in(np.where(hot, back, 0))

    # -- allocation ---------------------------------------------------------

    def _allocate_aggregate(self, req: np.ndarray, *, k: int = 0) -> np.ndarray:
        """Grant as much of ``req`` as commit + physical limits allow.

        Returns the granted pages per host and records commit/memory
        failures (the object model fails whole requests; the aggregate
        model partial-fills, which keeps commit hugging the limit the
        same way many small object-model requests do).
        """
        req = np.where(self.active, req, 0)
        headroom = self._eff_limit() - self.committed
        commit_fail = req > headroom
        grant = np.minimum(req, np.maximum(headroom, 0))
        avail = self._available()
        shortfall = grant - avail
        need = shortfall > 0
        mem_fail = np.zeros_like(commit_fail)
        if need.any():
            moved = self._page_out(np.where(need, shortfall, 0))
            mem_fail = need & (moved < shortfall)
            grant = np.where(
                mem_fail, np.maximum(np.minimum(grant, avail + moved), 0), grant)
        self.resident += grant
        self.cum_allocated += grant
        self.cum_faults += grant
        failed = (commit_fail | mem_fail) & self.active
        if failed.any():
            self.cum_alloc_failures += failed
            reason = np.where(commit_fail, np.int8(1), np.int8(2))
            self._note_failure(failed, reason)
        self._maybe_trim()
        self._thrash(grant, k)
        return grant

    def _note_failure(self, failed: np.ndarray, reason: np.ndarray) -> None:
        fresh = failed & np.isnan(self.first_failure) & self.active
        if fresh.any():
            self.first_failure = np.where(fresh, self._now, self.first_failure)
            self.crash_reason = np.where(fresh, reason, self.crash_reason)

    # -- rejuvenation -------------------------------------------------------

    def rejuvenate(self, hosts: Optional[np.ndarray] = None) -> None:
        """Restart the software stack on ``hosts`` (mask or index array;
        default: every active host).  Mirrors
        :meth:`~repro.memsim.machine.Machine.rejuvenate`: all user state
        and decay cleared, a pending grace-window crash averted, pending
        releases (the epoch guard in the object model) dropped."""
        mask = np.zeros(self.n_hosts, dtype=bool)
        if hosts is None:
            mask[:] = self.active
        else:
            mask[hosts] = True
        mask &= self.active
        if not mask.any():
            return
        self.resident = np.where(mask, 0, self.resident)
        self.pagefile = np.where(mask, 0, self.pagefile)
        self.pinned = np.where(mask, 0, self.pinned)
        self.pool_used = np.where(mask, float(self._pool_baseline), self.pool_used)
        self.frag_lost = np.where(mask, 0.0, self.frag_lost)
        self.first_failure = np.where(mask, np.nan, self.first_failure)
        self.crash_reason = np.where(mask, np.int8(0), self.crash_reason)
        self._release_ring[mask] = 0
        self._touch_ring[mask] = 0
        self._preload_enabled &= ~mask
        for i in np.flatnonzero(mask):
            self._rejuvenations[i].append(self._now)
        if _obs.telemetry_enabled():
            _obs.counter("memsim.rejuvenations").inc(int(mask.sum()))

    # -- the tick loop ------------------------------------------------------

    def advance(self, until: float) -> None:
        """Advance the fleet to ``min(until, max_run_seconds)``."""
        until = min(float(until), self._t_end)
        if until < self._now:
            raise SimulationError(f"until ({until}) is before now ({self._now})")
        dt = self.dt
        w = self.config.workload
        k = self._tick
        while (k + 1) * dt <= until + 1e-9:
            k += 1
            self._tick = k
            now = k * dt
            self._now = now
            eps = 1e-9 * max(1.0, now)

            # Event horizon: hosts whose grace window expired before this
            # tick crash now (the object model's priority -10 crash event
            # fires before any same-time work, so no ops or samples here).
            doomed = self.active & (self.first_failure + self.crash_grace <= now + eps)
            if doomed.any():
                self.crash_time = np.where(
                    doomed, self.first_failure + self.crash_grace, self.crash_time)
                self.active &= ~doomed
            act = self.active
            n_act = int(act.sum())
            if n_act == 0:
                break
            self._host_ticks += n_act
            blk, j = self._draws(k)

            # 1. Pool-leak drip (period 5 s, lognormal moment-matched to
            #    the object model's gamma burst).
            drips = 0
            while self._pool_next <= now + eps:
                drips += 1
                self._pool_next += _POOL_DRIP_PERIOD
            if drips and self._pool_rate > 0 and now >= self._onset:
                mean = self._pool_rate * _POOL_DRIP_PERIOD * drips
                cv = self._pool_cv
                sigma2 = np.log(1.0 + cv * cv)
                nbytes = np.floor(batch_rng.lognormal(
                    blk["pool"][:, j], np.log(mean) - 0.5 * sigma2, np.sqrt(sigma2)))
                ok = self.pool_used + nbytes <= self.config.nonpaged_pool_bytes
                take = act & ok & (nbytes >= 1.0)
                self.pool_used = np.where(take, self.pool_used + nbytes, self.pool_used)
                pool_fail = act & ~ok & (nbytes >= 1.0)
                if pool_fail.any():
                    self.cum_alloc_failures += pool_fail
                    self._note_failure(pool_fail, np.full(self.n_hosts, 3, dtype=np.int8))

            # 2. ON/OFF phase toggles (renewal process on the absolute
            #    clock: no drift from tick quantisation).
            toggle = act[:, None] & (self.src_next <= now + eps)
            if toggle.any():
                mean = np.where(self.src_on, w.mean_off, w.mean_on)  # next phase
                dur = blk["onoff"][:, j] * mean
                self.src_next = np.where(toggle, self.src_next + dur, self.src_next)
                self.src_on = np.where(toggle, ~self.src_on, self.src_on)

            # 3. Burst demand: ON sources allocate max(1, Poisson(rate*dt)).
            on = act[:, None] & self.src_on
            burst = np.zeros((self.n_hosts, self._S), dtype=np.int64)
            if on.any():
                burst = np.where(on, blk["burst"][:, j], 0)
            burst_tot = burst.sum(axis=1)

            # 4. Session arrivals (Bernoulli-thinned Poisson process).
            arrive = act & (blk["sess_u"][:, j] < w.session_rate * dt)
            sess_pages = np.zeros(self.n_hosts, dtype=np.int64)
            if arrive.any():
                sess_pages = np.where(arrive, blk["sess_pages"][:, j], 0)

            # 5. Batch-job launches.
            batch_pages = np.zeros(self.n_hosts, dtype=np.int64)
            launch = None
            if self._batch is not None:
                period, bpages, run_time = self._batch
                launch = act & (self._batch_next <= now + eps)
                if launch.any():
                    ub = blk["batch"][:, j]
                    self._batch_next = np.where(
                        launch,
                        self._batch_next + period * (0.9 + 0.2 * ub[:, 0]),
                        self._batch_next)
                    pages = np.maximum(
                        1, (bpages * (0.8 + 0.4 * ub[:, 1])).astype(np.int64))
                    batch_pages = np.where(launch, pages, 0)

            # 6. Aggregate allocation with partial fill, then trim/thrash.
            demand = burst_tot + sess_pages + batch_pages
            grant = self._allocate_aggregate(demand, k=k)
            ratio = np.where(demand > 0, grant / np.maximum(demand, 1), 0.0)

            # 7. Fragmentation erosion on listener-visible allocations.
            if self._frag_rate > 0:
                uf = blk["frag"][:, j]
                expected = self._frag_rate * grant * PAGE_SIZE
                self.frag_lost += np.where(
                    grant > 0, batch_rng.exponential(uf, expected), 0.0)

            # 8. Schedule releases (granted pages only) on the ring buffers.
            slot = k % self._B
            if on.any():
                rel = np.floor(burst * ratio[:, None]).astype(np.int64)
                offs = blk["hold"][:, j]
                sel = on & (rel > 0)
                if sel.any():
                    hosts, _ = np.nonzero(sel)
                    np.add.at(self._release_ring,
                              (hosts, (k + offs[sel]) % self._B), rel[sel])
            if arrive.any():
                sess_rel = np.floor(sess_pages * ratio).astype(np.int64)
                offs = blk["sess_life"][:, j]
                sel = arrive & (sess_rel > 0)
                hosts = np.flatnonzero(sel)
                np.add.at(self._release_ring,
                          (hosts, (k + offs[sel]) % self._B), sess_rel[sel])
                # Mid-life touch of 25% of the working set.
                tpages = (sess_rel * 0.25).astype(np.int64)
                toffs = blk["sess_touch"][:, j]
                tsel = arrive & (tpages > 0)
                hosts = np.flatnonzero(tsel)
                np.add.at(self._touch_ring,
                          (hosts, (k + toffs[tsel]) % self._B), tpages[tsel])
            if launch is not None and launch.any():
                _, _, run_time = self._batch
                brel = np.floor(batch_pages * ratio).astype(np.int64)
                boffs = np.clip(
                    np.rint(run_time * (0.8 + 0.5 * ub[:, 2]) / dt).astype(np.int64),
                    1, self._B - 1)
                sel = launch & (brel > 0)
                hosts = np.flatnonzero(sel)
                np.add.at(self._release_ring,
                          (hosts, (k + boffs[sel]) % self._B), brel[sel])

            # 9. Due releases: leak listener pins its binomial share, the
            #    rest is freed.  Preload chunks bypass the leak listener
            #    exactly as in the object model.
            due = np.where(act, self._release_ring[:, slot], 0)
            self._release_ring[:, slot] = 0
            if (due > 0).any():
                leaked = np.zeros(self.n_hosts, dtype=np.int64)
                if self._leak_frac > 0 and now >= self._onset:
                    leaked = batch_rng.binomial(
                        due, self._leak_frac, blk["leak_u"][:, j], blk["leak_z"][:, j])
                    if (leaked > 0).any():
                        self._pin(leaked)
                self._free(due - leaked)
            pre = self._preload_map.get(k)
            if pre and self._preload_enabled.any():
                self._free(np.where(act & self._preload_enabled, pre, 0))

            # 10. Due mid-life touches (hard faults under pressure).
            tdue = np.where(act, self._touch_ring[:, slot], 0)
            self._touch_ring[:, slot] = 0
            if (tdue > 0).any():
                self._touch_in(tdue)

            # 11. Sample the perfmon counters on the sampling grid.
            if k % self._sample_every == 0:
                self._sample(k, act, blk, j)
        if self._now < until:
            self._now = until

    def _sample(self, k: int, act: np.ndarray,
                blk: Dict[str, np.ndarray], j: int) -> None:
        interval = self._sample_every * self.dt
        pages_io = self.cum_in + self.cum_out
        vals = np.empty((self.n_hosts, len(COUNTER_NAMES)))
        vals[:, 0] = self._available() * float(PAGE_SIZE)
        vals[:, 1] = self.committed * float(PAGE_SIZE)
        vals[:, 2] = self._eff_limit() * float(PAGE_SIZE)
        vals[:, 3] = (pages_io - self._last_io) / interval
        vals[:, 4] = (self.cum_faults - self._last_faults) / interval
        vals[:, 5] = self.pool_used
        vals[:, 6] = self.resident * float(PAGE_SIZE)
        self._last_io = np.where(act, pages_io, self._last_io)
        self._last_faults = np.where(act, self.cum_faults, self._last_faults)
        self._n_samples += int(act.sum()) * len(COUNTER_NAMES)
        if not self._collect:
            return
        if "sampler" in blk:
            vals[blk["sampler"][:, j]] = np.nan
        slot = k // self._sample_every - 1
        if slot >= self._traces.shape[1]:
            self._grow_traces(slot + 1)
        idx = np.flatnonzero(act)
        self._traces[idx, slot, :] = vals[idx]

    def _grow_traces(self, slots: int) -> None:
        """Make room for at least ``slots`` sample slots (NaN: not
        sampled), doubling up to the budget's slot count."""
        n, held, counters = self._traces.shape
        size = min(max(slots, 2 * held, _MIN_TRACE_SLOTS), self._n_slots)
        grown = np.full((n, size, counters), np.nan)
        grown[:, :held] = self._traces
        self._traces = grown

    # -- results ------------------------------------------------------------

    def run(self) -> List[RunResult]:
        """Advance to the time budget and collect per-host results."""
        _log.info("vector fleet starting", n_hosts=self.n_hosts,
                  profile=self.config.os_profile, seed=self.config.seed,
                  budget_seconds=self._t_end)
        with _obs.span("fleet-vec-run", n_hosts=self.n_hosts,
                       seed=self.config.seed):
            self.advance(self._t_end)
        self._publish_metrics()
        return self.results()

    def _finalise_crashes(self) -> None:
        pending = (self.active & ~np.isnan(self.first_failure)
                   & (self.first_failure + self.crash_grace <= self._now + 1e-9))
        if np.any(pending):
            self.crash_time = np.where(
                pending, self.first_failure + self.crash_grace, self.crash_time)
            self.active &= ~pending

    def results(self) -> List[RunResult]:
        """Per-host :class:`~repro.memsim.machine.RunResult` list, in host
        order, with the same metadata keys as the object engine."""
        self._finalise_crashes()
        out: List[RunResult] = []
        for i in range(self.n_hosts):
            crashed = not np.isnan(self.crash_time[i])
            duration = float(self.crash_time[i]) if crashed else self._now
            metadata: Dict[str, float | str] = {
                "os_profile": self.config.os_profile,
                "seed": float(self._seeds[i]),
                "duration": duration,
                "engine": "vector",
            }
            if self._rejuvenations[i]:
                metadata["n_rejuvenations"] = float(len(self._rejuvenations[i]))
            reason = _REASONS.get(int(self.crash_reason[i]))
            if crashed:
                metadata["crash_time"] = float(self.crash_time[i])
                metadata["crash_reason"] = reason or "unknown"
                metadata["first_failure_time"] = float(self.first_failure[i])
            bundle = TraceBundle(metadata=metadata)
            if self._collect:
                grid = self._sample_grid[:self._traces.shape[1]]
                for c, name in enumerate(COUNTER_NAMES):
                    col = self._traces[i, :, c]
                    valid = ~np.isnan(col)
                    if not np.any(valid):
                        continue
                    bundle.add(TimeSeries(
                        times=grid[valid], values=col[valid],
                        name=name, units=_COUNTER_UNITS[name]))
            out.append(RunResult(
                bundle=bundle,
                crashed=crashed,
                crash_time=float(self.crash_time[i]) if crashed else None,
                crash_reason=reason if crashed else None,
                duration=duration,
                rejuvenation_times=tuple(self._rejuvenations[i]),
            ))
        return out

    def _publish_metrics(self) -> None:
        if not _obs.telemetry_enabled():
            return
        self._finalise_crashes()
        _obs.counter("memsim_vec.hosts").inc(self.n_hosts)
        _obs.counter("memsim_vec.host_ticks").inc(self._host_ticks)
        _obs.counter("memsim_vec.crashes").inc(
            int((~np.isnan(self.crash_time)).sum()))
        _obs.counter("memsim_vec.samples_collected").inc(self._n_samples)
        _obs.counter("memsim_vec.allocated_pages").inc(int(self.cum_allocated.sum()))
        _obs.counter("memsim_vec.freed_pages").inc(int(self.cum_freed.sum()))
        _obs.counter("memsim_vec.page_faults").inc(int(self.cum_faults.sum()))
        _obs.counter("memsim_vec.alloc_failures").inc(
            int(self.cum_alloc_failures.sum()))
        _obs.gauge("memsim_vec.leaked_pinned_pages").set(int(self.pinned.sum()))
        _obs.gauge("memsim_vec.survivors").set(int(self.active.sum()))
        _obs.histogram("memsim_vec.fleet_sim_seconds").observe(self._now)

    def check_invariants(self) -> None:
        """Vectorised analogue of ``MemoryManager.check_invariants``."""
        if np.any(self.resident < 0) or np.any(self.pagefile < 0):
            raise SimulationError("negative page accounting")
        if np.any(self.pinned < 0) or np.any(self.pinned > self.resident):
            raise SimulationError("pinned pages exceed resident")
        if np.any(self.committed > self.commit_limit_pages):
            raise SimulationError("commit exceeds hard limit")
        if np.any(self.pool_used > self.config.nonpaged_pool_bytes):
            raise SimulationError("nonpaged pool over capacity")
        if np.any(self.pagefile > self._pf_capacity):
            raise SimulationError("paging file over capacity")


# -- fleet drivers ----------------------------------------------------------


def _vector_fleet_unit(unit) -> List[RunResult]:
    """Pool entry point: one seed shard of a vector fleet."""
    config, seeds, crash_grace, dt, collect_traces, batch_job = unit
    fleet = VectorFleet(
        config, seeds=seeds, crash_grace=crash_grace, dt=dt,
        collect_traces=collect_traces, batch_job=batch_job)
    return fleet.run()


def run_fleet_vector(
    base_config: MachineConfig,
    n_runs: int,
    *,
    crash_grace: float = 120.0,
    workers: int = 1,
    dt: float = 1.0,
    collect_traces: bool = True,
    batch_job: Optional[Tuple[float, int, float]] = None,
) -> List[RunResult]:
    """Vector-engine drop-in for :func:`~repro.memsim.machine.run_fleet`.

    Host ``i`` uses seed ``base_config.seed + i``.  ``workers > 1``
    shards hosts across a process pool; counter-based seeding makes the
    result list bit-identical for every worker count (and identical to
    simulating each host alone).
    """
    if n_runs < 1:
        raise SimulationError(f"n_runs must be >= 1, got {n_runs}")
    from ..perf.pool import parallel_map

    seeds = [int(base_config.seed) + i for i in range(n_runs)]
    shards = max(1, min(int(workers), n_runs))
    bounds = np.linspace(0, n_runs, shards + 1).astype(int)
    units = [
        (base_config, tuple(seeds[a:b]), crash_grace, dt, collect_traces, batch_job)
        for a, b in zip(bounds[:-1], bounds[1:]) if b > a
    ]
    shard_results = parallel_map(_vector_fleet_unit, units, workers=workers,
                                 label="fleet-vec-worker")
    return [r for shard in shard_results for r in shard]


def build_scenario_fleet(
    name: str,
    n_hosts: int,
    *,
    seed: int = 0,
    profile: str = "nt4",
    max_run_seconds: float = 80_000.0,
    fault_factor: float = 1.0,
    config_overrides: Optional[dict] = None,
    crash_grace: float = 120.0,
    dt: float = 1.0,
    collect_traces: bool = True,
) -> VectorFleet:
    """Vector-engine counterpart of
    :func:`~repro.memsim.scenarios.build_scenario`: same named scenario,
    whole fleet at once (including the scenario's batch job)."""
    from .scenarios import scenario_batch_job, scenario_config

    config = scenario_config(
        name, seed=seed, profile=profile, max_run_seconds=max_run_seconds,
        fault_factor=fault_factor, config_overrides=config_overrides)
    return VectorFleet(
        config, n_hosts, crash_grace=crash_grace, dt=dt,
        collect_traces=collect_traces, batch_job=scenario_batch_job(name))
