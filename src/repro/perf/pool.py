"""Process-pool fan-out with telemetry capture, ordered reassembly, and
crash tolerance.

:func:`parallel_map` is the one parallel primitive the library uses: it
maps a picklable function over a list of work units across worker
processes and returns results **in input order**, so callers composing
deterministic pipelines (campaign cells, fleet runs) get output that is
bit-identical to the sequential loop they replaced.

Resilience (:func:`resilient_map`, which :func:`parallel_map` wraps):
work units get a per-unit wall-clock **timeout** and a bounded number of
**retries with exponential backoff and deterministic jitter**.  A hung
worker is SIGKILLed with its pool and the unfinished units resubmitted
to a fresh pool; a worker that dies mid-unit (OOM killer, SIGKILL,
``os._exit``) likewise only costs the units in flight.  Because every
unit is a pure function of its work item (per-unit seeding, no hidden
state), a unit that succeeds on attempt 3 returns bit-identical output
to one that succeeds on attempt 1 — retries never perturb results.
``perf.pool.retries`` and ``perf.pool.timeouts`` counters record how
hard the pool had to work.

Telemetry survives the process boundary: each work unit runs under a
fresh worker-side :func:`~repro.obs.session.telemetry_session`, and the
resulting metrics snapshot, span records and event log travel back with
the result and are merged into the parent session
(:meth:`~repro.obs.metrics.MetricsRegistry.merge_snapshot`,
:meth:`~repro.obs.spans.SpanCollector.ingest`).  Only the successful
attempt's telemetry is merged, so retried units contribute exactly once.

Degradation is graceful and logged, never silent: ``workers=1``, a
single work unit, unpicklable inputs, or a pool that cannot even start
all fall back to the in-process sequential loop.  Exceptions raised *by
the work function itself* propagate to the caller either way (unless
listed in ``retry_exceptions``).
"""

from __future__ import annotations

import os
import pickle
import random
import time
import weakref
import zlib
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from ..exceptions import ValidationError
from ..obs import ops as _ops
from ..obs import session as _obs
from ..obs.logger import get_logger

_log = get_logger("perf.pool")

T = TypeVar("T")
R = TypeVar("R")

__all__ = [
    "UnitOutcome",
    "backoff_delay",
    "resolve_workers",
    "parallel_map",
    "resilient_map",
    "pool_worker_pids",
]

# Live executors, so the resource sampler can find worker pids without
# the pool threading itself through every call signature.  Weak: a pool
# that is garbage-collected (or shut down and dropped) vanishes here too.
_ACTIVE_POOLS: "weakref.WeakSet[ProcessPoolExecutor]" = weakref.WeakSet()


def pool_worker_pids() -> List[int]:
    """Pids of every live worker process across active pools, sorted.

    Best-effort introspection for telemetry (the resource sampler);
    pools appear when :func:`resilient_map` starts one and disappear on
    shutdown/garbage collection.
    """
    pids = set()
    for pool in list(_ACTIVE_POOLS):
        processes = getattr(pool, "_processes", None) or {}
        for pid, proc in list(processes.items()):
            try:
                if proc.is_alive():
                    pids.add(pid)
            except Exception:  # pragma: no cover - mid-shutdown races
                pass
    return sorted(pids)


def resolve_workers(workers: Optional[int] = None) -> int:
    """Normalise a worker-count request; ``None`` means every core."""
    if workers is None:
        workers = os.cpu_count() or 1
    workers = int(workers)
    if workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")
    return workers


def backoff_delay(
    attempt: int,
    *,
    base: float = 0.5,
    cap: float = 30.0,
    key: str = "",
) -> float:
    """Exponential backoff with deterministic jitter for one retry.

    ``attempt`` is the attempt that just failed (1-based).  The delay is
    ``min(cap, base * 2**(attempt-1))`` scaled by a jitter factor in
    ``[0.5, 1.0)`` derived from ``crc32(key:attempt)`` — deterministic
    across runs (no salted hashing), but decorrelated across units, so
    a fleet of failed units does not thunder back in lockstep.
    """
    if attempt < 1:
        raise ValidationError(f"attempt must be >= 1, got {attempt}")
    raw = min(float(cap), float(base) * (2.0 ** (attempt - 1)))
    seed = zlib.crc32(f"{key}:{attempt}".encode())
    jitter = 0.5 + 0.5 * random.Random(seed).random()
    return raw * jitter


@dataclass
class UnitOutcome:
    """What happened to one work unit after all attempts."""

    index: int
    result: object = None
    error: Optional[str] = None
    error_kind: Optional[str] = None  # "timeout" | "worker-death" | "exception"
    attempts: int = 0

    @property
    def ok(self) -> bool:
        """True when the unit produced a result."""
        return self.error is None


def _run_unit(payload):
    """Execute one work unit inside a worker process.

    Runs the unit under a fresh telemetry session when the parent was
    collecting, so the worker's counters/spans/events can be shipped
    home with the result instead of dying with the process.
    ``pre_unit`` (when given) runs first — it is the fault-injection
    hook :mod:`repro.testing.chaos` uses to kill/hang/fail units.

    ``trace`` (a :meth:`TraceContext.to_dict` payload, or None) is the
    unit's place in the campaign's cross-process trace; it rides home in
    the telemetry's ``context`` alongside the worker's pid so the parent
    can stitch and tag what it merges.
    """
    fn, item, capture, pre_unit, index, attempt, trace = payload
    if pre_unit is not None:
        pre_unit(index, attempt)
    if not capture:
        return fn(item), None
    with _obs.telemetry_session() as session:
        if trace is not None:
            session.trace_id = trace.get("trace_id")
        result = fn(item)
        telemetry = {
            "metrics": session.metrics.snapshot(),
            "spans": session.spans.to_list(),
            "events": list(session.events),
            "context": {
                **(trace or {}),
                "pid": os.getpid(),
                "index": index,
                "attempt": attempt,
            },
        }
    return result, telemetry


def _merge_worker_telemetry(telemetries, *, prefix: str) -> None:
    """Fold worker-side telemetry into the parent session.

    Spans nest under the parent's *currently open* span path plus the
    pool label (so a campaign's worker spans land under
    ``campaign-pool/campaign-worker/...``, one coherent tree), and every
    adopted span is tagged with the worker's pid, its first-seen ordinal
    in this merge, and the unit's trace/span ids.  Aggregate metrics
    merge exactly as before (counters add, gauges last-write/max);
    additionally each worker's *counters* are mirrored under
    ``{label}.w{ordinal}.{name}`` (with a ``{label}.w{ordinal}.pid``
    gauge) so per-worker contributions stay distinguishable after the
    merge.
    """
    session = _obs.current_session()
    if not session.enabled:
        return
    base = session.spans.current_path
    span_prefix = f"{base}/{prefix}" if base else prefix
    ordinals: Dict[int, int] = {}
    merged_events = False
    for telemetry in telemetries:
        if telemetry is None:
            continue
        context = telemetry.get("context") or {}
        pid = context.get("pid")
        ordinal = None
        if pid is not None:
            ordinal = ordinals.setdefault(pid, len(ordinals))
        session.metrics.merge_snapshot(telemetry["metrics"])
        if ordinal is not None:
            worker_ns = f"{prefix}.w{ordinal}"
            session.metrics.gauge(f"{worker_ns}.pid").set(pid)
            for name, state in telemetry["metrics"].items():
                if state.get("type") == "counter":
                    session.metrics.counter(f"{worker_ns}.{name}").inc(
                        float(state.get("value") or 0.0))
        extra_attrs: Dict[str, object] = {}
        if pid is not None:
            extra_attrs["worker_pid"] = pid
            extra_attrs["worker_ordinal"] = ordinal
        for key in ("trace_id", "span_id", "parent_span_id"):
            if context.get(key) is not None:
                extra_attrs[key] = context[key]
        session.spans.ingest(telemetry["spans"], prefix=span_prefix,
                             extra_attrs=extra_attrs or None)
        if telemetry["events"]:
            session.events.extend(telemetry["events"])
            merged_events = True
    if merged_events:
        session.events.sort(key=lambda e: e.get("wall_time", 0.0))


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down hard: SIGKILL its workers, then shut it down.

    Used after a per-unit timeout — a hung worker never returns, so a
    polite ``shutdown(wait=True)`` would hang the parent with it.
    """
    for proc in list(getattr(pool, "_processes", {}).values()):
        try:
            proc.kill()
        except Exception:  # pragma: no cover - already-dead process races
            pass
    try:
        pool.shutdown(wait=True, cancel_futures=True)
    except Exception:  # pragma: no cover - broken-pool shutdown races
        pass


def _mark_retry(outcome: UnitOutcome, *, retries: int, backoff_base: float,
                backoff_cap: float, label: str) -> Optional[float]:
    """Log/count one failed attempt; return the backoff delay if the
    unit has retry budget left, else ``None`` (permanent failure)."""
    if outcome.attempts > retries:
        _ops.flight_note("unit", index=outcome.index, status="failed",
                         kind=outcome.error_kind, attempts=outcome.attempts,
                         error=outcome.error)
        return None
    _obs.counter("perf.pool.retries").inc()
    delay = backoff_delay(outcome.attempts, base=backoff_base,
                          cap=backoff_cap, key=f"{label}:{outcome.index}")
    _ops.flight_note("retry", index=outcome.index, attempt=outcome.attempts,
                     kind=outcome.error_kind, delay_s=round(delay, 3),
                     error=outcome.error)
    _log.warning("unit failed; retrying", unit=outcome.index,
                 attempt=outcome.attempts, kind=outcome.error_kind,
                 delay_s=round(delay, 3), error=outcome.error)
    return delay


def _sequential_attempts(
    fn,
    pending: List[Tuple[int, object]],
    outcomes: List[UnitOutcome],
    *,
    capture: bool,
    pre_unit,
    on_result,
    retries: int,
    retry_exceptions: tuple,
    backoff_base: float,
    backoff_cap: float,
    label: str,
    trace=None,
) -> None:
    """In-process execution with the same retry/backoff semantics.

    Per-unit wall-clock timeouts are not enforceable in-process (there
    is no worker to kill), so ``timeout`` does not apply here; that is
    documented on :func:`resilient_map`.  Exceptions outside
    ``retry_exceptions`` propagate, as the plain sequential loop always
    did.
    """
    telemetries = []
    try:
        for index, item in pending:
            outcome = outcomes[index]
            unit_trace = (None if trace is None
                          else trace.child(f"{label}:{index}").to_dict())
            while True:
                outcome.attempts += 1
                try:
                    result, telemetry = _run_unit(
                        (fn, item, capture, pre_unit, index, outcome.attempts,
                         unit_trace))
                except retry_exceptions as exc:
                    outcome.error = f"{type(exc).__name__}: {exc}"
                    outcome.error_kind = "exception"
                    delay = _mark_retry(outcome, retries=retries,
                                        backoff_base=backoff_base,
                                        backoff_cap=backoff_cap, label=label)
                    if delay is None:
                        break
                    time.sleep(delay)
                    continue
                outcome.result = result
                outcome.error = None
                outcome.error_kind = None
                telemetries.append(telemetry)
                _ops.flight_note("unit", index=index, status="ok",
                                 attempts=outcome.attempts)
                if on_result is not None:
                    on_result(index, result)
                break
    finally:
        _merge_worker_telemetry(telemetries, prefix=label)


def resilient_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    *,
    workers: Optional[int] = None,
    label: str = "worker",
    timeout: Optional[float] = None,
    retries: int = 0,
    backoff_base: float = 0.5,
    backoff_cap: float = 30.0,
    retry_exceptions: tuple = (),
    pre_unit: Optional[Callable[[int, int], None]] = None,
    on_result: Optional[Callable[[int, R], None]] = None,
) -> List[UnitOutcome]:
    """Map ``fn`` over ``items`` with timeouts and retries, reporting
    per-unit outcomes instead of raising for infrastructure failures.

    Returns one :class:`UnitOutcome` per item, in input order.  A unit
    fails an attempt when it times out (``timeout`` seconds of wall
    clock, measured from when the parent starts waiting on it), when its
    worker process dies, or when ``fn`` raises an exception listed in
    ``retry_exceptions``; failed attempts are retried up to ``retries``
    times with exponential backoff (``backoff_base``/``backoff_cap``)
    and deterministic per-unit jitter (:func:`backoff_delay`).  Units
    that exhaust the budget come back with ``ok=False`` and an
    ``error_kind`` of ``"timeout"``, ``"worker-death"`` or
    ``"exception"``.

    An exception *not* listed in ``retry_exceptions`` is a bug in the
    work function, not an infrastructure failure: the current round is
    drained (so ``on_result`` checkpoints for completed units still
    land), then the exception propagates.

    ``pre_unit(index, attempt)`` runs inside the worker before ``fn`` —
    the chaos harness's injection point.  ``on_result(index, result)``
    runs in the parent as each unit completes successfully — the
    campaign journal's checkpoint hook.

    Notes
    -----
    * Retried units are bit-identical to first-try units because ``fn``
      is a pure function of its item; the retry machinery never feeds
      anything else in.
    * With ``workers=1`` (or one item, or unpicklable inputs) the whole
      map runs in-process; ``timeout`` cannot be enforced there, but
      ``retries``/``retry_exceptions`` still apply.
    * After a timeout the pool's workers are SIGKILLed (a hung worker
      never returns) and surviving units resubmitted to a fresh pool.
      A pool break retries *every* unfinished unit's attempt counter —
      the pool cannot tell the killer from its victims.
    * Each call runs under a cross-process trace
      (:mod:`repro.obs.ops`): an enclosing :func:`~repro.obs.ops.trace_scope`
      is reused, otherwise a fresh trace is minted for the map.  Per-unit
      child contexts ride into workers and come back stitched onto the
      merged telemetry.  When a flight recorder is installed, the buffer
      is dumped on timeout-kill, worker death, unhandled error, or
      permanent unit failure.
    """
    trace = _ops.current_trace()
    if trace is not None:
        return _resilient_map(
            fn, items, trace, workers=workers, label=label, timeout=timeout,
            retries=retries, backoff_base=backoff_base,
            backoff_cap=backoff_cap, retry_exceptions=retry_exceptions,
            pre_unit=pre_unit, on_result=on_result)
    with _ops.trace_scope(_ops.new_trace(label)) as trace:
        return _resilient_map(
            fn, items, trace, workers=workers, label=label, timeout=timeout,
            retries=retries, backoff_base=backoff_base,
            backoff_cap=backoff_cap, retry_exceptions=retry_exceptions,
            pre_unit=pre_unit, on_result=on_result)


def _resilient_map(
    fn,
    items,
    trace,
    *,
    workers,
    label,
    timeout,
    retries,
    backoff_base,
    backoff_cap,
    retry_exceptions,
    pre_unit,
    on_result,
) -> List[UnitOutcome]:
    items = list(items)
    workers = resolve_workers(workers)
    retry_exceptions = tuple(retry_exceptions)
    if timeout is not None and timeout <= 0:
        raise ValidationError(f"timeout must be positive, got {timeout}")
    if retries < 0:
        raise ValidationError(f"retries must be >= 0, got {retries}")

    outcomes = [UnitOutcome(index=i) for i in range(len(items))]
    pending: List[Tuple[int, object]] = list(enumerate(items))
    usable = min(workers, len(items))

    if usable > 1:
        try:
            pickle.dumps(fn)
            pickle.dumps(items)
            pickle.dumps(pre_unit)
        except Exception as exc:  # pickling errors are wildly heterogeneous
            _log.warning(
                "parallel map falling back to sequential: inputs not picklable",
                error=f"{type(exc).__name__}: {exc}",
            )
            _obs.counter("perf.pool.fallbacks").inc()
            usable = 1

    capture = _obs.telemetry_enabled()
    if usable <= 1:
        try:
            _sequential_attempts(
                fn, pending, outcomes, capture=capture, pre_unit=pre_unit,
                on_result=on_result, retries=retries,
                retry_exceptions=retry_exceptions, backoff_base=backoff_base,
                backoff_cap=backoff_cap, label=label, trace=trace)
        except Exception as exc:
            _ops.flight_dump("unhandled-error", label=label,
                             error=f"{type(exc).__name__}: {exc}")
            raise
        _dump_on_failures(outcomes, label=label)
        return outcomes

    telemetries = []
    fatal: Optional[BaseException] = None
    pool_round = 0
    while pending and fatal is None:
        pool_round += 1
        # Once per pool round, not per unit — timeline/flight observers
        # see round boundaries without any hot-path cost.
        _ops.flight_note("round", round=pool_round, pending=len(pending),
                         workers=min(usable, len(pending)), label=label)
        pool: Optional[ProcessPoolExecutor] = None
        futures: List[Tuple[int, object, object]] = []
        try:
            pool = ProcessPoolExecutor(max_workers=min(usable, len(pending)))
            _ACTIVE_POOLS.add(pool)
            for index, item in pending:
                attempt = outcomes[index].attempts + 1
                unit_trace = (None if trace is None
                              else trace.child(f"{label}:{index}").to_dict())
                futures.append((index, item, pool.submit(
                    _run_unit,
                    (fn, item, capture, pre_unit, index, attempt,
                     unit_trace))))
        except (BrokenProcessPool, OSError, pickle.PicklingError) as exc:
            # The pool could not even start: an environmental problem a
            # retry will not fix.  Run what is left in-process instead.
            _log.warning(
                "parallel map falling back to sequential: pool failed to start",
                error=f"{type(exc).__name__}: {exc}",
            )
            _obs.counter("perf.pool.fallbacks").inc()
            if pool is not None:
                _kill_pool(pool)
            _merge_worker_telemetry(telemetries, prefix=label)
            _sequential_attempts(
                fn, pending, outcomes, capture=capture, pre_unit=pre_unit,
                on_result=on_result, retries=retries,
                retry_exceptions=retry_exceptions, backoff_base=backoff_base,
                backoff_cap=backoff_cap, label=label, trace=trace)
            _dump_on_failures(outcomes, label=label)
            return outcomes

        tainted = False
        failed_round: List[Tuple[int, object]] = []
        for index, item, future in futures:
            outcome = outcomes[index]
            outcome.attempts += 1
            try:
                result, telemetry = future.result(timeout=timeout)
            except FutureTimeoutError:
                future.cancel()
                tainted = True
                _obs.counter("perf.pool.timeouts").inc()
                outcome.error = f"unit exceeded {timeout}s wall-clock timeout"
                outcome.error_kind = "timeout"
                failed_round.append((index, item))
                continue
            except BrokenProcessPool as exc:
                tainted = True
                outcome.error = f"worker process died: {exc}"
                outcome.error_kind = "worker-death"
                failed_round.append((index, item))
                continue
            except retry_exceptions as exc:
                outcome.error = f"{type(exc).__name__}: {exc}"
                outcome.error_kind = "exception"
                failed_round.append((index, item))
                continue
            except Exception as exc:
                # A real bug in the work function: drain the round so
                # completed units checkpoint, then let it propagate.
                outcome.error = f"{type(exc).__name__}: {exc}"
                outcome.error_kind = "exception"
                if fatal is None:
                    fatal = exc
                continue
            outcome.result = result
            outcome.error = None
            outcome.error_kind = None
            telemetries.append(telemetry)
            _ops.flight_note("unit", index=index, status="ok",
                             attempts=outcome.attempts)
            if on_result is not None:
                on_result(index, result)

        if tainted:
            _kill_pool(pool)
            # Buffer the failure context before dumping, so the artifact
            # is self-describing even when the round died before any
            # other record reached the recorder.
            for index, _item in sorted(failed_round):
                _ops.flight_note("unit", index=index, status="error",
                                 attempts=outcomes[index].attempts,
                                 error_kind=outcomes[index].error_kind,
                                 error=outcomes[index].error)
            kinds = {outcomes[i].error_kind for i, _ in failed_round}
            _ops.flight_dump(
                "timeout-kill" if "timeout" in kinds else "worker-death",
                label=label,
                failed_units=sorted(i for i, _ in failed_round))
        else:
            pool.shutdown(wait=True)

        pending = []
        delays = []
        for index, item in failed_round:
            delay = _mark_retry(outcomes[index], retries=retries,
                                backoff_base=backoff_base,
                                backoff_cap=backoff_cap, label=label)
            if delay is not None:
                pending.append((index, item))
                delays.append(delay)
        if pending and fatal is None:
            time.sleep(max(delays))

    _obs.gauge("perf.pool.workers").set(usable)
    _obs.counter("perf.pool.units").inc(len(items))
    _merge_worker_telemetry(telemetries, prefix=label)
    if fatal is not None:
        _ops.flight_dump("unhandled-error", label=label,
                         error=f"{type(fatal).__name__}: {fatal}")
        raise fatal
    _dump_on_failures(outcomes, label=label)
    return outcomes


def _dump_on_failures(outcomes: List[UnitOutcome], *, label: str) -> None:
    """Dump the flight recorder once when units failed permanently."""
    failed = [o.index for o in outcomes if not o.ok]
    if failed:
        _ops.flight_dump("unit-failures", label=label, failed_units=failed)


def parallel_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    *,
    workers: Optional[int] = None,
    label: str = "worker",
) -> List[R]:
    """Map ``fn`` over ``items`` across processes, preserving input order.

    Parameters
    ----------
    fn:
        Module-level (picklable) function of one work unit.  Exceptions
        it raises propagate to the caller.
    items:
        Work units; each must be picklable for the parallel path.
    workers:
        Process count; ``None`` uses every core, ``1`` runs the plain
        sequential loop in-process.
    label:
        Span-path prefix for telemetry imported from workers.

    Returns
    -------
    ``[fn(item) for item in items]`` — exactly, whichever path ran.

    Notes
    -----
    Falls back to the sequential loop (with a logged warning and a
    ``perf.pool.fallbacks`` counter increment) when the inputs do not
    pickle or the pool cannot start.  With no retry budget and no
    timeout, the only failure a unit can suffer is its worker's death;
    those units are then recomputed in-process, which yields the
    identical thing.  Callers that want timeouts, retries or partial
    results use :func:`resilient_map` directly.
    """
    outcomes = resilient_map(fn, items, workers=workers, label=label)
    failed = [o for o in outcomes if not o.ok]
    if failed:
        _log.warning(
            "parallel map falling back to sequential: pool broke mid-run",
            failed_units=len(failed),
        )
        _obs.counter("perf.pool.fallbacks").inc()
        items = list(items)
        _sequential_attempts(
            fn, [(o.index, items[o.index]) for o in failed], outcomes,
            capture=_obs.telemetry_enabled(), pre_unit=None, on_result=None,
            retries=0, retry_exceptions=(), backoff_base=0.5,
            backoff_cap=30.0, label=label)
    return [o.result for o in outcomes]
