"""Per-layer tracing for the benchmark, applied from outside the program.

The benchmark times each layer by wrapping that layer's public entry
points (see ``TARGETS``).  Nothing under ``src/`` changes: the wrappers
replace module and class attributes at run time, in every loaded
``repro`` module that bound the original object, so call sites that did
``from .holder import wavelet_holder`` are covered too.

Accounting happens as calls return.  A layer's *self time* is its wall
time minus the wall time of the traced calls made inside it, so nested
layers (``analyze_counter`` -> ``wavelet_holder``) never count twice.
Call and unit counts only count the outermost call of a layer.

Pool workers are covered because :func:`install` runs before the pool
forks, and each campaign work unit is wrapped in :class:`TimedUnit`,
which ships the worker's share of the accounting home inside the span
capture that :mod:`repro.perf.pool` already merges into the parent's
telemetry session.  Tracing therefore needs that session enabled; the
benchmark only does so for traced iterations.

Two layers are called once per counter sample (``core.online`` and
``obs.live``); they are accounted in totals only, never as span
records, so a traced replay keeps memory flat.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import sys
import time
from typing import Callable, Dict, List, Optional

perf_counter = time.perf_counter

#: Layers in report order.  ``perf.pool`` has two kinds of frame: the
#: campaign driver (``execute_campaign``) and the fan-out
#: (``resilient_map``).
LAYERS = (
    "memsim", "perf.pool.campaign", "perf.pool.map", "baselines.trend",
    "baselines.entropy", "core.holder", "core.pipeline",
    "analysis.scoreboard", "trace.read", "trace.write", "core.online",
    "obs.live",
)

#: Layers called once per sample: totals only, no span records.
HOT_LAYERS = frozenset({"core.online", "obs.live"})


#: Counter ``repro watch`` replays by default: the read layer pages it
#: in and counts its bytes.
WATCHED = "AvailableBytes"


def _vector_hosts(args, kwargs, result):
    return args[0].n_hosts


def _one(args, kwargs, result):
    return 1


def _len_first(args, kwargs, result):
    return len(args[0])


def _len_second(args, kwargs, result):
    return len(args[1])


def _watched_bytes(args, kwargs, bundle):
    if WATCHED not in bundle:
        return 0
    series = bundle[WATCHED]
    return series.times.nbytes + series.values.nbytes


def _paged_in(read_bundle: Callable) -> Callable:
    """``read_bundle`` that also reads every page of the watched counter:
    the columnar store only memory-maps its shards, so without this the
    read would happen later, inside the replay loop."""

    @functools.wraps(read_bundle)
    def read(*args, **kwargs):
        bundle = read_bundle(*args, **kwargs)
        if WATCHED in bundle:
            series = bundle[WATCHED]
            series.times.sum()
            series.values.sum()
        return bundle

    return read


#: (layer, module, attribute path, required, unit counter).  Optional
#: targets may disappear as the program evolves; the tracer wraps
#: whichever exist.
TARGETS = (
    ("memsim", "repro.memsim.fleet_vec", "VectorFleet.run", True, _vector_hosts),
    ("memsim", "repro.memsim.machine", "Machine.run", True, _one),
    ("perf.pool.campaign", "repro.analysis.campaign", "execute_campaign", True, None),
    ("baselines.trend", "repro.baselines.trend", "TrendExhaustionDetector.run", True, None),
    ("baselines.trend", "repro.baselines.trend",
     "TrendExhaustionDetector.decision_scores", True, None),
    ("baselines.entropy", "repro.baselines.entropy", "RollingEntropyDetector.run", True, None),
    ("baselines.entropy", "repro.baselines.entropy",
     "RollingEntropyDetector.decision_scores", True, None),
    ("core.holder", "repro.core.holder", "wavelet_holder", True, _len_first),
    ("core.holder", "repro.core.holder", "holder_tail", False, _len_first),
    ("core.holder", "repro.perf.sliding_cwt",
     "SlidingHolderEstimator.holder_tail", False, _len_second),
    ("core.pipeline", "repro.core.pipeline", "analyze_counter", True, None),
    ("analysis.scoreboard", "repro.analysis.scoreboard", "build_scoreboard", True, None),
    ("trace.read", "repro.trace.store", "read_bundle", True, _watched_bytes),
    ("trace.write", "repro.trace.store", "write_bundle", True, None),
    ("core.online", "repro.core.online", "OnlineAgingMonitor.update", True, None),
    ("obs.live", "repro.obs.live", "LiveWatcher.replay", True, None),
    ("obs.live", "repro.obs.live", "LiveWatcher.feed", True, None),
)

_POOL_MODULE = "repro.perf.pool"


class Tracer:
    """Accounting state for one process.

    ``totals[layer]`` is ``[self_s, calls, units]``; ``spans`` holds one
    record per traced call of a non-hot layer; ``emit_s`` holds the wall
    time of each monitor ``update`` that produced an indicator point.
    ``remote_*`` collect what pool workers shipped home, kept apart so
    the parent's own wall-time coverage can be computed.
    """

    def __init__(self) -> None:
        self.pid = os.getpid()
        self._stack: List[list] = []
        self._emitted = False
        self.totals: Dict[str, list] = {}
        self.spans: List[dict] = []
        self.emit_s: List[float] = []
        self.remote_totals: Dict[str, list] = {}
        self.remote_spans: List[dict] = []
        self.units: List[dict] = []

    # -- recording -----------------------------------------------------------

    def call(self, layer: str, fn: Callable, args, kwargs,
             count: Optional[Callable]):
        """Run ``fn`` as one traced call of ``layer``."""
        stack = self._stack
        outer = True
        for frame in stack:
            if frame[0] == layer:
                outer = False
                break
        frame = [layer, 0.0]
        stack.append(frame)
        result, ok = None, False
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            t1 = perf_counter()
            stack.pop()
            wall = t1 - t0
            if stack:
                stack[-1][1] += wall
            self_s = wall - frame[1]
            units = (count(args, kwargs, result)
                     if (count is not None and outer and ok) else 0)
            entry = self.totals.get(layer)
            if entry is None:
                entry = self.totals[layer] = [0.0, 0, 0]
            entry[0] += self_s
            entry[1] += 1 if outer else 0
            entry[2] += units
            if layer == "core.online":
                if self._emitted:
                    self._emitted = False
                    self.emit_s.append(wall)
            elif layer not in HOT_LAYERS:
                self.spans.append({
                    "layer": layer, "pid": self.pid, "t0": t0, "t1": t1,
                    "self_s": self_s, "units": units,
                })

    def watch_emits(self, monitor) -> None:
        """Flag the next ``update`` of ``monitor`` that emits an indicator
        point, through the monitor's public ``on_indicator`` hook (called
        once a ``LiveWatcher`` has claimed the hook)."""
        inner = monitor.on_indicator

        def on_indicator(t, value):
            self._emitted = True
            if inner is not None:
                inner(t, value)

        monitor.on_indicator = on_indicator

    # -- shipping worker accounting home --------------------------------------

    def checkpoint(self) -> tuple:
        """Mark the current accounting state (see :meth:`take_since`)."""
        return ({k: list(v) for k, v in self.totals.items()},
                len(self.spans), len(self.emit_s))

    def take_since(self, mark: tuple) -> dict:
        """Remove and return everything recorded since ``mark``."""
        totals0, n_spans, n_emits = mark
        delta = {}
        for layer, entry in self.totals.items():
            base = totals0.get(layer, [0.0, 0, 0])
            diff = [entry[i] - base[i] for i in range(3)]
            if any(diff):
                delta[layer] = diff
        self.totals = totals0
        shipped = {"totals": delta, "spans": self.spans[n_spans:],
                   "emit_s": self.emit_s[n_emits:]}
        del self.spans[n_spans:]
        del self.emit_s[n_emits:]
        return shipped

    def absorb(self, shipped: dict, unit: dict) -> None:
        """Fold one worker unit's shipped accounting into this tracer."""
        for layer, diff in shipped["totals"].items():
            entry = self.remote_totals.setdefault(layer, [0.0, 0, 0])
            for i in range(3):
                entry[i] += diff[i]
        self.remote_spans.extend(shipped["spans"])
        self.emit_s.extend(shipped["emit_s"])
        self.units.append(unit)

    def collect_units(self, session) -> None:
        """Absorb every ``bench.unit`` record merged into ``session``."""
        for record in session.spans.records:
            if record.name == "bench.unit":
                bench = record.attrs["bench"]
                self.absorb(bench["shipped"], bench["unit"])

    def reset(self) -> None:
        """Drop all accounting (the open call stack must be empty)."""
        self._stack.clear()
        self._emitted = False
        self.totals = {}
        self.spans = []
        self.emit_s = []
        self.remote_totals = {}
        self.remote_spans = []
        self.units = []

    # -- reading -------------------------------------------------------------

    def combined(self) -> Dict[str, list]:
        """Local plus remote totals per layer."""
        out = {layer: list(entry) for layer, entry in self.totals.items()}
        for layer, entry in self.remote_totals.items():
            mine = out.setdefault(layer, [0.0, 0, 0])
            for i in range(3):
                mine[i] += entry[i]
        return out

    def local_self_s(self) -> float:
        """Self time of every layer in this process (wall-time coverage)."""
        return sum(entry[0] for entry in self.totals.values())


#: The tracer the current patches feed (patching is process-wide).
_ACTIVE: Optional[Tracer] = None


class TimedUnit:
    """Picklable wrapper of a pool work function.

    In the worker it runs the unit under the process's tracer and ships
    the unit's accounting home as a ``bench.unit`` span in the worker's
    telemetry session, which the pool merges into the parent.  A worker
    that was not forked from a traced parent installs its own tracer.
    """

    def __init__(self, fn: Callable) -> None:
        self.fn = fn

    def __call__(self, item):
        from repro.obs import session as obs_session

        tracer = _ACTIVE if _ACTIVE is not None else install(Tracer())
        tracer.pid = os.getpid()
        mark = tracer.checkpoint()
        t0 = perf_counter()
        try:
            return self.fn(item)
        finally:
            t1 = perf_counter()
            shipped = tracer.take_since(mark)
            unit = {"pid": tracer.pid, "t0": t0, "t1": t1}
            obs_session.current_session().spans.ingest([{
                "name": "bench.unit", "path": "bench.unit", "depth": 0,
                "start": 0.0, "end": t1 - t0, "status": "ok",
                "attrs": {"bench": {"shipped": shipped, "unit": unit}},
            }])


def _wrap(tracer: Tracer, layer: str, fn: Callable,
          count: Optional[Callable]) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(layer, fn, args, kwargs, count)

    return wrapper


def _wrap_map(tracer: Tracer, fn: Callable) -> Callable:
    from repro.perf.pool import resolve_workers

    def width(args, kwargs, result):
        workers = resolve_workers(kwargs.get("workers"))
        return max(1, min(workers, len(args[1])))

    @functools.wraps(fn)
    def wrapper(unit_fn, items, *args, **kwargs):
        items = list(items)
        return tracer.call("perf.pool.map", fn,
                           (TimedUnit(unit_fn), items) + args, kwargs, width)

    return wrapper


def _watch_new_monitors(tracer: Tracer) -> None:
    """Have every new ``LiveWatcher`` report its monitor's emits."""
    from repro.obs.live import LiveWatcher

    init = LiveWatcher.__init__

    @functools.wraps(init)
    def wrapper(watcher, monitor, *args, **kwargs):
        init(watcher, monitor, *args, **kwargs)
        tracer.watch_emits(monitor)

    _patch(LiveWatcher, "__init__", init, wrapper)


def _resolve(module_name: str, attr_path: str):
    """(owner, attribute name) for ``module.attr_path``, or None."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    parts = attr_path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, parts[-1]):
        return None
    return owner, parts[-1]


#: (owner, attribute, original) for every binding install() replaced.
_PATCHES: List[tuple] = []


def _patch(owner, attr: str, original, wrapper) -> None:
    setattr(owner, attr, wrapper)
    _PATCHES.append((owner, attr, original))


def _rebind_everywhere(original, wrapper) -> None:
    """Point every loaded ``repro`` module's binding of ``original`` at
    ``wrapper`` (covers ``from x import f`` call sites)."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                _patch(module, attr, original, wrapper)


def install(tracer: Tracer) -> Tracer:
    """Wrap every target for ``tracer`` (process-wide, until
    :func:`uninstall`); returns ``tracer``.

    Raises ``RuntimeError`` when a required entry point is missing, so a
    benchmark run never silently reports a layer it stopped measuring.
    """
    global _ACTIVE
    if _ACTIVE is not None:
        raise RuntimeError("a tracer is already installed")
    import repro.analysis  # noqa: F401  (loads the modules that re-export)
    import repro.obs.live  # noqa: F401
    import repro.trace  # noqa: F401

    missing = []
    for layer, module_name, attr_path, required, count in TARGETS:
        found = _resolve(module_name, attr_path)
        if found is None:
            if required:
                missing.append(f"{module_name}.{attr_path}")
            continue
        owner, attr = found
        original = getattr(owner, attr)
        inner = _paged_in(original) if layer == "trace.read" else original
        wrapper = _wrap(tracer, layer, inner, count)
        if isinstance(owner, type):
            _patch(owner, attr, original, wrapper)
        else:
            _rebind_everywhere(original, wrapper)
    found = _resolve(_POOL_MODULE, "resilient_map")
    if found is None:
        missing.append(f"{_POOL_MODULE}.resilient_map")
    else:
        original = getattr(*found)
        _rebind_everywhere(original, _wrap_map(tracer, original))
    _watch_new_monitors(tracer)
    _ACTIVE = tracer
    if missing:
        uninstall()
        raise RuntimeError(f"traced entry points not found: {missing}")
    return tracer


def uninstall() -> None:
    """Restore every binding :func:`install` replaced."""
    global _ACTIVE
    while _PATCHES:
        owner, attr, original = _PATCHES.pop()
        setattr(owner, attr, original)
    _ACTIVE = None


# -- per-layer metrics ---------------------------------------------------------


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty list (``q`` in 0..100)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def layer_metrics(tracer: Tracer, *, setup: Dict[str, list],
                  iterations: int, wall_s: float,
                  distinct_hosts: int) -> Dict[str, float]:
    """Per-layer figures from one traced set-up plus ``iterations``
    traced iterations (``wall_s`` of parent wall time in total).

    Time and count figures are per iteration, plus what the traced
    set-up spent in the same layer (only the watch replay's set-up does
    layer work: it simulates and writes its traces).
    """
    n = max(iterations, 1)
    totals = tracer.combined()

    def total(layer: str, i: int) -> float:
        return (setup.get(layer, [0.0, 0, 0])[i]
                + totals.get(layer, [0.0, 0, 0])[i] / n)

    spans = tracer.spans + tracer.remote_spans
    campaign_wall = sum(s["t1"] - s["t0"] for s in spans
                        if s["layer"] == "perf.pool.campaign")
    maps = [s for s in spans if s["layer"] == "perf.pool.map"]
    map_wall = sum(s["t1"] - s["t0"] for s in maps)
    capacity = sum((s["t1"] - s["t0"]) * s["units"] for s in maps)
    busy = sum(u["t1"] - u["t0"] for u in tracer.units)
    host_sims = total("memsim", 2)
    emits = tracer.emit_s
    # Coverage counts process time: the parent's time outside its waits on
    # the pool, plus every worker unit's time.
    waiting = tracer.totals.get("perf.pool.map", [0.0])[0]
    process_s = wall_s - waiting + busy
    covered = (tracer.local_self_s() - waiting
               + sum(entry[0] for entry in tracer.remote_totals.values()))
    return {
        "memsim.busy_s": total("memsim", 0),
        "memsim.calls": total("memsim", 1),
        "memsim.host_sim_s": (total("memsim", 0) / host_sims
                              if host_sims else 0.0),
        "memsim.sims_per_seed": host_sims / max(distinct_hosts, 1),
        "perf.pool.serial_s": max(campaign_wall - map_wall, 0.0) / n,
        "perf.pool.idle_share": (1.0 - busy / capacity) if capacity else 0.0,
        "baselines.trend.busy_s": total("baselines.trend", 0),
        "baselines.entropy.busy_s": total("baselines.entropy", 0),
        "core.holder.busy_s": total("core.holder", 0),
        "core.holder.calls": total("core.holder", 1),
        "core.holder.samples": total("core.holder", 2),
        "core.pipeline.busy_s": total("core.pipeline", 0),
        "analysis.scoreboard.busy_s": total("analysis.scoreboard", 0),
        "trace.read_s": total("trace.read", 0),
        "trace.write_s": total("trace.write", 0),
        "trace.bytes_read": total("trace.read", 2),
        "core.online.emits": len(emits) / n,
        "core.online.emit_p50_ms": (1e3 * percentile(emits, 50.0)
                                    if emits else 0.0),
        "core.online.emit_p99_ms": (1e3 * percentile(emits, 99.0)
                                    if emits else 0.0),
        "obs.live.busy_s": total("obs.live", 0),
        "unattributed_share": (max(process_s - covered, 0.0) / process_s
                               if process_s > 0 else 0.0),
    }
