"""Hot-path benchmark harness and the ``BENCH_*.json`` perf trajectory.

``python -m repro bench`` runs a curated suite of microbenchmarks over
the library's hot paths — the stress-to-crash fleet, the Hölder
trajectory, the multifractal estimators (WTMM, MF-DFA, the sliding
spectrum), the wavelet transforms, the raw event engine, the full
``analyze_counter`` pipeline, the process-pool campaign fan-out and the
online monitor stream — and freezes the numbers into a versioned
trajectory file::

    BENCH_<YYYYMMDD>_<gitsha7>.json

Each file records, per benchmark: best/mean wall seconds over N
repeats, CPU seconds, throughput in samples/sec, and the peak traced
allocation size of one run; plus an environment fingerprint (python,
numpy, platform, CPU count, git SHA) and a *calibration* measurement —
the wall time of a fixed numpy workload on this machine.  Trajectory
files accumulate; comparing the newest file against the previous one
(or an explicitly committed baseline) yields the regression report, and
``compare_runs`` normalises by the calibration ratio so a slower CI
runner is not mistaken for a slower library.

Every workload is deterministic (fixed seeds, fixed sizes), so two runs
of the same code on the same machine time the same computation.
``--quick`` shrinks the workloads ~4-10x for CI smoke runs; quick and
full results are never compared against each other.
"""

from __future__ import annotations

import datetime as _dt
import json
import os
import platform
import subprocess
import time
import tracemalloc
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..exceptions import TraceError, ValidationError
from .atomic import atomic_write_json
from .logger import get_logger

__all__ = [
    "BENCH_SCHEMA",
    "BENCH_PREFIX",
    "BenchCase",
    "SUITE",
    "case_names",
    "select_cases",
    "run_case",
    "run_suite",
    "environment_fingerprint",
    "write_bench_file",
    "read_bench_file",
    "list_bench_files",
    "find_baseline",
    "compare_runs",
    "render_comparison",
]

BENCH_SCHEMA = "repro.bench-trajectory/1"
BENCH_PREFIX = "BENCH_"

_log = get_logger("obs.bench")


# -- the curated suite ---------------------------------------------------------
#
# A case's ``setup(quick)`` builds the workload (inputs, configs) outside
# the timed region and returns a zero-argument callable; the callable
# runs one iteration and returns the number of samples it processed, so
# the harness can report throughput.  All RNG seeds are fixed.

@dataclass(frozen=True)
class BenchCase:
    """One curated microbenchmark over a library hot path."""

    name: str
    group: str
    description: str
    setup: Callable[[bool], Callable[[], int]]


def _case_simkernel_events(quick: bool) -> Callable[[], int]:
    from ..simkernel import Simulator

    n_chains = 20
    horizon = 2_000.0 if quick else 10_000.0

    def run() -> int:
        sim = Simulator()

        def make_tick(period: float):
            def tick() -> None:
                sim.schedule_in(period, tick)
            return tick

        for i in range(n_chains):
            sim.schedule_in(0.5 + 0.01 * i, make_tick(1.0 + 0.01 * i))
        sim.run_until(horizon)
        return sim.events_fired

    return run


def _case_memsim_fleet(quick: bool) -> Callable[[], int]:
    from ..memsim import MachineConfig, run_fleet

    n_runs = 1 if quick else 2
    budget = 4_000.0 if quick else 20_000.0

    def run() -> int:
        # workers=1 keeps this trajectory a pure single-core simulator
        # measurement; the pool is timed by campaign.parallel instead.
        results = run_fleet(
            MachineConfig.nt4(seed=1, max_run_seconds=budget), n_runs,
            workers=1)
        return sum(
            len(r.bundle[name]) for r in results for name in r.bundle.names)

    return run


def _synthetic_counter(n: int, seed: int = 7):
    import numpy as np

    from ..generators import fgn
    from ..trace.series import TimeSeries

    noise = fgn(n, 0.7, rng=np.random.default_rng(seed))
    return TimeSeries.from_values(np.cumsum(noise), name="synthetic")


def _case_holder_trajectory(quick: bool) -> Callable[[], int]:
    from ..core.holder import holder_trajectory

    ts = _synthetic_counter(4096 if quick else 16384)

    def run() -> int:
        return len(holder_trajectory(ts))

    return run


def _case_wtmm(quick: bool) -> Callable[[], int]:
    import numpy as np

    from ..fractal.wtmm import wtmm
    from ..generators import fbm

    x = fbm(2048 if quick else 8192, 0.6, rng=np.random.default_rng(3))

    def run() -> int:
        wtmm(x)
        return x.size

    return run


def _case_mfdfa(quick: bool) -> Callable[[], int]:
    import numpy as np

    from ..fractal.mfdfa import mfdfa
    from ..generators import fgn

    x = fgn(4096 if quick else 16384, 0.7, rng=np.random.default_rng(5))

    def run() -> int:
        mfdfa(x)
        return x.size

    return run


def _case_sliding_spectrum(quick: bool) -> Callable[[], int]:
    from ..fractal.sliding import sliding_mfdfa

    ts = _synthetic_counter(4096 if quick else 12288, seed=11)
    window = 1024
    step = 512 if quick else 256

    def run() -> int:
        sliding_mfdfa(ts, window=window, step=step)
        return len(ts)

    return run


def _case_wavelets(quick: bool) -> Callable[[], int]:
    import numpy as np

    from ..fractal.wavelets import cwt, dwt, modwt
    from ..generators import fgn

    x = fgn(4096 if quick else 16384, 0.6, rng=np.random.default_rng(9))
    scales = np.geomspace(4.0, x.size / 8.0, 16)

    def run() -> int:
        dwt(x)
        modwt(x, level=6)
        cwt(np.cumsum(x), scales)
        return x.size

    return run


def _case_analyze_pipeline(quick: bool) -> Callable[[], int]:
    from ..core.pipeline import analyze_counter

    ts = _synthetic_counter(4096 if quick else 16384, seed=13)

    def run() -> int:
        analyze_counter(ts, indicator_window=256)
        return len(ts)

    return run


def _case_campaign_parallel(quick: bool) -> Callable[[], int]:
    """Process-pool campaign fan-out, gated on equivalence + speedup.

    Setup runs the sequential reference once and the pooled campaign
    once: the payloads must be bit-identical, and on machines with >= 4
    cores the pooled run must be meaningfully faster (loose floor; the
    strict determinism contract lives in the test suite).  The timed
    iteration is the pooled campaign alone, so the trajectory tracks
    pool efficiency.
    """
    from ..analysis.campaign import ExperimentSpec, cells_payload, run_campaign
    from ..exceptions import AnalysisError

    n_cells, n_runs, budget = (2, 2, 800.0) if quick else (4, 8, 1_200.0)
    specs = [
        ExperimentSpec(
            name=f"cell{i}", scenario="stress", n_runs=n_runs,
            base_seed=100 + 10 * i, fault_factor=1.0 + 0.25 * i,
            max_run_seconds=budget,
        )
        for i in range(n_cells)
    ]
    workers = min(4, os.cpu_count() or 1)

    t0 = time.perf_counter()
    sequential = run_campaign(specs, workers=1)
    wall_seq = time.perf_counter() - t0
    t0 = time.perf_counter()
    pooled = run_campaign(specs, workers=workers)
    wall_pool = time.perf_counter() - t0
    if cells_payload(sequential) != cells_payload(pooled):
        raise AnalysisError(
            "parallel campaign diverged from sequential reference")
    speedup = wall_seq / wall_pool if wall_pool > 0 else float("inf")
    _log.info("campaign pool speedup", workers=workers,
              sequential_s=round(wall_seq, 3), pooled_s=round(wall_pool, 3),
              speedup=round(speedup, 2))
    if not quick and workers >= 4 and speedup < 1.5:
        raise AnalysisError(
            f"campaign pool speedup {speedup:.2f}x with {workers} workers "
            "is below the 1.5x floor (target: 2x on 4 cores)"
        )

    def run() -> int:
        run_campaign(specs, workers=workers)
        return n_cells * n_runs

    return run


def _aging_fleet_config(seed: int, budget: float, scale: float = 6.0):
    """NT4 config with scaled faults — crashes well inside ``budget``."""
    from dataclasses import replace

    from ..memsim import MachineConfig

    base = MachineConfig.nt4(seed=seed, max_run_seconds=budget)
    return replace(base, faults=base.faults.scaled(scale))


def _case_fleet_vec(quick: bool) -> Callable[[], int]:
    """Vectorised fleet engine, gated on throughput over the object path.

    Setup times a small object-engine reference fleet and one full
    vector fleet of the same config: the vector engine must simulate at
    least 10x more host-seconds per wall second (the ISSUE target at the
    256-host scale; the quick fleet is smaller but the floor is the
    same).  The timed iteration is the vector fleet alone, so the
    trajectory tracks struct-of-arrays throughput.
    """
    from ..exceptions import AnalysisError
    from ..memsim import VectorFleet, run_fleet

    n_vec, n_obj, budget = (128, 2, 2_000.0) if quick else (256, 4, 4_000.0)
    config = _aging_fleet_config(seed=1, budget=budget)

    t0 = time.perf_counter()
    run_fleet(config, n_obj, workers=1)
    wall_obj = time.perf_counter() - t0
    t0 = time.perf_counter()
    VectorFleet(config, n_vec).run()
    wall_vec = time.perf_counter() - t0
    obj_rate = n_obj / wall_obj if wall_obj > 0 else float("inf")
    vec_rate = n_vec / wall_vec if wall_vec > 0 else float("inf")
    speedup = vec_rate / obj_rate if obj_rate > 0 else float("inf")
    _log.info("fleet vector speedup", object_hosts_per_sec=round(obj_rate, 2),
              vector_hosts_per_sec=round(vec_rate, 2),
              speedup=round(speedup, 1))
    if speedup < 10.0:
        raise AnalysisError(
            f"vector fleet throughput {speedup:.1f}x the object path "
            f"({vec_rate:.1f} vs {obj_rate:.1f} hosts/sec at {n_vec} hosts) "
            "is below the 10x floor"
        )

    def run() -> int:
        VectorFleet(config, n_vec).run()
        return n_vec

    return run


def _case_fleet_vec_equiv(quick: bool) -> Callable[[], int]:
    """Vector-engine equivalence layer, gated on oracle agreement.

    Setup asserts both halves of the equivalence contract against the
    object-model oracle: exact batch decomposition (host i of a batch is
    bit-identical to host i alone) and the cross-engine crash-time KS /
    crash-reason check.  The timed iteration is the full equivalence
    report (object + vector fleets + KS), so the trajectory tracks the
    cost of the verification layer itself.
    """
    from ..memsim import (
        check_batch_decomposition,
        check_cross_engine,
        fleet_equivalence_report,
        run_fleet,
    )

    n_hosts, budget = (6, 4_000.0) if quick else (12, 6_000.0)
    config = _aging_fleet_config(seed=31, budget=budget)
    check_batch_decomposition(
        _aging_fleet_config(seed=7, budget=1_500.0), 3)
    # The object half dominates the report's cost; reuse one reference
    # fleet for the gate and the timed iterations.
    reference = run_fleet(config, n_hosts, workers=1)
    report = fleet_equivalence_report(config, n_hosts,
                                      object_results=reference)
    check_cross_engine(report)

    def run() -> int:
        rep = fleet_equivalence_report(config, n_hosts,
                                       object_results=reference)
        check_cross_engine(rep)
        return n_hosts

    return run


def _case_online_stream(quick: bool) -> Callable[[], int]:
    """Online monitor streaming through the truncated Hölder tail.

    Setup replays the same stream through the monitor twice under a
    private telemetry session: as is, and with every emit's
    :func:`~repro.core.holder.holder_tail` replaced by the full-window
    :func:`~repro.core.holder.wavelet_holder` oracle.  Indicator points
    and alarm time must agree, and the monitor must spend >= 5x fewer
    CWT FLOPs (the ``fractal.cwt_flops`` counter) than the oracle.  The
    timed iteration is the monitor feed — the live ``watch`` hot path.
    """
    from unittest import mock

    import numpy as np

    from ..core import online
    from ..core.holder import wavelet_holder
    from ..exceptions import AnalysisError
    from ..generators import fgn
    from .session import telemetry_session

    n = 12_288 if quick else 24_576
    noise = fgn(n, 0.75, rng=np.random.default_rng(21))
    values = np.cumsum(noise)
    times = np.arange(n, dtype=float)

    def full_window_tail(window, tail, **kwargs):
        return wavelet_holder(window, **kwargs)[-tail:]

    def feed(monitor):
        with telemetry_session() as session:
            monitor.update_many(times, values)
            return session.metrics.counter("fractal.cwt_flops").value

    oracle, tail = online.OnlineAgingMonitor(), online.OnlineAgingMonitor()
    with mock.patch.object(online, "holder_tail", full_window_tail):
        flops_oracle = feed(oracle)
    flops_tail = feed(tail)
    if not (np.array_equal(oracle.indicator_times, tail.indicator_times)
            and np.allclose(oracle.indicator_history, tail.indicator_history,
                            rtol=1e-9, atol=1e-8)):
        raise AnalysisError(
            "holder_tail indicator points diverged from the full-window "
            "wavelet_holder oracle")
    if oracle.alarm_time != tail.alarm_time:
        raise AnalysisError(
            f"holder_tail alarm time {tail.alarm_time} differs from the "
            f"full-window oracle's {oracle.alarm_time}"
        )
    ratio = flops_oracle / flops_tail if flops_tail else float("inf")
    _log.info("online stream flops", oracle=flops_oracle,
              tail=flops_tail, ratio=round(ratio, 2))
    if ratio < 5.0:
        raise AnalysisError(
            f"holder_tail CWT FLOP reduction {ratio:.2f}x is below "
            "the required 5x"
        )

    def run() -> int:
        monitor = online.OnlineAgingMonitor()
        monitor.update_many(times, values)
        return n

    return run


def _case_trace_store(quick: bool) -> Callable[[], int]:
    """Columnar trace store read throughput, gated >= 5x over CSV.

    Setup synthesises a realistic multi-counter run bundle, writes it
    through both codecs into a scratch directory, and times a few
    read-backs of each: the memory-mapped columnar read must be at
    least 5x faster than the CSV parse of the same data.  The timed
    iteration is the columnar ``read_bundle`` — the per-run cost a
    campaign analysing archived traces pays.
    """
    import atexit
    import shutil
    import tempfile

    import numpy as np

    from ..exceptions import AnalysisError
    from ..trace import TimeSeries, TraceBundle, read_bundle, write_bundle

    n = 50_000 if quick else 200_000
    n_counters = 4
    rng = np.random.default_rng(23)
    times = np.arange(n, dtype=float)
    bundle = TraceBundle(metadata={"crash_time": float(n) * 0.9,
                                   "crash_reason": "commit_exhaustion",
                                   "os_profile": "nt4"})
    for i in range(n_counters):
        values = np.cumsum(rng.normal(size=n)) * 1e6 + 5e8
        bundle.add(TimeSeries(times=times, values=values,
                              name=f"Counter{i}", units="bytes"))

    scratch = tempfile.mkdtemp(prefix="repro-bench-trace-store-")
    atexit.register(shutil.rmtree, scratch, ignore_errors=True)
    csv_path = os.path.join(scratch, "run.csv")
    col_path = os.path.join(scratch, "run.store")
    write_bundle(bundle, csv_path)
    write_bundle(bundle, col_path)

    def best_of(reader, path, reps: int = 3) -> float:
        best = float("inf")
        for _ in range(reps):
            t0 = time.perf_counter()
            reader(path)
            best = min(best, time.perf_counter() - t0)
        return best

    wall_csv = best_of(read_bundle, csv_path)
    wall_col = best_of(read_bundle, col_path)
    speedup = wall_csv / wall_col if wall_col > 0 else float("inf")
    _log.info("trace store read speedup", csv_s=round(wall_csv, 4),
              columnar_s=round(wall_col, 4), speedup=round(speedup, 1))
    if speedup < 5.0:
        shutil.rmtree(scratch, ignore_errors=True)
        raise AnalysisError(
            f"columnar read {speedup:.1f}x the CSV read "
            f"({wall_col * 1e3:.1f} ms vs {wall_csv * 1e3:.1f} ms for "
            f"{n_counters}x{n} samples) is below the 5x floor")

    def run() -> int:
        read_bundle(col_path)
        return n * n_counters

    return run


SUITE: Tuple[BenchCase, ...] = (
    BenchCase("simkernel.events", "simkernel",
              "event-engine churn: 20 self-rescheduling timer chains",
              _case_simkernel_events),
    BenchCase("memsim.fleet", "memsim",
              "stress-to-crash fleet simulation (NT4 profile)",
              _case_memsim_fleet),
    BenchCase("memsim.fleet_vec", "memsim",
              "vectorised fleet engine throughput "
              "(>=10x object-path hosts/sec gated)",
              _case_fleet_vec),
    BenchCase("memsim.fleet_vec_equiv", "memsim",
              "vector-engine equivalence layer "
              "(batch decomposition + cross-engine KS gated)",
              _case_fleet_vec_equiv),
    BenchCase("core.holder", "core",
              "pointwise Hölder trajectory of a synthetic counter",
              _case_holder_trajectory),
    BenchCase("fractal.wtmm", "fractal",
              "WTMM multifractal spectrum of an fBm path",
              _case_wtmm),
    BenchCase("fractal.mfdfa", "fractal",
              "MF-DFA generalized-Hurst analysis of fGn",
              _case_mfdfa),
    BenchCase("fractal.sliding", "fractal",
              "sliding-window MFDFA spectrum trajectory",
              _case_sliding_spectrum),
    BenchCase("fractal.wavelets", "fractal",
              "DWT + MODWT + CWT transforms",
              _case_wavelets),
    BenchCase("core.pipeline", "core",
              "full analyze_counter chain (preprocess→Hölder→detector)",
              _case_analyze_pipeline),
    BenchCase("campaign.parallel", "perf",
              "process-pool campaign fan-out (equivalence + speedup gated)",
              _case_campaign_parallel),
    BenchCase("online.stream", "perf",
              "online monitor stream on the truncated Hölder tail "
              "(>=5x CWT FLOP reduction gated)",
              _case_online_stream),
    BenchCase("trace.store", "trace",
              "memory-mapped columnar trace read "
              "(>=5x CSV read throughput gated)",
              _case_trace_store),
)


def case_names() -> List[str]:
    """The names of every benchmark in the curated suite."""
    return [case.name for case in SUITE]


def select_cases(patterns: Optional[Sequence[str]]) -> List[BenchCase]:
    """Cases whose name contains any of ``patterns`` (all when None/empty)."""
    if not patterns:
        return list(SUITE)
    chosen = [c for c in SUITE if any(p in c.name for p in patterns)]
    if not chosen:
        raise ValidationError(
            f"no benchmark matches {list(patterns)!r}; "
            f"available: {case_names()}"
        )
    return chosen


# -- measurement ---------------------------------------------------------------

def run_case(
    case: BenchCase, *, quick: bool = False, repeats: int = 3,
    track_memory: bool = True,
) -> dict:
    """Run one benchmark case and return its JSON-able result record.

    One untimed warmup iteration absorbs lazy imports, filter caches and
    allocator warm-up; then ``repeats`` timed iterations (wall via
    ``perf_counter``, CPU via ``process_time``); finally, when
    ``track_memory`` is on, one extra iteration under ``tracemalloc``
    measures the peak traced allocation size (kept out of the timings —
    tracing slows allocation-heavy code severalfold).
    """
    if repeats < 1:
        raise ValidationError(f"repeats must be >= 1, got {repeats}")
    fn = case.setup(quick)
    n_samples = fn()  # warmup, untimed
    walls: List[float] = []
    cpus: List[float] = []
    for _ in range(repeats):
        c0 = time.process_time()
        w0 = time.perf_counter()
        fn()
        walls.append(time.perf_counter() - w0)
        cpus.append(time.process_time() - c0)
    mem_peak: Optional[int] = None
    if track_memory:
        was_tracing = tracemalloc.is_tracing()
        if not was_tracing:
            tracemalloc.start()
        tracemalloc.reset_peak()
        fn()
        mem_peak = tracemalloc.get_traced_memory()[1]
        if not was_tracing:
            tracemalloc.stop()
    wall_best = min(walls)
    return {
        "group": case.group,
        "description": case.description,
        "repeats": repeats,
        "n_samples": n_samples,
        "wall_best": wall_best,
        "wall_mean": sum(walls) / len(walls),
        "cpu_best": min(cpus),
        "samples_per_sec": n_samples / wall_best if wall_best > 0 else None,
        "mem_peak_bytes": mem_peak,
    }


def _calibration_seconds() -> float:
    """Wall time of a fixed numpy workload — this machine's speed unit.

    Comparing two trajectory files from different machines, the ratio of
    their calibrations estimates the hardware speed difference, letting
    the regression check normalise it away.
    """
    import numpy as np

    rng = np.random.default_rng(12345)
    x = rng.standard_normal(2**18)
    m = rng.standard_normal((96, 96))
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        y = np.fft.rfft(x)
        float(np.abs(y).sum())
        np.convolve(x[:2**14], x[:2**9]).sum()
        np.linalg.eigvalsh(m @ m.T)
        np.sort(x.copy())
        best = min(best, time.perf_counter() - t0)
    return best


def git_sha(short: int = 12) -> str:
    """The current git commit (CI env var or ``git rev-parse``), else "unknown"."""
    env_sha = os.environ.get("GITHUB_SHA")
    if env_sha:
        return env_sha[:short]
    try:
        out = subprocess.run(
            ["git", "rev-parse", f"--short={short}", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
        )
    except OSError:
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def environment_fingerprint() -> dict:
    """Where these numbers came from: versions, hardware, calibration."""
    import numpy

    from .. import __version__

    return {
        "repro": __version__,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "git_sha": git_sha(),
        "calibration_seconds": _calibration_seconds(),
    }


def run_suite(
    *, quick: bool = False, repeats: Optional[int] = None,
    select: Optional[Sequence[str]] = None, track_memory: bool = True,
    progress: Optional[Callable[[str, dict], None]] = None,
) -> dict:
    """Run (a selection of) the suite and return the trajectory payload."""
    if repeats is None:
        repeats = 3 if quick else 5
    cases = select_cases(select)
    results: Dict[str, dict] = {}
    for case in cases:
        _log.info("benchmark starting", case=case.name, quick=quick)
        record = run_case(case, quick=quick, repeats=repeats,
                          track_memory=track_memory)
        results[case.name] = record
        _log.info("benchmark finished", case=case.name,
                  wall_best=record["wall_best"])
        if progress is not None:
            progress(case.name, record)
    return {
        "schema": BENCH_SCHEMA,
        "created_at": _dt.datetime.now(_dt.timezone.utc).isoformat(),
        "quick": quick,
        "repeats": repeats,
        "environment": environment_fingerprint(),
        "results": results,
    }


# -- trajectory files ----------------------------------------------------------

def bench_filename(payload: dict) -> str:
    """``BENCH_<YYYYMMDD>_<gitsha7>.json`` for a suite payload."""
    stamp = payload["created_at"][:10].replace("-", "")
    sha = payload["environment"].get("git_sha", "unknown")[:7] or "unknown"
    return f"{BENCH_PREFIX}{stamp}_{sha}.json"


def write_bench_file(payload: dict, out_dir: str | os.PathLike) -> str:
    """Write the trajectory file under ``out_dir`` (atomically); returns
    its path."""
    path = os.path.join(os.fspath(out_dir), bench_filename(payload))
    return atomic_write_json(path, payload, sort_keys=False)


def read_bench_file(path: str | os.PathLike) -> dict:
    """Read one trajectory file back, validating its schema."""
    with open(path, "r") as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as exc:
            raise TraceError(f"corrupt bench file {path}: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("schema") != BENCH_SCHEMA:
        raise TraceError(
            f"unsupported bench schema in {path} (expected {BENCH_SCHEMA!r})"
        )
    return payload


def list_bench_files(path: str | os.PathLike) -> List[dict]:
    """Summarise every readable ``BENCH_*.json`` under ``path``.

    Accepts a directory (scans for trajectory files) or a single file.
    Unreadable or foreign-schema files are skipped, not fatal — the
    directory may mix artifacts from several tool versions.  Returns one
    record per file, oldest first: path, creation date, git sha, quick
    flag and the per-case best wall times.
    """
    path = os.fspath(path)
    if os.path.isdir(path):
        entries = [
            os.path.join(path, name) for name in sorted(os.listdir(path))
            if name.startswith(BENCH_PREFIX) and name.endswith(".json")
        ]
    elif os.path.isfile(path):
        entries = [path]
    else:
        entries = []
    records: List[dict] = []
    for full in entries:
        try:
            payload = read_bench_file(full)
        except (TraceError, OSError):
            continue
        records.append({
            "path": full,
            "created_at": payload.get("created_at", ""),
            "git_sha": (payload.get("environment", {}).get("git_sha")
                        or "unknown")[:7],
            "quick": bool(payload.get("quick")),
            "cases": {
                name: record.get("wall_best")
                for name, record in payload.get("results", {}).items()
            },
        })
    records.sort(key=lambda r: r["created_at"])
    return records


def find_baseline(
    path: str | os.PathLike, *, quick: Optional[bool] = None,
    exclude: Optional[str | os.PathLike] = None,
) -> Optional[str]:
    """The newest matching ``BENCH_*.json`` under ``path`` (or the file itself).

    ``quick`` filters to trajectory files of the same workload size —
    quick and full runs time different computations and must never be
    compared.  ``exclude`` skips the file just written.  Returns None
    when nothing matches (first run ever: no baseline, nothing to
    compare).
    """
    path = os.fspath(path)
    if os.path.isfile(path):
        return path
    if not os.path.isdir(path):
        return None
    excluded = os.path.abspath(os.fspath(exclude)) if exclude else None
    candidates: List[Tuple[str, str]] = []
    for entry in os.listdir(path):
        if not (entry.startswith(BENCH_PREFIX) and entry.endswith(".json")):
            continue
        full = os.path.join(path, entry)
        if excluded and os.path.abspath(full) == excluded:
            continue
        try:
            payload = read_bench_file(full)
        except (TraceError, OSError):
            continue
        if quick is not None and bool(payload.get("quick")) != quick:
            continue
        candidates.append((payload.get("created_at", ""), full))
    if not candidates:
        return None
    candidates.sort()
    return candidates[-1][1]


# -- comparison / regression report --------------------------------------------

def compare_runs(
    baseline: dict, current: dict, *, threshold: float = 0.25,
    normalize: bool = True,
) -> dict:
    """Compare two trajectory payloads hot path by hot path.

    The compared quantity is best wall time; with ``normalize`` on, the
    baseline's timings are rescaled by the machines' calibration ratio
    (current/baseline), so cross-machine comparisons measure the code,
    not the hardware.  A hot path regresses when its (normalised) ratio
    exceeds ``1 + threshold``; it improved when below ``1 - threshold``.
    """
    if threshold <= 0:
        raise ValidationError(f"threshold must be positive, got {threshold}")
    if bool(baseline.get("quick")) != bool(current.get("quick")):
        raise ValidationError(
            "cannot compare quick and full trajectory files: "
            "they time different workloads"
        )
    scale = 1.0
    if normalize:
        cal_base = baseline.get("environment", {}).get("calibration_seconds")
        cal_cur = current.get("environment", {}).get("calibration_seconds")
        if cal_base and cal_cur and cal_base > 0:
            scale = cal_cur / cal_base
    rows: List[dict] = []
    regressions: List[str] = []
    for name, cur in current.get("results", {}).items():
        base = baseline.get("results", {}).get(name)
        if base is None:
            rows.append({"name": name, "status": "new",
                         "baseline_wall": None,
                         "current_wall": cur["wall_best"], "ratio": None})
            continue
        expected = base["wall_best"] * scale
        ratio = cur["wall_best"] / expected if expected > 0 else float("inf")
        if ratio > 1.0 + threshold:
            status = "REGRESSION"
            regressions.append(name)
        elif ratio < 1.0 - threshold:
            status = "improved"
        else:
            status = "ok"
        rows.append({"name": name, "status": status,
                     "baseline_wall": expected,
                     "current_wall": cur["wall_best"], "ratio": ratio})
    return {
        "threshold": threshold,
        "normalized": normalize,
        "calibration_scale": scale,
        "rows": rows,
        "regressions": regressions,
    }


def render_comparison(comparison: dict, *, baseline_path: str = "") -> str:
    """Human-readable regression report for one comparison."""
    from ..report import render_table

    rows = []
    for row in comparison["rows"]:
        rows.append([
            row["name"],
            "-" if row["baseline_wall"] is None
            else f"{row['baseline_wall'] * 1e3:.2f}",
            f"{row['current_wall'] * 1e3:.2f}",
            "-" if row["ratio"] is None else f"{row['ratio']:.3f}",
            "-" if row["ratio"] is None
            else f"{(row['ratio'] - 1.0) * 100.0:+.1f}%",
            row["status"],
        ])
    title = "Perf trajectory vs baseline"
    if baseline_path:
        title += f" ({baseline_path})"
    if comparison["normalized"] and comparison["calibration_scale"] != 1.0:
        title += (f" [calibration-normalized x"
                  f"{comparison['calibration_scale']:.3f}]")
    table = render_table(
        ["hot path", "baseline_ms", "current_ms", "ratio", "delta", "status"],
        rows, title=title,
    )
    footer = (
        f"\nregression threshold: {comparison['threshold'] * 100:.0f}% — "
        + (f"{len(comparison['regressions'])} hot path(s) regressed: "
           + ", ".join(comparison["regressions"])
           if comparison["regressions"] else "no regressions")
    )
    return table + footer
