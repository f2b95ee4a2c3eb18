"""The contract gates behind ``repro bench`` and their ``BENCH_*.json`` files.

``python -m repro bench`` runs five gated cases.  Each case's setup
asserts one contract of the library and raises
:class:`~repro.exceptions.AnalysisError` when it does not hold:

* ``memsim.fleet_vec`` — the vector fleet simulates at least 10x the
  object engine's hosts/sec;
* ``memsim.fleet_vec_equiv`` — exact batch decomposition plus the
  cross-engine crash-time KS / crash-reason check;
* ``campaign.parallel`` — every run of a small stress campaign crashes
  and alarms, the pooled payload equals the sequential one, and on
  machines with at least 4 cores the pool is at least 1.5x faster;
* ``online.stream`` — the online monitor on the truncated Hölder tail
  matches the full-window oracle with at least 5x fewer CWT FLOPs;
* ``trace.store`` — the columnar trace read is at least 5x the CSV
  read throughput.

The timed iterations then freeze into a versioned trajectory file::

    BENCH_<YYYYMMDD>_<gitsha7>.json

holding, per case, best/mean wall seconds over :data:`REPEATS`
iterations, CPU seconds, throughput and the peak traced allocation of
one iteration, plus an environment fingerprint.  A *calibration* (the
wall time of a fixed numpy + interpreter workload) is taken before the
first timed iteration and after each one, and every iteration is
divided by the slower of the two calibrations around it; the median
quotient is the case's ``wall_normalized``.  The run is compared
against the committed baseline in ``benchmarks/baselines``:
:func:`compare_runs` divides the two ``wall_normalized`` values, so
neither a slower runner nor a slow spell of a shared one is mistaken
for a slower library, and flags a case slower by more than
:data:`THRESHOLD`.  A selected case with no baseline entry fails the
comparison too.

Every workload is deterministic (fixed seeds, fixed sizes).  End-to-end
numbers and the per-layer split come from ``perfbench/`` (declared in
``BENCHMARK.json``), not from this harness.
"""

from __future__ import annotations

import datetime as _dt
import json
import os
import platform
import statistics
import subprocess
import time
import tracemalloc
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..exceptions import AnalysisError, TraceError, ValidationError
from .atomic import atomic_write_json
from .logger import get_logger

__all__ = [
    "BENCH_SCHEMA",
    "BENCH_PREFIX",
    "REPEATS",
    "THRESHOLD",
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

BENCH_SCHEMA = "repro.bench-trajectory/2"
BENCH_PREFIX = "BENCH_"
REPEATS = 3        # timed iterations per case
THRESHOLD = 0.25   # a case regresses past 1 + THRESHOLD of its baseline

_log = get_logger("obs.bench")


# -- the gated cases -----------------------------------------------------------
#
# A case's ``setup()`` asserts its contract and builds the workload
# outside the timed region, then returns a zero-argument callable; the
# callable runs one iteration and returns the number of samples it
# processed, so the harness can report throughput.  All RNG seeds are
# fixed.

@dataclass(frozen=True)
class BenchCase:
    """One gated benchmark case."""

    name: str
    group: str
    description: str
    setup: Callable[[], Callable[[], int]]


def _aging_fleet_config(seed: int, budget: float, scale: float = 6.0):
    """NT4 config with scaled faults — crashes well inside ``budget``."""
    from dataclasses import replace

    from ..memsim import MachineConfig

    base = MachineConfig.nt4(seed=seed, max_run_seconds=budget)
    return replace(base, faults=base.faults.scaled(scale))


def _case_fleet_vec() -> Callable[[], int]:
    """Vectorised fleet engine, gated on throughput over the object path.

    Setup times a small object-engine reference fleet and one full
    vector fleet of the same config: the vector engine must simulate at
    least 10x more hosts per wall second.  The timed iteration is the
    vector fleet alone, so the trajectory tracks struct-of-arrays
    throughput.
    """
    from ..memsim import VectorFleet, run_fleet

    n_vec, n_obj = 128, 2
    config = _aging_fleet_config(seed=1, budget=2_000.0)

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


def _case_fleet_vec_equiv() -> Callable[[], int]:
    """Vector-engine equivalence layer, gated on oracle agreement.

    Setup asserts both halves of the equivalence contract against the
    object-model oracle: exact batch decomposition (host i of a batch is
    bit-identical to host i alone) and the cross-engine crash-time KS /
    crash-reason check.  The timed iteration is the full equivalence
    report (vector fleet + KS against the object reference), so the
    trajectory tracks the cost of the verification layer itself.
    """
    from ..memsim import (
        check_batch_decomposition,
        check_cross_engine,
        fleet_equivalence_report,
        run_fleet,
    )

    n_hosts = 6
    config = _aging_fleet_config(seed=31, budget=4_000.0)
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


def _case_campaign_parallel() -> Callable[[], int]:
    """Process-pool campaign fan-out, gated on equivalence + speedup.

    Setup runs the sequential reference once and the pooled campaign
    once.  Every sequential run must crash and carry an alarm, so the
    comparison covers the Hölder detector's output rather than a row of
    nulls; the two payloads must be identical; and on machines with
    >= 4 cores the pooled run must be at least 1.5x faster (a loose
    floor; the strict determinism contract lives in the test suite).
    The timed iteration is the pooled campaign alone at a fixed 2
    workers, so every host times the computation the baseline holds.
    """
    from ..analysis.campaign import ExperimentSpec, cells_payload, run_campaign

    n_cells, n_runs = 2, 2
    specs = [
        ExperimentSpec(
            name=f"cell{i}", scenario="stress", n_runs=n_runs,
            base_seed=100 + 10 * i, fault_factor=6.0 + 0.25 * i,
            max_run_seconds=4_000.0,
        )
        for i in range(n_cells)
    ]
    workers = min(4, os.cpu_count() or 1)

    t0 = time.perf_counter()
    sequential = cells_payload(run_campaign(specs, workers=1))
    wall_seq = time.perf_counter() - t0
    runs = [run for cell in sequential.values() for run in cell["runs"]]
    scored = sum(1 for run in runs
                 if run["crashed"] and run["alarm_time"] is not None)
    if scored != n_cells * n_runs:
        raise AnalysisError(
            f"campaign gate needs all {n_cells * n_runs} runs to crash "
            f"and alarm; {scored} of {len(runs)} did")
    t0 = time.perf_counter()
    pooled = cells_payload(run_campaign(specs, workers=workers))
    wall_pool = time.perf_counter() - t0
    if sequential != pooled:
        raise AnalysisError(
            "parallel campaign diverged from sequential reference")
    speedup = wall_seq / wall_pool if wall_pool > 0 else float("inf")
    _log.info("campaign pool speedup", workers=workers,
              sequential_s=round(wall_seq, 3), pooled_s=round(wall_pool, 3),
              speedup=round(speedup, 2))
    if workers >= 4 and speedup < 1.5:
        raise AnalysisError(
            f"campaign pool speedup {speedup:.2f}x with {workers} workers "
            "is below the 1.5x floor (target: 2x on 4 cores)"
        )

    def run() -> int:
        run_campaign(specs, workers=2)
        return n_cells * n_runs

    return run


def _case_online_stream() -> Callable[[], int]:
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
    from ..generators import fgn
    from .session import telemetry_session

    n = 12_288
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


def _case_trace_store() -> Callable[[], int]:
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

    from ..trace import TimeSeries, TraceBundle, read_bundle, write_bundle

    n, n_counters = 50_000, 4
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
    BenchCase("memsim.fleet_vec", "memsim",
              "vectorised fleet engine throughput "
              "(>=10x object-path hosts/sec gated)",
              _case_fleet_vec),
    BenchCase("memsim.fleet_vec_equiv", "memsim",
              "vector-engine equivalence layer "
              "(batch decomposition + cross-engine KS gated)",
              _case_fleet_vec_equiv),
    BenchCase("campaign.parallel", "perf",
              "process-pool campaign fan-out "
              "(all runs alarmed, equivalence + speedup gated)",
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
    """The names of every case in the suite."""
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

def run_case(case: BenchCase) -> dict:
    """Run one case and return its JSON-able result record.

    Setup asserts the case's contract.  One untimed warmup iteration
    absorbs lazy imports, filter caches and allocator warm-up; then
    :data:`REPEATS` timed iterations (wall via ``perf_counter``, CPU via
    ``process_time``), each bracketed by calibrations because a shared
    host drifts between fast and slow spells within seconds; finally one
    extra iteration under ``tracemalloc`` measures the peak traced
    allocation size (kept out of the timings — tracing slows
    allocation-heavy code severalfold).  An iteration whose brackets
    disagree overlapped a spell boundary, so it is divided by the slower
    one, and the median over iterations keeps one such iteration from
    setting ``wall_normalized``.
    """
    fn = case.setup()
    n_samples = fn()  # warmup, untimed
    walls: List[float] = []
    cpus: List[float] = []
    cals: List[float] = [_calibration_seconds()]
    for _ in range(REPEATS):
        c0 = time.process_time()
        w0 = time.perf_counter()
        fn()
        walls.append(time.perf_counter() - w0)
        cpus.append(time.process_time() - c0)
        cals.append(_calibration_seconds())
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
        "repeats": REPEATS,
        "n_samples": n_samples,
        "wall_best": wall_best,
        "wall_mean": sum(walls) / len(walls),
        "cpu_best": min(cpus),
        "samples_per_sec": n_samples / wall_best if wall_best > 0 else None,
        "mem_peak_bytes": mem_peak,
        "calibration_seconds": cals,
        "wall_normalized": statistics.median(
            wall / max(before, after)
            for wall, before, after in zip(walls, cals, cals[1:])),
    }


def _calibration_seconds() -> float:
    """Median-of-5 wall time of a fixed workload — the machine's speed now.

    Half numpy kernels, half interpreter work (dict updates, a string
    sort), because the cases mix both and a shared host's slow spells
    slow the two differently.  The median, not the best, so that a host
    that is mostly slow reads as slow.
    """
    import numpy as np

    rng = np.random.default_rng(12345)
    x = rng.standard_normal(2**18)
    m = rng.standard_normal((96, 96))
    reps: List[float] = []
    for _ in range(5):
        t0 = time.perf_counter()
        y = np.fft.rfft(x)
        float(np.abs(y).sum())
        np.convolve(x[:2**14], x[:2**9]).sum()
        np.linalg.eigvalsh(m @ m.T)
        np.sort(x.copy())
        counts: Dict[int, int] = {}
        for i in range(30_000):
            counts[i % 97] = counts.get(i % 97, 0) + 3 * i
        sorted(str(i) for i in range(4_000))
        reps.append(time.perf_counter() - t0)
    return statistics.median(reps)


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
    """Where these numbers came from: versions, hardware, git sha."""
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
    }


def run_suite(
    *, select: Optional[Sequence[str]] = None,
    progress: Optional[Callable[[str, dict], None]] = None,
) -> dict:
    """Run (a selection of) the suite and return the trajectory payload."""
    cases = select_cases(select)
    results: Dict[str, dict] = {}
    for case in cases:
        _log.info("benchmark starting", case=case.name)
        record = run_case(case)
        results[case.name] = record
        _log.info("benchmark finished", case=case.name,
                  wall_best=record["wall_best"])
        if progress is not None:
            progress(case.name, record)
    return {
        "schema": BENCH_SCHEMA,
        "created_at": _dt.datetime.now(_dt.timezone.utc).isoformat(),
        "repeats": REPEATS,
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
    record per file, oldest first: path, creation date, git sha and the
    per-case best wall times.
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
            "cases": {
                name: record.get("wall_best")
                for name, record in payload.get("results", {}).items()
            },
        })
    records.sort(key=lambda r: r["created_at"])
    return records


def find_baseline(
    path: str | os.PathLike, *, exclude: Optional[str | os.PathLike] = None,
) -> Optional[str]:
    """The newest ``BENCH_*.json`` under ``path`` (or the file itself).

    ``exclude`` skips the file just written.  Returns None when nothing
    matches; the caller treats that as a failed comparison.
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
        candidates.append((payload.get("created_at", ""), full))
    if not candidates:
        return None
    candidates.sort()
    return candidates[-1][1]


# -- comparison / regression report --------------------------------------------

def compare_runs(baseline: dict, current: dict) -> dict:
    """Compare two trajectory payloads case by case.

    The compared quantity is ``wall_normalized`` (best wall time in
    units of the calibrations taken around it), so the ratio measures
    the code, not the hardware or the host's load at the time.  A case
    regresses when its ratio exceeds ``1 + THRESHOLD`` and improved when
    below ``1 - THRESHOLD``.  The rows carry the raw best walls for
    reading.  A current case with no baseline entry is ``MISSING`` and
    listed under ``missing``: it was compared against nothing, which
    fails the run like a regression.
    """
    rows: List[dict] = []
    regressions: List[str] = []
    missing: List[str] = []
    for name, cur in current.get("results", {}).items():
        base = baseline.get("results", {}).get(name)
        if base is None:
            missing.append(name)
            rows.append({"name": name, "status": "MISSING",
                         "baseline_wall": None,
                         "current_wall": cur["wall_best"], "ratio": None})
            continue
        expected = base["wall_normalized"]
        ratio = (cur["wall_normalized"] / expected if expected > 0
                 else float("inf"))
        if ratio > 1.0 + THRESHOLD:
            status = "REGRESSION"
            regressions.append(name)
        elif ratio < 1.0 - THRESHOLD:
            status = "improved"
        else:
            status = "ok"
        rows.append({"name": name, "status": status,
                     "baseline_wall": base["wall_best"],
                     "current_wall": cur["wall_best"], "ratio": ratio})
    return {
        "threshold": THRESHOLD,
        "rows": rows,
        "regressions": regressions,
        "missing": missing,
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
    title += " [ratio: calibration-normalised wall, current/baseline]"
    table = render_table(
        ["case", "baseline_ms", "current_ms", "ratio", "delta", "status"],
        rows, title=title,
    )
    failures = []
    if comparison["regressions"]:
        failures.append(f"{len(comparison['regressions'])} case(s) regressed: "
                        + ", ".join(comparison["regressions"]))
    if comparison["missing"]:
        failures.append(f"{len(comparison['missing'])} case(s) missing from "
                        "the baseline: " + ", ".join(comparison["missing"]))
    footer = (f"\nregression threshold: {comparison['threshold'] * 100:.0f}% — "
              + ("; ".join(failures) if failures else "no regressions"))
    return table + footer
