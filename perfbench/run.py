#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload tournament --seed 0 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` alternates untraced and traced iterations, prints the
per-layer table, writes the traced spans to
``.perfbench/trace-<workload>-seed<seed>.json`` and reports the
per-layer metrics; it fails when the layers leave more than
``UNATTRIBUTED_LIMIT`` of the traced process time unattributed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 only when every output was correct.  ``--pin`` (default seed only)
rewrites that seed's digests in ``expected.json`` from this run's output.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
EXPECTED = os.path.join(HERE, "expected.json")

#: Set-ups per run; setup_s is their median.
SETUP_REPEATS = 3
#: Largest share of traced process time the layers may leave uncovered.
UNATTRIBUTED_LIMIT = 0.15


def declared_units(kind: str) -> dict:
    """Metric name -> unit for ``kind`` (``end_to_end``/``per_layer``), as
    ``BENCHMARK.json`` declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="record this run's default-seed digests")
    return parser.parse_args(argv)


def peak_rss_mb() -> float:
    """Peak RSS of this process or of its largest finished child (pool
    workers are joined before a campaign returns)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child) / 1024.0


def _pinned(name: str):
    with open(EXPECTED) as handle:
        return json.load(handle).get(name)


def _pin(name: str, fingerprint: dict) -> None:
    pins = {}
    if os.path.exists(EXPECTED):
        with open(EXPECTED) as handle:
            pins = json.load(handle)
    pins[name] = fingerprint
    with open(EXPECTED, "w") as handle:
        json.dump(pins, handle, indent=2, sort_keys=True)
        handle.write("\n")


class Verdict:
    """Correctness of every pass: checks against the inputs, pinned
    digests for the default seed, and identical output on every pass."""

    def __init__(self, workload, expected) -> None:
        self.workload = workload
        self.expected = expected
        self.first = None
        self.problems = []
        self.attempted = 0
        self.failed = 0

    def add(self, result) -> None:
        self.attempted += result.attempted
        self.failed += result.failed
        fingerprint = self.workload.fingerprint(result.output)
        if self.first is None:
            self.first = fingerprint
            self.problems += self.workload.check(result.output, self.expected)
        elif fingerprint != self.first:
            self.problems.append("output differs between passes")


def _seconds(values) -> str:
    return ", ".join(f"{v:.3f}" for v in values) + " s"


def _timed_pass(workload):
    """(result, wall seconds) of one pass.

    The pass's cyclic garbage, which holds the trace store's memory maps
    on ``watch-replay``, is collected after the clock stops: left to the
    collector, it piles up across passes until a collection happens to
    run, and peak RSS would read 90-180 MB for the same run.
    """
    t0 = time.perf_counter()
    result = workload.iterate()
    wall = time.perf_counter() - t0
    gc.collect()
    return result, wall


def _another(start: float, seconds: float, last: float) -> bool:
    """True while one more pass as long as ``last`` would end nearer to
    ``seconds`` after ``start`` than stopping now does.  A run makes at
    least one pass, and a long pass is not repeated just to fill the
    time."""
    return time.perf_counter() - start + last / 2 < seconds


def measure(workload, seconds: float, verdict: Verdict) -> dict:
    """End-to-end metrics with tracing off: the median of
    ``SETUP_REPEATS`` set-ups, rates of the fastest pass, and peak RSS
    through the set-ups and the first pass.

    The benchmark machine's interference only ever adds time, in bursts
    that can cover half a run, so the fastest of many passes is steadier
    than their median (see ``NOTES.md``, "Steadiness").  Peak RSS stops
    at the first pass because a second tournament pass adds 5-15% (its
    pool workers fork from a parent that has run the grid before), so a
    peak taken at the end would depend on how many passes fit.
    """
    workload.prepare()
    setups, walls, runs, samples = [], [], [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - t0)
        gc.collect()
    start = time.perf_counter()
    while True:
        result, wall = _timed_pass(workload)
        verdict.add(result)
        walls.append(wall)
        runs.append(result.runs / wall)
        samples.append(result.samples / wall)
        if len(walls) == 1:
            rss = peak_rss_mb()
        if not _another(start, seconds, wall):
            break
    print(f"{workload.name}: set-ups {_seconds(setups)}; "
          f"{len(walls)} pass(es) {_seconds(walls)}")
    return {
        "setup_s": statistics.median(setups),
        "runs_per_s": max(runs),
        "samples_per_s": max(samples),
        "peak_rss_mb": rss,
    }


def measure_traced(workload, seconds: float, verdict: Verdict,
                   seed: int, out_dir: str) -> dict:
    """Per-layer metrics: untraced and traced passes alternate, so the
    difference of their medians is the tracing overhead."""
    import tracing
    from repro.obs import session as obs_session

    tracer = tracing.Tracer()
    workload.prepare()
    setup = {}
    if workload.traced_setup:
        tracing.install(tracer)
        try:
            with obs_session.telemetry_session() as session:
                workload.setup()
        finally:
            tracing.uninstall()
        tracer.collect_units(session)
        setup = tracer.combined()
        tracer.reset()
    else:
        workload.setup()

    plain, traced = [], []
    start = time.perf_counter()
    while True:
        result, wall = _timed_pass(workload)
        verdict.add(result)
        plain.append(wall)
        tracing.install(tracer)
        try:
            with obs_session.telemetry_session() as session:
                result, wall = _timed_pass(workload)
        finally:
            tracing.uninstall()
        tracer.collect_units(session)
        verdict.add(result)
        traced.append(wall)
        if not _another(start, seconds, plain[-1] + wall):
            break

    metrics = tracing.layer_metrics(
        tracer, setup=setup, iterations=len(traced), wall_s=sum(traced),
        distinct_hosts=workload.distinct_hosts)
    metrics["core.online.retained_bytes_per_sample"] = (
        workload.retained_bytes_per_sample()
        if hasattr(workload, "retained_bytes_per_sample") else 0.0)
    metrics["trace_overhead_share"] = (
        statistics.median(traced) / statistics.median(plain) - 1.0)
    _report_layers(workload.name, tracer, setup, traced, plain, metrics)
    _write_artifact(out_dir, workload.name, seed, tracer, setup, traced, plain)
    return metrics


def _report_layers(name, tracer, setup, traced, plain, metrics) -> None:
    import tracing

    n = len(traced)
    wall = sum(traced) / n
    local, combined = tracer.totals, tracer.combined()
    print(f"{name}: per-layer split over {n} traced pass(es), "
          f"{wall:.3f} s traced vs {statistics.median(plain):.3f} s "
          f"untraced per pass")
    print(f"  {'layer':<22}{'self s/pass':>12}{'parent %':>10}"
          f"{'calls/pass':>12}{'set-up s':>10}")
    for layer in tracing.LAYERS:
        entry = combined.get(layer, [0.0, 0, 0])
        own = local.get(layer, [0.0, 0, 0])[0] / n
        print(f"  {layer:<22}{entry[0] / n:>12.4f}{100 * own / wall:>10.1f}"
              f"{entry[1] / n:>12.1f}{setup.get(layer, [0.0])[0]:>10.3f}")
    print(f"  {'unattributed':<22}{'':>12}"
          f"{100 * metrics['unattributed_share']:>10.1f}")


def _write_artifact(out_dir, name, seed, tracer, setup, traced, plain) -> None:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{name}-seed{seed}.json")
    artifact = {
        "workload": name, "seed": seed,
        "traced_pass_s": traced, "untraced_pass_s": plain,
        "setup_totals": setup, "totals": tracer.totals,
        "remote_totals": tracer.remote_totals,
        "spans": tracer.spans + tracer.remote_spans,
        "units": tracer.units, "emit_s": tracer.emit_s,
    }
    with open(path, "w") as handle:
        json.dump(artifact, handle)
    print(f"{name}: spans -> {path}")


def run_workload(workload, *, seconds: float, trace: bool, expected,
                 out_dir: str, seed: int):
    """Measure ``workload``; returns (result line, verdict)."""
    verdict = Verdict(workload, expected)
    try:
        if trace:
            metrics = measure_traced(workload, seconds, verdict, seed, out_dir)
        else:
            metrics = measure(workload, seconds, verdict)
    finally:
        workload.teardown()
    units = declared_units("per_layer" if trace else "end_to_end")
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match the "
                           f"declared {sorted(units)}")
    result = {
        "correct": not verdict.problems,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    return result, verdict


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.pin and args.seed != workloads.DEFAULT_SEED:
        print(f"error: --pin records the digests of seed "
              f"{workloads.DEFAULT_SEED} only", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    expected = None
    if args.seed == workloads.DEFAULT_SEED and not args.pin:
        expected = _pinned(args.workload)
        if expected is None:
            print(f"error: no pinned digests for {args.workload}",
                  file=sys.stderr)
            return 2
    workload = workloads.make(args.workload, args.seed,
                              os.path.join(OUT, f"work-{os.getpid()}"))
    result, verdict = run_workload(
        workload, seconds=args.seconds, trace=bool(args.trace),
        expected=expected, out_dir=OUT, seed=args.seed)

    for problem in verdict.problems:
        print(f"incorrect: {problem}", file=sys.stderr)
    if args.pin and result["correct"]:
        _pin(args.workload, verdict.first)
        print(f"pinned {args.workload} digests in "
              f"{os.path.relpath(EXPECTED, ROOT)}")
    metrics = result["metrics"]
    for name, metric in metrics.items():
        print(f"{name:<40} {metric['value']:>16.6g} {metric['unit']}")
    if args.trace:
        share = metrics["unattributed_share"]["value"]
        if share > UNATTRIBUTED_LIMIT:
            print(f"error: layers leave {share:.1%} of traced process time "
                  f"unattributed (limit {UNATTRIBUTED_LIMIT:.0%})",
                  file=sys.stderr)
            return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
