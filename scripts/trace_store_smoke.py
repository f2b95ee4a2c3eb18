"""Trace-store smoke: prove the columnar store works at campaign scale.

Two phases:

1. **64-run columnar campaign** — a 64-host vector fleet is simulated
   and every run's trace is written twice through ``write_bundle``: once
   as a columnar run directory, once as CSV.  Each store must read back
   bit-exact (times, values, units, metadata — with native JSON types).
2. **Analysis rebuild from the store alone** — every run is re-analysed
   twice with ``evaluate_detector``, once from the columnar store and
   once from the CSV file, with nothing shared but the path.  The two
   JSON payloads (alarm times, lead times, sample counts) must be
   byte-identical.

The >=5x columnar-over-CSV read floor is the ``trace.store`` gate of
``python -m repro bench``.

Run from the repo root::

    PYTHONPATH=src python scripts/trace_store_smoke.py [--runs N]

Exit code 0 means every check passed.  Used by the CI
``trace-store-smoke`` job and handy locally after touching the trace
codecs, the store layout or the Hölder engine registry.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

MAX_RUN_SECONDS = 12_000.0


def simulate(n_runs: int):
    from repro.memsim import MachineConfig, VectorFleet

    config = MachineConfig.nt4(seed=31, max_run_seconds=MAX_RUN_SECONDS)
    return VectorFleet(config, n_runs).run()


def phase_store(results, workdir: str) -> tuple:
    import numpy as np

    from repro.trace import is_columnar_store, read_bundle, write_bundle

    store_paths, csv_paths = [], []
    for index, result in enumerate(results):
        store = write_bundle(
            result.bundle, os.path.join(workdir, f"store/run{index:04d}"))
        csv = write_bundle(
            result.bundle, os.path.join(workdir, f"csv/run{index:04d}.csv"))
        if not is_columnar_store(store):
            raise SystemExit(f"FAIL [store]: {store} is not a columnar store")
        store_paths.append(store)
        csv_paths.append(csv)

    for result, store in zip(results, store_paths):
        back = read_bundle(store)
        if back.names != result.bundle.names:
            raise SystemExit(f"FAIL [store]: counter set changed in {store}")
        for name in back.names:
            orig, col = result.bundle[name], back[name]
            if not (np.array_equal(orig.times, col.times)
                    and np.array_equal(orig.values, col.values,
                                       equal_nan=True)
                    and orig.units == col.units):
                raise SystemExit(
                    f"FAIL [store]: {name!r} not bit-exact in {store}")
        for key, value in result.bundle.metadata.items():
            got = back.metadata.get(key)
            if got != value or type(got) is not type(value):
                raise SystemExit(
                    f"FAIL [store]: metadata {key!r} changed: "
                    f"{value!r} -> {got!r}")
    n_counters = len(results[0].bundle.names)
    print(f"ok [store]: {len(results)} runs x {n_counters} counters "
          f"written columnar + CSV; columnar read back bit-exact with "
          f"typed metadata")
    return store_paths, csv_paths


def _payload(paths) -> str:
    """Analysis payload built from trace paths alone (JSON, sorted)."""
    import numpy as np

    from repro.analysis.campaign import ExperimentSpec
    from repro.analysis.detector_registry import evaluate_detector
    from repro.trace import read_bundle

    spec = ExperimentSpec(name="smoke")
    payload = []
    for path in paths:
        bundle = read_bundle(path)
        evaluation = evaluate_detector(spec.detector_name, bundle, spec,
                                       collect_scores=False)
        crash_time = bundle.metadata.get("crash_time")
        lead = (crash_time - evaluation.alarm_time
                if crash_time is not None
                and evaluation.alarm_time is not None else None)
        payload.append({
            # Finite samples only: the CSV codec unions counter grids
            # (gap rows are NaN) while the store keeps native grids, so
            # raw lengths legitimately differ between codecs.
            "n_samples": int(np.isfinite(
                bundle[spec.counter].values).sum()),
            "crash_time": crash_time,
            "alarm_time": evaluation.alarm_time,
            "lead_time": lead,
        })
    return json.dumps(payload, sort_keys=True)


def phase_analysis(store_paths, csv_paths) -> None:
    from_store = _payload(store_paths)
    from_csv = _payload(csv_paths)
    if from_store != from_csv:
        raise SystemExit(
            "FAIL [analysis]: payload rebuilt from the columnar store "
            "differs from the CSV path:\n"
            f"store: {from_store[:400]}\n  csv: {from_csv[:400]}")
    alarms = sum(1 for entry in json.loads(from_store)
                 if entry["alarm_time"] is not None)
    print(f"ok [analysis]: {len(store_paths)} runs re-analysed from the "
          f"store alone; payload byte-identical to the CSV path "
          f"({alarms} alarms)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=64,
                        help="campaign size (default: %(default)s)")
    args = parser.parse_args(argv)

    print(f"phase 1/2: {args.runs}-run columnar campaign (vector fleet)")
    results = simulate(args.runs)
    with tempfile.TemporaryDirectory(prefix="trace-store-smoke-") as workdir:
        store_paths, csv_paths = phase_store(results, workdir)

        print("phase 2/2: analysis rebuild from the store alone")
        phase_analysis(store_paths, csv_paths)

    print("trace-store smoke passed: columnar campaign and analysis "
          "rebuild all good")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
