"""Self-tests of the benchmark (not part of the program's test suite).

Run from the repository root::

    python3 -m pytest -q perfbench/test_perfbench.py

Every workload runs at a tiny size, in both modes, and must emit every
metric ``BENCHMARK.json`` declares, with its unit.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "tournament": {"hosts": 1, "aging_seconds": 2200.0,
                   "healthy_seconds": 2200.0},
    "watch-replay": {"hosts": 1, "aging_seconds": 2600.0,
                     "healthy_seconds": 2600.0},
}


def _tiny(name, seed, tmp_path):
    return workloads.make(name, seed, str(tmp_path / "work"), **TINY[name])


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    """(result, verdict) of one tiny run per (workload, trace), cached."""
    cache = {}

    def get(name, trace):
        if (name, trace) not in cache:
            tmp = tmp_path_factory.mktemp(f"{name}-{int(trace)}")
            saved, run.SETUP_REPEATS = run.SETUP_REPEATS, 1
            try:
                cache[name, trace] = run.run_workload(
                    _tiny(name, 3, tmp), seconds=0.0, trace=trace,
                    expected=None, out_dir=str(tmp / "out"), seed=3)
            finally:
                run.SETUP_REPEATS = saved
            cache[name, trace][0]["artifact"] = (
                tmp / "out" / f"trace-{name}-seed3.json").exists()
        return cache[name, trace]

    return get


@pytest.mark.parametrize("trace,kind", [(False, "end_to_end"),
                                        (True, "per_layer")])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_emits_every_metric(tiny_runs, name, trace, kind):
    result, verdict = tiny_runs(name, trace)
    assert verdict.problems == []
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == run.declared_units(kind)
    assert all(isinstance(v["value"], float)
               for v in result["metrics"].values())
    assert result["artifact"] is trace


def test_tournament_split_shows_resimulation(tiny_runs):
    result, _ = tiny_runs("tournament", True)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    # Every seed is simulated once per detector of the grid.
    assert metrics["memsim.sims_per_seed"] == len(workloads.TOURNAMENT_DETECTORS)
    assert metrics["memsim.calls"] == 2 * len(workloads.TOURNAMENT_DETECTORS)
    assert metrics["perf.pool.serial_s"] > 0
    assert metrics["unattributed_share"] <= run.UNATTRIBUTED_LIMIT


def test_corrupted_payload_trips_the_check(tmp_path):
    workload = _tiny("tournament", 3, tmp_path)
    workload.prepare()
    workload.setup()
    output = workload.iterate().output
    pinned = workload.fingerprint(output)
    assert workload.check(output, pinned) == []

    corrupt = json.loads(json.dumps(output))
    cell = next(iter(corrupt["cells"].values()))
    cell["runs"][0]["duration"] += 1.0
    assert any("digest" in p for p in workload.check(corrupt, pinned))

    cell["runs"].pop()
    assert any("run seeds" in p for p in workload.check(corrupt, None))


@pytest.fixture
def tiny_watch(tmp_path):
    workload = _tiny("watch-replay", 3, tmp_path)
    workload.prepare()
    workload.setup()
    yield workload
    workload.teardown()


def test_corrupted_replay_trips_the_check(tiny_watch):
    output = tiny_watch.iterate().output
    pinned = tiny_watch.fingerprint(output)
    assert tiny_watch.check(output, pinned) == []
    output["hosts"][0]["n_indicators"] += 1
    assert tiny_watch.check(output, pinned)
    output["hosts"][0]["n_samples"] -= 1
    assert any("fed" in p for p in tiny_watch.check(output, None))
    output["hosts"].pop()
    assert any("replayed" in p for p in tiny_watch.check(output, None))


def test_read_layer_counts_the_watched_counter_only(tiny_watch):
    import repro.trace
    import tracing

    tracer = tracing.install(tracing.Tracer())
    try:
        bundle = repro.trace.read_bundle(tiny_watch.paths[0])
    finally:
        tracing.uninstall()
    assert len(bundle.names) > 1
    # float64 times and values of the watched counter, nothing else
    assert tracer.totals["trace.read"][2] == 16 * tiny_watch.lengths[0]


def test_pin_refuses_other_seeds(capsys):
    assert run.main(["--workload", "tournament", "--seed", "5", "--pin"]) == 2
    assert "--pin" in capsys.readouterr().err


def test_seeds_change_inputs_not_metric_names(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    outputs, names = [], []
    for seed in (1, 2):
        workload = _tiny("tournament", seed, tmp_path / str(seed))
        result, verdict = run.run_workload(
            workload, seconds=0.0, trace=False, expected=None,
            out_dir=str(tmp_path / "out"), seed=seed)
        outputs.append(verdict.first)
        names.append(sorted(result["metrics"]))
    assert outputs[0] != outputs[1]
    assert names[0] == names[1]


def test_bare_checkout_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tournament",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
