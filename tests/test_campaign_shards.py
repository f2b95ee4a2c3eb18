"""Campaign work units: each host is simulated once, in the worker, and
scored there by every detector family of its cell's grid."""

import json

import pytest

from repro import obs
from repro.analysis import (
    ExperimentSpec,
    cells_payload,
    detector_grid,
    execute_campaign,
)
from repro.analysis.campaign import campaign_fingerprint
from repro.analysis.checkpoint import CampaignJournal
from repro.memsim.fleet_vec import VectorFleet
from repro.memsim.machine import Machine

FAMILIES = ["holder", "trend", "entropy"]


def _cells(engine):
    return [
        ExperimentSpec(name="aging", scenario="stress", n_runs=3,
                       base_seed=17, fault_factor=4.0,
                       max_run_seconds=2_500.0, engine=engine),
        ExperimentSpec(name="healthy", scenario="stress", n_runs=2,
                       base_seed=117, fault_factor=0.0,
                       max_run_seconds=2_000.0, engine=engine),
    ]


@pytest.fixture
def counted(monkeypatch):
    """Count simulations through telemetry counters, which pool workers
    (forked with the patched classes) ship home: ``test.sims.<seed>``
    per simulated host and ``test.fleets`` per ``VectorFleet.run``."""
    vector_run, machine_run = VectorFleet.run, Machine.run

    def vector(fleet):
        obs.counter("test.fleets").inc()
        for seed in fleet._seeds:
            obs.counter(f"test.sims.{int(seed)}").inc()
        return vector_run(fleet)

    def machine(self):
        obs.counter(f"test.sims.{self.config.seed}").inc()
        return machine_run(self)

    monkeypatch.setattr(VectorFleet, "run", vector)
    monkeypatch.setattr(Machine, "run", machine)

    def run(specs, **kwargs):
        with obs.telemetry_session() as session:
            outcome = execute_campaign(specs, **kwargs)
            snapshot = session.metrics.snapshot()
        sims = {int(name.rsplit(".", 1)[1]): int(state["value"])
                for name, state in snapshot.items()
                if name.startswith("test.sims.")}
        fleets = int(snapshot.get("test.fleets", {}).get("value", 0))
        return outcome, sims, fleets

    return run


@pytest.fixture(scope="module", params=["object", "vector"])
def oracle(request):
    """Each ``<cell>@<detector>`` spec run alone, payloads merged."""
    grid = detector_grid(_cells(request.param), FAMILIES)
    merged = {}
    for spec in grid:
        merged.update(cells_payload(execute_campaign([spec]).results))
    return request.param, grid, merged


class TestGridSimulatesOnce:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_grid_matches_specs_run_alone(self, oracle, counted, workers):
        engine, grid, merged = oracle
        outcome, sims, _ = counted(grid, workers=workers)
        assert cells_payload(outcome.results) == merged
        assert outcome.executed_units == sum(s.n_runs for s in grid)
        # Every host of every cell ran exactly once, for all families.
        hosts = [c.base_seed + i for c in _cells(engine)
                 for i in range(c.n_runs)]
        assert sims == {seed: 1 for seed in hosts}

    def test_vector_cell_sharded_matches_one_fleet(self, counted):
        cell = _cells("vector")[:1]
        one, sims_one, fleets_one = counted(cell, workers=1)
        two, sims_two, fleets_two = counted(cell, workers=2)
        assert (fleets_one, fleets_two) == (1, 2)
        assert sims_one == sims_two == {17: 1, 18: 1, 19: 1}
        assert cells_payload(one.results) == cells_payload(two.results)


class TestPartialGroupResume:
    @pytest.mark.parametrize("engine", ["object", "vector"])
    def test_only_pending_hosts_simulated(self, tmp_path, counted, engine):
        grid = detector_grid(_cells(engine)[:1], ["holder", "trend"])
        full = tmp_path / "full.jsonl"
        reference = cells_payload(execute_campaign(grid, journal=full).results)

        # Interrupted mid-group: every holder record and trend#1 landed;
        # trend#0 and trend#2 did not.
        kept = {"aging@holder#0", "aging@holder#1", "aging@holder#2",
                "aging@trend#1"}
        fingerprint = campaign_fingerprint(grid)
        units = CampaignJournal.read_state(full, fingerprint=fingerprint).units
        journal = tmp_path / "partial.jsonl"
        with CampaignJournal(journal, fingerprint=fingerprint) as handle:
            for key in sorted(kept):
                handle.record_unit(key, units[key])

        resumed, sims, _ = counted(grid, workers=2, journal=journal,
                                   resume=True)
        assert sims == {17: 1, 19: 1}
        assert resumed.resumed_units == 4
        assert resumed.executed_units == 2
        with open(journal) as lines:
            records = [json.loads(line) for line in lines]
        recorded = [r["key"] for r in records if r["kind"] == "unit"]
        assert recorded[:len(kept)] == sorted(kept)
        assert sorted(recorded[len(kept):]) == ["aging@trend#0",
                                                "aging@trend#2"]
        assert cells_payload(resumed.results) == reference
