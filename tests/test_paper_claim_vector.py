"""The paper's claim on the campaign path of the vector engine.

The claim: under stress, every aging host crashes, the Hölder-moment
detector alarms before each crash, and it alarms earlier than the
classical trend baseline (Mann–Kendall + Sen slope).  Here it runs as a
small holder/trend detector grid through ``execute_campaign``, the code
path campaigns and tournaments use: one NT4 stress aging cell at fault
factor 3 and a healthy control, simulated once each on the vector engine.

The hosts come from the screening rule below, which drops hosts that
crash within minutes whatever their fault load and never looks at a
detector.  A negative control moves the Hölder alarms past the crashes
and must break the claim check.
"""

import copy
import statistics

import pytest

from repro.analysis import ExperimentSpec, cells_payload, detector_grid, execute_campaign
from repro.memsim.fleet_vec import VectorFleet
from repro.memsim.scenarios import scenario_batch_job, scenario_config
from repro.stats.roc import score_detections

HOSTS = 8
FAULT_FACTOR = 3.0
#: Shortest host life the screening accepts: the Hölder analysis needs four
#: 512-sample indicator windows before it produces anything.
MIN_LIFE = 2100.0


def screened_base(seed: int) -> int:
    """First base seed ``1 + 10_000 * seed + HOSTS * k`` whose aging hosts
    ``base ..`` and healthy hosts ``base + 1000 ..`` all outlive
    :data:`MIN_LIFE` (the same rule as the benchmark tournament's)."""
    config = scenario_config("stress", profile="nt4", max_run_seconds=MIN_LIFE,
                             fault_factor=FAULT_FACTOR)
    for k in range(64):
        base = 1 + 10_000 * seed + HOSTS * k
        seeds = ([base + i for i in range(HOSTS)]
                 + [base + 1000 + i for i in range(HOSTS)])
        fleet = VectorFleet(config, seeds=seeds, collect_traces=False,
                            batch_job=scenario_batch_job("stress"))
        if not any(r.crashed for r in fleet.run()):
            return base
    raise RuntimeError(f"no screened base seed for seed {seed}")


@pytest.fixture(scope="module")
def cells():
    base = screened_base(0)
    specs = [
        ExperimentSpec(name="stress-aging", scenario="stress", profile="nt4",
                       n_runs=HOSTS, base_seed=base, fault_factor=FAULT_FACTOR,
                       max_run_seconds=80_000.0, engine="vector"),
        ExperimentSpec(name="stress-healthy", scenario="stress", profile="nt4",
                       n_runs=HOSTS, base_seed=base + 1000, fault_factor=0.0,
                       max_run_seconds=5_000.0, engine="vector"),
    ]
    outcome = execute_campaign(detector_grid(specs, ["holder", "trend"]),
                               workers=1)
    return cells_payload(outcome.results)


def claim_problems(cells) -> list:
    """Why ``cells`` fail to show the claim; empty when it holds.

    Detections are rescored from each run's alarm and crash times with
    the campaign's own rule: an alarm counts when it comes at least 60 s
    before the crash, and not in the first 5% of the host's life.
    """
    problems, leads = [], {}
    for detector in ("holder", "trend"):
        runs = cells[f"stress-aging@{detector}"]["runs"]
        if not all(r["crashed"] for r in runs):
            problems.append(f"{detector}: not every aging host crashed")
            continue
        outcome = score_detections([r["alarm_time"] for r in runs],
                                   [r["crash_time"] for r in runs],
                                   min_lead=60.0, max_lead_fraction=0.95)
        if detector == "holder" and outcome.n_detected != len(runs):
            problems.append(f"holder caught {outcome.n_detected} of "
                            f"{len(runs)} crashes")
        leads[detector] = list(outcome.lead_times)
    if leads.get("holder") and leads.get("trend"):
        holder, trend = (statistics.median(leads[d]) for d in ("holder", "trend"))
        if not holder > trend:
            problems.append(f"holder lead p50 {holder} s is not above "
                            f"trend's {trend} s")
    elif "holder" in leads:
        problems.append("no lead times to compare")
    return problems


def test_holder_precedes_every_crash_and_leads_trend(cells):
    assert len(cells["stress-aging@holder"]["runs"]) == HOSTS
    assert claim_problems(cells) == []


def test_negative_control_alarms_after_the_crash_fail(cells):
    shifted = copy.deepcopy(cells)
    for run in shifted["stress-aging@holder"]["runs"]:
        run["alarm_time"] = run["crash_time"] + 30.0
    problems = claim_problems(shifted)
    assert any(p.startswith("holder caught 0 of") for p in problems)
    assert claim_problems(cells) == []
