"""The vector engine draws its per-tick randomness one block of ticks at a
time; where the blocks fall must never show in a result.

Both tests compare whole runs bit for bit: crash times and reasons,
rejuvenation times, metadata and every trace value.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.memsim import MachineConfig, VectorFleet
from repro.simkernel import FleetRng

#: Scenario-style periodic batch job, so the ``batch`` stream is drawn too.
BATCH_JOB = (600.0, 2000, 60.0)


def aging_config(seed=11, budget=5_000.0, scale=6.0):
    base = MachineConfig.nt4(seed=seed, max_run_seconds=budget)
    return replace(base, faults=base.faults.scaled(scale))


def assert_same_results(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.crashed, a.crash_time, a.crash_reason, a.duration) == \
            (b.crashed, b.crash_time, b.crash_reason, b.duration)
        assert a.rejuvenation_times == b.rejuvenation_times
        assert a.bundle.metadata == b.bundle.metadata
        assert a.bundle.names == b.bundle.names
        for name in a.bundle.names:
            assert a.bundle[name].times.tobytes() == b.bundle[name].times.tobytes()
            assert a.bundle[name].values.tobytes() == b.bundle[name].values.tobytes()


def test_split_advance_with_rejuvenation_matches_one_advance():
    """``advance`` in uneven pieces (inside blocks, across block edges and
    on them) with a mid-run ``rejuvenate`` gives exactly the results of
    advancing straight to the rejuvenation and then to the budget."""
    cfg = aging_config()
    rejuvenate_at, hosts = 1_733.0, np.array([0, 2, 5])

    whole = VectorFleet(cfg, 6, batch_job=BATCH_JOB)
    whole.advance(rejuvenate_at)
    whole.rejuvenate(hosts)
    whole.advance(cfg.max_run_seconds)

    split = VectorFleet(cfg, 6, batch_job=BATCH_JOB)
    span = split._block_ticks * split.dt
    pieces = [0.5, 1.0, 13.7, span - 1.0, span, span + 0.25, 2 * span + 3.0,
              1_011.0, rejuvenate_at]
    for until in pieces:
        split.advance(until)
    split.rejuvenate(hosts)
    for until in [rejuvenate_at + 0.4, 1_800.0, 2_500.5, 4_999.9,
                  cfg.max_run_seconds]:
        split.advance(until)

    assert any(len(r.rejuvenation_times) == 1 for r in whole.results())
    assert any(r.crashed for r in whole.results())
    assert_same_results(split.results(), whole.results())


@pytest.mark.parametrize("block_ticks", [1, 7])
def test_block_length_never_shows(monkeypatch, block_ticks):
    """One-tick blocks draw each tick on its own, as a per-tick engine
    would; they and odd-length blocks give the default blocks' results."""
    cfg = aging_config(seed=23, budget=4_000.0)
    want = VectorFleet(cfg, 5, batch_job=BATCH_JOB).run()
    monkeypatch.setattr(FleetRng, "block_ticks", lambda self, per_tick: block_ticks)
    fleet = VectorFleet(cfg, 5, batch_job=BATCH_JOB)
    assert fleet._block_ticks == block_ticks
    assert_same_results(fleet.run(), want)
    assert any(r.crashed for r in want)
