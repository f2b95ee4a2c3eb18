"""Chaos tests: the resilience layer must survive injected kills, hangs
and transient failures, and an interrupted-then-resumed campaign must be
bit-identical to an uninterrupted one."""

import io
import json
import os
import signal
import subprocess
import sys
import time
from contextlib import suppress

import pytest

from repro.analysis import cells_payload, execute_campaign
from repro.analysis.campaign import ExperimentSpec, campaign_fingerprint
from repro.analysis.checkpoint import CampaignJournal
from repro.cli import main
from repro.exceptions import ExecutionError, TraceError, ValidationError
from repro.testing.chaos import ChaosSpec, chaos_pre_unit, slow_write


class TestChaosSpec:
    def test_rates_validated(self):
        with pytest.raises(ValidationError):
            ChaosSpec(kill_rate=1.5)
        with pytest.raises(ValidationError):
            ChaosSpec(raise_rate=-0.1)
        with pytest.raises(ValidationError):
            ChaosSpec(hang_seconds=0)
        with pytest.raises(ValidationError):
            ChaosSpec(max_failures_per_unit=0)

    def test_schedule_is_deterministic(self):
        a = ChaosSpec(kill_rate=0.4, raise_rate=0.3, seed=9)
        b = ChaosSpec(kill_rate=0.4, raise_rate=0.3, seed=9)
        assert a.scheduled_faults(32) == b.scheduled_faults(32)

    def test_seed_changes_schedule(self):
        a = ChaosSpec(kill_rate=0.5, seed=1).scheduled_faults(64)
        b = ChaosSpec(kill_rate=0.5, seed=2).scheduled_faults(64)
        assert a != b

    def test_faults_stop_after_max_failures(self):
        spec = ChaosSpec(raise_rate=1.0, max_failures_per_unit=2)
        assert spec.fault_for(0, attempt=1) == "raise"
        assert spec.fault_for(0, attempt=2) == "raise"
        assert spec.fault_for(0, attempt=3) is None

    def test_kill_takes_precedence(self):
        spec = ChaosSpec(kill_rate=1.0, hang_rate=1.0, raise_rate=1.0)
        assert spec.fault_for(5, attempt=1) == "kill"

    def test_zero_rates_never_fault(self):
        assert ChaosSpec().scheduled_faults(100) == {}

    def test_pre_unit_clean_for_unscheduled_unit(self):
        chaos_pre_unit(ChaosSpec(), index=0, attempt=1)  # must not raise


class TestSlowWrite:
    def test_writes_everything_in_chunks(self):
        sink = io.StringIO()
        slow_write(sink, "x" * 300, chunk_size=64, delay=0.0)
        assert sink.getvalue() == "x" * 300

    def test_validation(self):
        with pytest.raises(ValidationError):
            slow_write(io.StringIO(), "x", chunk_size=0)
        with pytest.raises(ValidationError):
            slow_write(io.StringIO(), "x", delay=-1)


@pytest.fixture(scope="module")
def specs():
    return [
        ExperimentSpec(name="aging", scenario="stress", n_runs=2,
                       base_seed=31, max_run_seconds=20_000.0),
        ExperimentSpec(name="healthy", scenario="stress", n_runs=2,
                       base_seed=131, fault_factor=0.0,
                       max_run_seconds=6_000.0),
    ]


@pytest.fixture(scope="module")
def reference(specs):
    """The calm, uninterrupted campaign every chaos run must reproduce."""
    return cells_payload(execute_campaign(specs).results)


def partial_kill_spec(n_units):
    """A kill schedule that sabotages some but not all of ``n_units``."""
    for seed in range(64):
        chaos = ChaosSpec(kill_rate=0.5, seed=seed)
        n = len(chaos.scheduled_faults(n_units))
        if 0 < n < n_units:
            return chaos
    raise AssertionError("no partial kill schedule found")  # pragma: no cover


def last_unit_hang_spec(n_units):
    """A hang schedule that stalls only the last of ``n_units``.

    The pool hands results back in unit order, so every earlier unit
    reaches the journal while the hung one holds the campaign mid-run.
    """
    for seed in range(64):
        chaos = ChaosSpec(hang_rate=0.3, seed=seed)
        if chaos.scheduled_faults(n_units) == {n_units - 1: "hang"}:
            return chaos
    raise AssertionError("no last-unit hang schedule found")  # pragma: no cover


class TestChaosCampaign:
    def test_retries_converge_to_calm_payload(self, specs, reference):
        # Workers die and units raise on first attempts; with a retry
        # budget the campaign must still produce the calm run's payload.
        chaos = ChaosSpec(kill_rate=0.5, raise_rate=0.5, seed=7)
        outcome = execute_campaign(specs, workers=2, retries=2,
                                   backoff_base=0.01, chaos=chaos)
        assert outcome.complete
        assert cells_payload(outcome.results) == reference

    def test_interrupted_then_resumed_equals_uninterrupted(
            self, specs, reference, tmp_path):
        journal = tmp_path / "campaign.jsonl"
        chaos = partial_kill_spec(4)

        # First run: workers get killed, no retry budget — ends
        # incomplete, with the surviving units checkpointed.
        first = execute_campaign(specs, workers=2, journal=journal,
                                 chaos=chaos, allow_partial=True)
        assert not first.complete
        assert first.status == "incomplete"
        assert first.missing
        assert first.missing_cells

        # Resume: only the missing units execute; the final payload is
        # bit-identical to the run nothing ever interrupted.
        resumed = execute_campaign(specs, workers=2, journal=journal,
                                   resume=True)
        assert resumed.complete
        assert resumed.resumed_units == 4 - len(first.missing)
        assert resumed.executed_units == len(first.missing)
        assert cells_payload(resumed.results) == reference

    def test_resume_tolerates_truncated_final_line(
            self, specs, reference, tmp_path):
        journal = tmp_path / "campaign.jsonl"
        execute_campaign(specs, journal=journal)
        with open(journal, "a") as handle:
            handle.write('{"kind": "unit", "key": "aging#9", ')  # SIGKILL here
        resumed = execute_campaign(specs, journal=journal, resume=True)
        assert resumed.complete
        assert resumed.resumed_units == 4
        assert resumed.executed_units == 0
        assert cells_payload(resumed.results) == reference

    def test_resume_from_complete_journal_executes_nothing(
            self, specs, reference, tmp_path):
        journal = tmp_path / "campaign.jsonl"
        execute_campaign(specs, journal=journal)
        again = execute_campaign(specs, journal=journal, resume=True)
        assert again.resumed_units == 4
        assert again.executed_units == 0
        assert cells_payload(again.results) == reference

    def test_resume_requires_journal(self, specs):
        with pytest.raises(ValidationError, match="journal"):
            execute_campaign(specs, resume=True)

    def test_foreign_journal_refused(self, specs, tmp_path):
        journal = tmp_path / "other.jsonl"
        with CampaignJournal(journal, fingerprint="not-this-campaign") as j:
            j.record_unit("aging#0", {"seed": 31})
        from repro.exceptions import TraceError

        with pytest.raises(TraceError, match="different campaign"):
            execute_campaign(specs, journal=journal, resume=True)

    def test_permanent_failures_raise_without_allow_partial(self, specs):
        chaos = ChaosSpec(raise_rate=1.0, seed=1, max_failures_per_unit=99)
        with pytest.raises(ExecutionError, match="incomplete"):
            execute_campaign(specs, chaos=chaos)

    def test_partial_outcome_lists_missing_units(self, specs):
        chaos = ChaosSpec(raise_rate=1.0, seed=1, max_failures_per_unit=99)
        outcome = execute_campaign(specs, chaos=chaos, allow_partial=True)
        assert outcome.status == "incomplete"
        assert len(outcome.missing) == 4
        assert {(u.cell, u.run_index) for u in outcome.missing} == {
            ("aging", 0), ("aging", 1), ("healthy", 0), ("healthy", 1)}
        assert all("injected" in u.error for u in outcome.missing)
        assert outcome.missing_cells == ["aging", "healthy"]
        for cell in outcome.results.values():
            assert cell.runs == []

    def test_fingerprint_covers_seeds(self, specs):
        bumped = [ExperimentSpec(name=s.name, scenario=s.scenario,
                                 n_runs=s.n_runs, base_seed=s.base_seed + 1,
                                 fault_factor=s.fault_factor,
                                 max_run_seconds=s.max_run_seconds)
                  for s in specs]
        assert campaign_fingerprint(specs) != campaign_fingerprint(bumped)


def _journaled_units(path):
    try:
        return len(CampaignJournal.load(path))
    except (OSError, TraceError):  # not created, or header not yet written
        return 0


class TestParentKill:
    """SIGKILL a real campaign process mid-run, then ``--resume`` it."""

    CAMPAIGN = ["campaign", "--runs", "2", "--max-seconds", "4000",
                "--base-seed", "42"]

    def test_killed_parent_resumes_to_calm_payload(self, tmp_path, capsys):
        calm, resumed = tmp_path / "calm.json", tmp_path / "resumed.json"
        journal = tmp_path / "journal.jsonl"
        assert main(self.CAMPAIGN + ["--workers", "1", "--out", str(calm)]) == 0

        # Object engine: one pool unit per host, 2 cells x 2 runs.  The
        # last unit hangs, so once the journal holds the other three the
        # parent is certainly still mid-run.
        n_units = 4
        chaos = last_unit_hang_spec(n_units)
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *self.CAMPAIGN,
             "--workers", "2", "--journal", str(journal),
             "--chaos", f"hang={chaos.hang_rate:g},seed={chaos.seed}"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            start_new_session=True)
        try:
            deadline = time.monotonic() + 120
            while _journaled_units(journal) < n_units - 1:
                assert proc.poll() is None, "campaign exited mid-test"
                assert time.monotonic() < deadline, "journal never filled"
                time.sleep(0.05)
        finally:
            # The whole process group: the parent and its pool workers.
            with suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
        assert proc.returncode == -signal.SIGKILL
        assert _journaled_units(journal) == n_units - 1

        assert main(self.CAMPAIGN + ["--journal", str(journal), "--resume",
                                     "--out", str(resumed)]) == 0
        out = capsys.readouterr().out
        assert (f"resumed {n_units - 1} unit(s)" in out
                and "executed 1 fresh" in out)
        assert _journaled_units(journal) == n_units
        assert json.loads(resumed.read_text()) == json.loads(calm.read_text())
