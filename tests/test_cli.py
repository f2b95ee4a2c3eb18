"""Tests for the command-line interface."""

import json

import numpy as np
import pytest

from repro import obs
from repro.cli import build_parser, main
from repro.memsim import Machine, MachineConfig
from repro.trace import write_csv


@pytest.fixture(scope="module")
def short_trace(tmp_path_factory):
    """A quick crash-run trace archived to CSV."""
    path = tmp_path_factory.mktemp("cli") / "run.csv"
    result = Machine(MachineConfig.nt4(seed=11, max_run_seconds=40_000)).run()
    write_csv(result.bundle, path)
    return path, result


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_args(self):
        args = build_parser().parse_args(
            ["simulate", "--profile", "w2k", "--seed", "3", "--out", "x.csv"])
        assert args.profile == "w2k"
        assert args.seed == 3

    def test_analyze_args(self):
        args = build_parser().parse_args(
            ["analyze", "trace.csv", "--scheme", "ewma"])
        assert args.trace == "trace.csv"
        assert args.scheme == "ewma"

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_telemetry_flags_on_every_workload_command(self):
        for base in (["simulate", "--out", "x.csv"],
                     ["analyze", "t.csv"],
                     ["validate"],
                     ["campaign"]):
            args = build_parser().parse_args(
                base + ["--log-level", "debug", "--telemetry-out", "runs/d"])
            assert args.log_level == "debug"
            assert args.telemetry_out == "runs/d"

    def test_simulate_accepts_scenario_profiles(self):
        args = build_parser().parse_args(
            ["simulate", "--profile", "stress", "--telemetry-out", "d"])
        assert args.profile == "stress"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--profile", "bogus"])

    def test_telemetry_args(self):
        args = build_parser().parse_args(["telemetry", "runs/", "--metrics"])
        assert args.path == "runs/"
        assert args.metrics
        assert args.format == "table"

    def test_telemetry_format_choices(self):
        for fmt in ("table", "json", "csv", "prom"):
            args = build_parser().parse_args(
                ["telemetry", "runs/", "--format", fmt])
            assert args.format == fmt
        with pytest.raises(SystemExit):
            build_parser().parse_args(["telemetry", "runs/", "--format", "xml"])

    def test_bench_args(self):
        args = build_parser().parse_args(
            ["bench", "--select", "trace,online", "--baseline", "b.json"])
        assert args.select == "trace,online"
        assert args.baseline == "b.json"
        defaults = build_parser().parse_args(["bench"])
        assert defaults.out == "benchmarks/results"
        assert defaults.baseline == "benchmarks/baselines"
        for removed in (["--quick"], ["--repeats", "2"], ["--no-memory"],
                        ["--no-normalize"], ["--threshold", "0.5"],
                        ["--no-compare"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["bench", *removed])

    def test_perf_profile_flags_on_every_command(self):
        for base in (["simulate", "--out", "x.csv"],
                     ["analyze", "t.csv"],
                     ["validate"],
                     ["campaign"],
                     ["bench"],
                     ["watch"],
                     ["dashboard", "x.jsonl"]):
            args = build_parser().parse_args(base + ["--perf-profile"])
            assert args.perf_profile
            assert not args.perf_memory

    def test_watch_args(self):
        args = build_parser().parse_args(
            ["watch", "--scenario", "stress", "--seed", "3",
             "--alerts", "rules.toml", "--timeline", "out.jsonl",
             "--chunk-size", "64"])
        assert args.scenario == "stress"
        assert args.alerts == "rules.toml"
        assert args.timeline == "out.jsonl"
        assert args.chunk_size == 64
        defaults = build_parser().parse_args(["watch"])
        assert defaults.scenario is None and defaults.trace is None
        assert defaults.counter == "AvailableBytes"
        # --scenario and --trace are mutually exclusive sources.
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["watch", "--scenario", "stress", "--trace", "x.csv"])

    def test_dashboard_args(self):
        args = build_parser().parse_args(
            ["dashboard", "out.jsonl", "-o", "report.html"])
        assert args.path == "out.jsonl"
        assert args.out == "report.html"


class TestCommands:
    def test_simulate_writes_csv(self, tmp_path):
        out = tmp_path / "sim.csv"
        code = main(["simulate", "--seed", "2", "--max-seconds", "3000",
                     "--out", str(out)])
        assert code == 0
        assert out.exists()
        text = out.read_text()
        assert "AvailableBytes" in text

    def test_simulate_fault_factor(self, tmp_path):
        out = tmp_path / "sim.csv"
        code = main(["simulate", "--seed", "2", "--max-seconds", "2000",
                     "--fault-factor", "2.0", "--out", str(out)])
        assert code == 0

    def test_analyze_reports_lead(self, short_trace, capsys):
        path, result = short_trace
        code = main(["analyze", str(path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "WARNING at" in out
        assert "lead time" in out

    def test_analyze_unknown_counter(self, short_trace, capsys):
        path, __ = short_trace
        code = main(["analyze", str(path), "--counter", "Bogus"])
        assert code == 2
        assert "available" in capsys.readouterr().err

    def test_analyze_variance_indicator(self, short_trace, capsys):
        path, __ = short_trace
        code = main(["analyze", str(path), "--indicator", "variance"])
        assert code == 0
        assert "variance" in capsys.readouterr().out

    def test_validate_passes(self, capsys):
        code = main(["validate"])
        assert code == 0
        assert "all checks passed" in capsys.readouterr().out

    def test_campaign_runs_and_persists(self, tmp_path, capsys):
        out = tmp_path / "campaign.json"
        code = main(["campaign", "--runs", "1", "--max-seconds", "40000",
                     "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "Campaign results" in text
        assert out.exists()

    def test_campaign_parser_defaults(self):
        args = build_parser().parse_args(["campaign"])
        assert args.scenario == "stress"
        assert args.runs == 3


class TestTelemetryCli:
    """The observability surface: --log-level, --telemetry-out, telemetry."""

    @pytest.fixture
    def run_dir(self, tmp_path):
        """A telemetry-instrumented short simulate run."""
        out = tmp_path / "run"
        code = main(["simulate", "--seed", "5", "--max-seconds", "3000",
                     "--telemetry-out", str(out)])
        assert code == 0
        return out

    def test_simulate_needs_out_or_telemetry(self, capsys):
        code = main(["simulate", "--seed", "1"])
        assert code == 2
        assert "telemetry-out" in capsys.readouterr().err

    def test_simulate_writes_manifest_with_spans_and_metrics(self, run_dir):
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["schema"] == obs.MANIFEST_SCHEMA
        assert manifest["command"] == "simulate"
        assert manifest["seed"] == 5
        named = {s["name"] for s in manifest["spans"]}
        assert len(named) >= 3
        assert {"machine-setup", "machine-run", "machine-collect"} <= named
        assert all(s["duration"] is not None for s in manifest["spans"])
        assert manifest["metrics"]["sim.events_fired"]["value"] > 0
        assert manifest["outcome"]["exit_code"] == 0
        assert (run_dir / "events.jsonl").exists()

    def test_telemetry_session_closed_after_main(self, run_dir):
        assert not obs.telemetry_enabled()

    def test_telemetry_subcommand_renders_summary(self, run_dir, capsys):
        code = main(["telemetry", str(run_dir)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Telemetry summary" in out
        assert "simulate" in out
        assert "stage durations" in out

    def test_telemetry_subcommand_metrics_flag(self, run_dir, capsys):
        code = main(["telemetry", str(run_dir), "--metrics"])
        assert code == 0
        assert "sim.events_fired" in capsys.readouterr().out

    def test_telemetry_subcommand_missing_path(self, tmp_path, capsys):
        code = main(["telemetry", str(tmp_path / "nope")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_log_level_emits_structured_lines(self, tmp_path, capsys):
        code = main(["simulate", "--seed", "5", "--max-seconds", "2000",
                     "--out", str(tmp_path / "t.csv"), "--log-level", "info"])
        assert code == 0
        err = capsys.readouterr().err
        assert "repro.memsim.machine: run starting" in err
        assert "seed=5" in err

    def test_scenario_profile_simulate(self, tmp_path):
        out = tmp_path / "scen"
        code = main(["simulate", "--profile", "webserver", "--seed", "2",
                     "--max-seconds", "2000", "--telemetry-out", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["profile"] == "webserver"

    def test_telemetry_format_json(self, run_dir, capsys):
        code = main(["telemetry", str(run_dir), "--format", "json"])
        assert code == 0
        records = json.loads(capsys.readouterr().out)
        assert records[0]["command"] == "simulate"
        assert records[0]["metrics"]["sim.events_fired.value"] > 0

    def test_telemetry_format_csv(self, run_dir, capsys):
        code = main(["telemetry", str(run_dir), "--format", "csv"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "run,command,seed,metric,value"
        assert any("run.wall_seconds" in line for line in lines[1:])

    def test_telemetry_format_prom(self, run_dir, capsys):
        code = main(["telemetry", str(run_dir), "--format", "prom"])
        assert code == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_sim_events_fired counter" in out
        assert "repro_sim_events_fired_total" in out
        assert out.endswith("# EOF\n")

    def test_failing_run_still_writes_error_manifest(self, tmp_path, capsys):
        out = tmp_path / "failed-run"
        with pytest.raises(FileNotFoundError):
            main(["analyze", str(tmp_path / "nope.csv"),
                  "--telemetry-out", str(out)])
        assert not obs.telemetry_enabled()  # session still torn down
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outcome"]["status"] == "error"
        assert manifest["outcome"]["error"]["type"] == "FileNotFoundError"
        assert manifest["outcome"]["exit_code"] is None

    def test_perf_profile_into_manifest(self, tmp_path):
        out = tmp_path / "profiled"
        code = main(["simulate", "--seed", "5", "--max-seconds", "3000",
                     "--telemetry-out", str(out), "--perf-profile"])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        hotpaths = manifest["profile"]["hotpaths"]
        assert "memsim.machine_run" in hotpaths
        assert "simkernel.run_until" in hotpaths
        assert hotpaths["memsim.machine_run"]["calls"] == 1

    def test_perf_profile_prints_table_without_manifest(self, tmp_path, capsys):
        code = main(["simulate", "--seed", "5", "--max-seconds", "2000",
                     "--out", str(tmp_path / "t.csv"), "--perf-profile"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Hot-path profile" in out
        assert "memsim.machine_run" in out


@pytest.fixture
def stub_suite(monkeypatch):
    """Replace the gated cases with one cheap deterministic case."""
    from repro.obs import bench

    monkeypatch.setattr(bench, "SUITE", (
        bench.BenchCase("stub.case", "stub", "cheap stub case",
                        lambda: lambda: 1000),))
    return "stub.case"


def _write_baseline(directory, walls):
    """A doctored baseline file holding ``walls`` (case -> wall_normalized)."""
    from repro.obs import bench

    directory.mkdir(parents=True, exist_ok=True)
    payload = {
        "schema": bench.BENCH_SCHEMA,
        "created_at": "2000-01-01T00:00:00+00:00",
        "repeats": 3,
        "environment": {"git_sha": "oldsha1"},
        "results": {name: {"wall_best": wall, "wall_normalized": wall}
                    for name, wall in walls.items()},
    }
    return bench.write_bench_file(payload, directory)


class TestBenchCli:
    def test_list_cases_mode(self, capsys):
        code = main(["bench", "--list-cases"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Benchmark suite" in out
        for name in ("memsim.fleet_vec", "memsim.fleet_vec_equiv",
                     "campaign.parallel", "online.stream", "trace.store"):
            assert name in out

    def test_list_mode_empty(self, tmp_path, capsys):
        code = main(["bench", "--list", "--out", str(tmp_path / "none")])
        assert code == 0
        assert "no BENCH_" in capsys.readouterr().out

    def test_list_mode_tabulates_trajectories(self, tmp_path, capsys):
        from repro.obs import bench

        payload = {
            "schema": bench.BENCH_SCHEMA,
            "created_at": "2026-08-06T10:00:00+00:00",
            "repeats": 3,
            "environment": {"git_sha": "abc1234def"},
            "results": {"trace.store": {"wall_best": 0.0123}},
        }
        bench.write_bench_file(payload, tmp_path)
        code = main(["bench", "--list", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "2026-08-06" in out
        assert "abc1234" in out
        assert "trace.store" in out
        assert "missing" in out  # the other gates are not in this file

    def test_quick_run_writes_trajectory(self, stub_suite, tmp_path, capsys):
        # A baseline of 1000 calibrations per iteration makes the stub's
        # ratio ~0: no timing noise.
        baseline = _write_baseline(tmp_path / "base", {stub_suite: 1e3})
        code = main(["bench", "--out", str(tmp_path / "out"),
                     "--baseline", baseline])
        assert code == 0
        out = capsys.readouterr().out
        assert "improved" in out
        files = list((tmp_path / "out").glob("BENCH_*.json"))
        assert len(files) == 1
        payload = json.loads(files[0].read_text())
        assert payload["schema"] == "repro.bench-trajectory/2"
        assert payload["repeats"] == 3
        assert stub_suite in payload["results"]

    def test_second_run_compares_against_first(self, stub_suite, tmp_path,
                                               capsys):
        from repro.obs import bench

        out_dir = tmp_path / "runs"
        first_baseline = _write_baseline(tmp_path / "base", {stub_suite: 1e3})
        argv = ["bench", "--out", str(out_dir)]
        assert main(argv + ["--baseline", first_baseline]) == 0
        # Back-date and doctor the first file so the second run gets a
        # distinct name and compares against it without timing noise.
        first = bench.find_baseline(out_dir)
        payload = json.loads(open(first).read())
        payload["created_at"] = "2000-01-01T00:00:00+00:00"
        payload["results"][stub_suite]["wall_normalized"] = 1e3
        import os
        os.remove(first)
        older = out_dir / "BENCH_20000101_oldsha1.json"
        older.write_text(json.dumps(payload))
        capsys.readouterr()
        # --baseline is the --out directory: the file just written is
        # never its own baseline.
        assert main(argv + ["--baseline", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "Perf trajectory vs baseline" in out
        assert str(older) in out
        assert "no regressions" in out

    def test_regression_fails_run(self, stub_suite, tmp_path, capsys):
        # A baseline claiming the workload once took ~0 seconds forces
        # every ratio past the threshold, calibration or not.
        baseline = _write_baseline(tmp_path / "base", {stub_suite: 1e-12})
        code = main(["bench", "--out", str(tmp_path / "out"),
                     "--baseline", baseline])
        assert code == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out

    def test_missing_baseline_entry_fails_run(self, stub_suite, tmp_path,
                                              capsys):
        # The baseline holds other cases but not the selected one: the
        # case was compared against nothing, which must fail the run.
        baseline = _write_baseline(tmp_path / "base", {"other.case": 1e3})
        code = main(["bench", "--out", str(tmp_path / "out"),
                     "--baseline", baseline])
        assert code == 1
        out = capsys.readouterr().out
        assert "MISSING" in out
        assert "missing from the baseline: stub.case" in out

    def test_baseline_path_without_files_fails_run(self, stub_suite, tmp_path,
                                                   capsys):
        (tmp_path / "empty").mkdir()
        code = main(["bench", "--out", str(tmp_path / "out"),
                     "--baseline", str(tmp_path / "empty")])
        assert code == 1
        assert "no BENCH_*.json baseline" in capsys.readouterr().err


class TestWatchCli:
    def test_watch_replay_full_pipeline(self, short_trace, tmp_path, capsys):
        path, result = short_trace
        rules = tmp_path / "rules.toml"
        rules.write_text(
            '[[rule]]\nname = "low-mem"\nsignal = "AvailableBytes"\n'
            'kind = "threshold"\nop = "lt"\nvalue = 100e6\n'
            'severity = "critical"\n'
        )
        timeline_path = tmp_path / "out.jsonl"
        html_path = tmp_path / "report.html"
        code = main(["watch", "--trace", str(path),
                     "--alerts", str(rules),
                     "--timeline", str(timeline_path),
                     "--dashboard", str(html_path),
                     "--quiet"])
        assert code == 0
        out = capsys.readouterr().out
        assert "ALARM" in out
        assert "crashed" in out

        # The stream on disk validates and the alarm precedes the crash.
        from repro.obs.live import validate_watch_timeline
        from repro.obs.timeline import read_timeline

        records = read_timeline(timeline_path)
        counts = validate_watch_timeline(records)
        assert counts["alarm"] == 1
        assert counts["crash"] == 1
        end = records[-1]
        assert end["kind"] == "end"
        assert end["alarm_time"] < end["crash_time"]
        assert end["crash_time"] == pytest.approx(result.crash_time)
        assert counts.get("alert", 0) >= 1

        # The dashboard rendered alongside, self-contained.
        html = html_path.read_text()
        assert html.startswith("<!DOCTYPE html>")
        assert "<svg" in html

    def test_watch_missing_rules_file(self, short_trace, tmp_path, capsys):
        path, _ = short_trace
        code = main(["watch", "--trace", str(path),
                     "--alerts", str(tmp_path / "nope.toml"), "--quiet"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_watch_bad_counter(self, short_trace, capsys):
        path, _ = short_trace
        code = main(["watch", "--trace", str(path),
                     "--counter", "NoSuchCounter", "--quiet"])
        assert code == 2
        assert "NoSuchCounter" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, name", [
        (["--history", "100"], "history"),
        (["--indicator-window", "8"], "indicator_window"),
        (["--indicator-window", "4096"], "indicator_window"),
        (["--chunk-size", "4"], "chunk_size"),
    ])
    def test_watch_bad_monitor_geometry(self, short_trace, capsys, flags,
                                        name):
        path, _ = short_trace
        code = main(["watch", "--trace", str(path), "--quiet", *flags])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert name in err
        assert "Traceback" not in err

    def test_watch_status_lines(self, short_trace, capsys):
        path, _ = short_trace
        code = main(["watch", "--trace", str(path), "--status-every", "2000"])
        assert code == 0
        out = capsys.readouterr().out
        assert "state=" in out
        assert "samples=" in out

    def test_watch_writes_manifest(self, short_trace, tmp_path):
        path, _ = short_trace
        code = main(["watch", "--trace", str(path), "--quiet",
                     "--telemetry-out", str(tmp_path / "run")])
        assert code == 0
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["command"] == "watch"
        assert manifest["outcome"]["alarm_time"] is not None

    def test_watch_quiet_retains_no_records(self, short_trace, monkeypatch,
                                            capsys):
        # With no output requested the watch builds no recorder, so a
        # long-running watch holds no per-event records.
        from repro.obs import live, timeline

        watchers = []
        init = live.LiveWatcher.__init__

        def capture(watcher, monitor, **kwargs):
            init(watcher, monitor, **kwargs)
            watchers.append(watcher)

        def no_recorder(*args, **kwargs):
            raise AssertionError("watch --quiet built a timeline recorder")

        monkeypatch.setattr(live.LiveWatcher, "__init__", capture)
        monkeypatch.setattr(timeline.TimelineRecorder, "__init__",
                            no_recorder)
        path, _ = short_trace
        assert main(["watch", "--trace", str(path), "--quiet"]) == 0
        watcher, = watchers
        assert watcher.timeline is None
        assert watcher.n_samples > 0
        assert "watch finished:" in capsys.readouterr().out

    def test_watch_dashboard_alone_leaves_no_timeline(self, short_trace,
                                                      tmp_path, monkeypatch,
                                                      capsys):
        # --dashboard without --timeline renders from a temporary
        # timeline that is removed afterwards.
        import tempfile

        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        path, _ = short_trace
        html_path = tmp_path / "report.html"
        assert main(["watch", "--trace", str(path), "--quiet",
                     "--dashboard", str(html_path)]) == 0
        assert "dashboard ->" in capsys.readouterr().out
        assert html_path.read_text().startswith("<!DOCTYPE html>")
        assert list(scratch.iterdir()) == []


class TestDashboardCli:
    def test_run_dashboard_from_jsonl(self, short_trace, tmp_path, capsys):
        path, _ = short_trace
        timeline_path = tmp_path / "out.jsonl"
        assert main(["watch", "--trace", str(path), "--quiet",
                     "--timeline", str(timeline_path)]) == 0
        html_path = tmp_path / "report.html"
        code = main(["dashboard", str(timeline_path), "-o", str(html_path)])
        assert code == 0
        assert "run dashboard" in capsys.readouterr().out
        assert html_path.read_text().startswith("<!DOCTYPE html>")

    def test_campaign_dashboard_from_manifests(self, tmp_path, capsys):
        from repro.obs import RunManifest, write_manifest

        cells = {
            "aging": {
                "runs": [{"seed": 1, "crashed": True, "crash_time": 900.0,
                          "alarm_time": 400.0, "lead_time": 500.0,
                          "duration": 900.0}],
                "crashed": 1, "detected": 1, "missed": 0,
                "median_lead": 500.0, "false_alarms": 0,
                "lead_times": [500.0],
            },
        }
        write_manifest(RunManifest(command="campaign",
                                   outcome={"cells": cells}),
                       tmp_path / "run1")
        html_path = tmp_path / "campaign.html"
        code = main(["dashboard", str(tmp_path), "-o", str(html_path)])
        assert code == 0
        assert "campaign dashboard" in capsys.readouterr().out
        assert "aging" in html_path.read_text()

    def test_missing_path_errors(self, tmp_path, capsys):
        code = main(["dashboard", str(tmp_path / "nothing"),
                     "-o", str(tmp_path / "x.html")])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestCampaignDashboardFlag:
    def test_campaign_outcome_carries_run_records(self, tmp_path):
        dash = tmp_path / "campaign.html"
        code = main(["campaign", "--scenario", "stress", "--runs", "1",
                     "--max-seconds", "12000",
                     "--telemetry-out", str(tmp_path / "run"),
                     "--dashboard", str(dash)])
        assert code == 0
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        cells = manifest["outcome"]["cells"]
        assert set(cells) == {"stress-aging", "stress-healthy"}
        for cell in cells.values():
            assert isinstance(cell["runs"], list)
            assert {"seed", "crashed", "alarm_time",
                    "lead_time"} <= set(cell["runs"][0])
        assert dash.read_text().startswith("<!DOCTYPE html>")


@pytest.fixture(scope="module")
def timeline_file(tmp_path_factory):
    """A small finished repro.timeline/1 artifact with annotations."""
    from repro.obs.timeline import TimelineRecorder

    path = tmp_path_factory.mktemp("tl") / "tl.jsonl"
    clock = {"now": 1000.0}

    def tick():
        clock["now"] += 1.0
        return clock["now"]

    recorder = TimelineRecorder(path, interval=3600.0, clock=tick,
                                wall_clock=lambda: 5e9 + clock["now"])
    recorder.start()
    for _ in range(3):
        recorder.sample_once()
    recorder.annotate("retry", index=1, attempt=1)
    recorder.annotate("worker-death", index=2)
    recorder.finalize()
    return path


class TestTimelineCli:
    def test_parser_flags(self):
        args = build_parser().parse_args(
            ["campaign", "--timeline", "tl.jsonl",
             "--timeline-every", "0.5", "--costs", "costs.json"])
        assert args.timeline == "tl.jsonl"
        assert args.timeline_every == 0.5
        assert args.costs == "costs.json"
        args = build_parser().parse_args(["watch", "--timeline", "w.jsonl"])
        assert args.timeline == "w.jsonl"
        assert args.timeline_every == 1.0
        args = build_parser().parse_args(
            ["timeline", "tl.jsonl", "--since", "10", "--until", "60",
             "--slice", "s.jsonl", "--csv", "t.csv", "--prom", "t.prom",
             "--dashboard", "t.html", "--costs", "c.json"])
        assert args.path == "tl.jsonl"
        assert args.since == 10.0 and args.until == 60.0
        assert args.slice_out == "s.jsonl"

    def test_summary_output(self, timeline_file, capsys):
        code = main(["timeline", str(timeline_file)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Timeline" in out
        assert "n_frames" in out
        assert "annotations.retry" in out
        assert "annotations.worker-death" in out

    def test_slice_and_exports_round_trip(self, timeline_file, tmp_path,
                                          capsys):
        from repro.obs.timeline import read_timeline, validate_timeline

        sliced = tmp_path / "slice.jsonl"
        csv_out = tmp_path / "tl.csv"
        prom_out = tmp_path / "tl.prom"
        dash_out = tmp_path / "tl.html"
        code = main(["timeline", str(timeline_file), "--since", "1",
                     "--slice", str(sliced), "--csv", str(csv_out),
                     "--prom", str(prom_out), "--dashboard", str(dash_out)])
        assert code == 0
        out = capsys.readouterr().out
        assert "slice [" in out
        # The sliced artifact is itself a valid timeline stream.
        validate_timeline(read_timeline(sliced))
        assert csv_out.read_text().startswith("seq,t,wall_time,metric,value")
        assert "# EOF" in prom_out.read_text()
        assert dash_out.read_text().startswith("<!DOCTYPE html>")

    def test_missing_file_errors(self, tmp_path, capsys):
        code = main(["timeline", str(tmp_path / "nope.jsonl")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        "{not json",
        '"x"',
        "[1, 2]",
        '{"phases": []}',
        '{"phases": {"simulate": {"share": "abc"}}}',
        '{"schema": "repro.costs/1", '
        '"phases": {"simulate": {"share": "abc"}}}',
    ], ids=["not-json", "string", "list", "phases-list", "bad-share",
            "bad-share-with-schema"])
    def test_corrupt_costs_profile_errors(self, timeline_file, tmp_path,
                                          capsys, text):
        bad = tmp_path / "costs.json"
        bad.write_text(text)
        code = main(["timeline", str(timeline_file), "--costs", str(bad),
                     "--dashboard", str(tmp_path / "t.html")])
        assert code == 2
        assert "bad costs profile" in capsys.readouterr().err


class TestCampaignTimelineFlag:
    def test_campaign_records_timeline_and_costs(self, tmp_path, capsys):
        from repro.obs.timeline import read_timeline, timeline_summary

        tl = tmp_path / "tl.jsonl"
        costs_path = tmp_path / "costs.json"
        code = main(["campaign", "--scenario", "stress", "--runs", "1",
                     "--max-seconds", "12000",
                     "--timeline", str(tl), "--timeline-every", "0.1",
                     "--costs", str(costs_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "timeline: recording" in out
        records = read_timeline(tl)
        summary = timeline_summary(records)  # validates the stream
        assert summary["status"] == "complete"
        events = {r.get("event") for r in records
                  if r.get("kind") == "annotation"}
        assert {"campaign-begin", "campaign-end"} <= events
        costs = json.loads(costs_path.read_text())
        assert costs["schema"] == "repro.costs/1"
        shares = [p["share"] for p in costs["phases"].values()
                  if p["share"] is not None]
        assert sum(shares) == pytest.approx(1.0)
        assert "Cost attribution" in out or "cost" in out.lower()


class TestChaosCampaignCli:
    """A chaos-injected, fully instrumented vector campaign through the
    CLI must reproduce a calm run, and every artifact it writes must
    rebuild from disk.

    Seed 136 crashes its aging host at t=3902 s on the vector engine,
    inside the 5000 s budget.  The vector engine makes one pool unit per
    cell, so ``--workers 2`` keeps two units in the real pool, where the
    chaos kills land in workers, never in this process.
    """

    CAMPAIGN = ["campaign", "--engine", "vector", "--runs", "1",
                "--base-seed", "136", "--max-seconds", "5000",
                "--detectors", "holder,trend"]

    def test_chaos_campaign_matches_calm_run(self, tmp_path, capsys):
        from repro.obs.timeline import read_timeline, timeline_summary

        calm, out = tmp_path / "calm.json", tmp_path / "chaos.json"
        board_path, dash = tmp_path / "board.json", tmp_path / "dash.html"
        tl, costs = tmp_path / "tl.jsonl", tmp_path / "costs.json"
        flight = tmp_path / "flight.json"
        assert main(self.CAMPAIGN + ["--workers", "1", "--out", str(calm)]) == 0
        assert main(self.CAMPAIGN + [
            "--workers", "2", "--retries", "2", "--chaos", "kill=1,seed=5",
            "--out", str(out), "--scoreboard", str(board_path),
            "--dashboard", str(dash), "--timeline", str(tl),
            "--timeline-every", "0.2", "--costs", str(costs),
            "--flight-record", str(flight), "--status-port", "0",
            "--self-watch"]) == 0
        stdout = capsys.readouterr().out
        assert "chaos: sabotaging 2 of 2 work unit(s)" in stdout
        assert "status: serving http://127.0.0.1:" in stdout
        assert "Detector tournament" in stdout
        # Worker kills, retries and every observer leave the payload as is.
        payload = json.loads(out.read_text())
        assert payload == json.loads(calm.read_text())

        # Aging crashes and the healthy control survives, for each family.
        for name, cell in payload["cells"].items():
            crashed = [run["crashed"] for run in cell["runs"]]
            assert all(crashed) if "-aging@" in name else not any(crashed)

        # The real pool's flight dump on worker death.
        record = json.loads(flight.read_text())
        assert record["schema"] == "repro.flight-record/1"
        assert record["reason"] == "worker-death"
        assert record["failed_units"] and record["records"]
        assert record["trace_id"]

        # The timeline holds the retries and per-worker RSS frames.
        records = read_timeline(tl)
        summary = timeline_summary(records)  # validates the stream
        assert summary["status"] == "complete"
        assert summary["annotations_by_event"].get("retry", 0) >= 1
        assert any(isinstance(worker.get("rss_bytes"), float)
                   for r in records if r["kind"] == "frame"
                   for worker in (r.get("resources") or {}).get("workers")
                   or [])

        board = json.loads(board_path.read_text())
        assert board["schema"] == "repro.scoreboard/1"
        assert set(board["detectors"]) == {"holder", "trend"}
        assert board["n_cells"] == 4
        for family in board["detectors"].values():
            assert family["crashed"] == 1 and family["roc"] is not None
            assert 0.0 <= family["auc"] <= 1.0
        html = dash.read_text()
        assert html.startswith("<!DOCTYPE html>")
        assert "Detector tournament" in html and "<svg" in html
        assert "holder" in html and "trend" in html

        # Saved results alone rebuild the scoreboard and its export.
        rebuilt, prom = tmp_path / "rebuilt.json", tmp_path / "board.prom"
        assert main(["scoreboard", str(out), "-o", str(rebuilt),
                     "--prom", str(prom)]) == 0
        assert json.loads(rebuilt.read_text()) == board
        text = prom.read_text()
        assert text.endswith("# EOF\n")
        assert 'repro_scoreboard_auc{detector="holder"' in text

        # The timeline file alone rebuilds its dashboard.
        tl_html = tmp_path / "tl.html"
        assert main(["timeline", str(tl), "--costs", str(costs),
                     "--dashboard", str(tl_html)]) == 0
        html = tl_html.read_text()
        assert html.startswith("<!DOCTYPE html>")
        assert "Campaign timeline" in html and "Cost attribution" in html
