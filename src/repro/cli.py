"""Command-line interface: ``python -m repro <command>``.

Four subcommands covering the library's main workflows:

``simulate``
    Run a stress-to-crash simulation and write the counter traces to a
    CSV file::

        python -m repro simulate --profile nt4 --seed 7 --out run.csv

``analyze``
    Run the aging analysis on a trace CSV (produced by ``simulate`` or
    hand-converted from a real collector) and print the warning
    report::

        python -m repro analyze run.csv --counter AvailableBytes

``validate``
    Quick self-check: synthesise ground-truth signals and verify the
    estimators recover their exponents (a smoke-test version of the T5
    benchmark)::

        python -m repro validate

``campaign``
    Run a small detection campaign (aging cell + healthy control) on a
    named scenario and print/persist the aggregate table; ``--workers``
    fans the seeded runs across a process pool with bit-identical
    results::

        python -m repro campaign --scenario webserver --runs 3 --out results.json
        python -m repro campaign --runs 8 --workers 4

    ``--detectors`` turns the campaign into a detector tournament: every
    cell is replicated once per named detector family (same seeds, so
    the families score identical simulated runs) and the league table,
    ROC curves and lead-time quantiles land in a ``repro.scoreboard/1``
    artifact and the dashboard::

        python -m repro campaign --runs 4 --detectors holder,trend,entropy \\
            --scoreboard scoreboard.json --dashboard campaign.html

``scoreboard``
    Rebuild the detector-tournament scoreboard from saved campaign
    results (a ``--out`` JSON) or archived run manifests alone — no
    re-simulation — print the league table and optionally write the
    artifact, an OpenMetrics rendering and the dashboard::

        python -m repro scoreboard results.json -o scoreboard.json
        python -m repro scoreboard runs/ --dashboard campaign.html

``telemetry``
    Summarise run manifests written with ``--telemetry-out`` (stage
    durations, events, metrics) as tables, or export them as flat
    JSON/CSV or Prometheus/OpenMetrics text::

        python -m repro telemetry runs/seed7
        python -m repro telemetry runs/seed7 --format prom

``bench``
    Run the five contract gates (vector-fleet throughput and
    equivalence, parallel campaign, online stream, trace store), write a
    versioned ``BENCH_<date>_<gitsha>.json`` file and compare it against
    the committed baseline in ``benchmarks/baselines``; a failed gate, a
    regression or a case missing from the baseline fails the run::

        python -m repro bench
        python -m repro bench --select trace.store
        python -m repro bench --list        # table of archived trajectories

``watch``
    Watch a live simulation (or a replayed trace CSV) with the online
    aging monitor, optionally under declarative alert rules from a
    TOML/JSON file, and record the session as a ``repro.timeline/1``
    stream (samples, indicator points, detector transitions, alarms,
    alert-rule firings, status heartbeats and the crash as annotations,
    the summary on the end record)::

        python -m repro watch --scenario stress --seed 7 \\
            --alerts rules.toml --timeline out.jsonl
        python -m repro watch --trace run.csv --timeline out.jsonl

``dashboard``
    Render a self-contained HTML dashboard (inline SVG, no external
    resources) from a watch session's timeline, or a campaign
    detection-quality dashboard from run-manifest directories::

        python -m repro dashboard out.jsonl -o report.html
        python -m repro dashboard runs/ -o campaign.html

``timeline``
    Summarise, slice or export a campaign history recorded with
    ``campaign --timeline`` / ``watch --timeline`` (schema
    ``repro.timeline/1``): a digest of throughput/RSS/annotations, a
    time-range slice as a new artifact, long-format CSV, timestamped
    OpenMetrics text, or the timeline dashboard rebuilt from the
    artifact alone (optionally with a ``repro.costs/1`` profile from
    ``campaign --costs``)::

        python -m repro timeline tl.jsonl
        python -m repro timeline tl.jsonl --since 10 --until 60 --csv tl.csv
        python -m repro timeline tl.jsonl --dashboard tl.html --costs costs.json

Every workload subcommand additionally accepts ``--log-level
{debug,info,warning,error,off}`` (structured log lines on stderr),
and ``--telemetry-out DIR`` (write a run manifest + event log into
DIR).  A run that raises still writes its manifest, with
``outcome.status = "error"`` and the exception recorded.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import Iterator, Optional, Sequence

import numpy as np

from .obs import LOG_LEVELS

_SIM_PROFILES = ("nt4", "w2k")


#: The parser :func:`main` reuses, built on first use: every default is
#: immutable and ``parse_args`` returns a fresh namespace, so one tree
#: serves any number of in-process calls.
_PARSER: Optional[argparse.ArgumentParser] = None


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    from .memsim.scenarios import SCENARIO_NAMES

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Software aging and multifractality of memory resources "
                    "(DSN 2003 reproduction).",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--log-level", choices=LOG_LEVELS, default=None,
                        help="emit structured log lines at this level")
    common.add_argument("--telemetry-out", default=None, metavar="DIR",
                        help="write a run manifest (manifest.json + "
                             "events.jsonl) into DIR")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", parents=[common],
                         help="run a stress-to-crash simulation")
    sim.add_argument("--profile", choices=_SIM_PROFILES + SCENARIO_NAMES,
                     default="nt4",
                     help="OS profile (nt4/w2k) or named scenario "
                          "(stress/webserver/database/batch on nt4)")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--max-seconds", type=float, default=80_000.0)
    sim.add_argument("--fault-factor", type=float, default=1.0,
                     help="scale every aging-fault intensity")
    sim.add_argument("--out", default=None,
                     help="output trace path: *.csv writes the CSV codec, "
                          "anything else a memory-mapped columnar run "
                          "directory (optional when --telemetry-out is "
                          "given)")

    ana = sub.add_parser("analyze", parents=[common],
                         help="aging analysis of a recorded trace")
    ana.add_argument("trace", help="trace produced by `repro simulate` "
                                   "(CSV file or columnar run directory)")
    ana.add_argument("--counter", default="AvailableBytes")
    ana.add_argument("--indicator", choices=("mean", "variance"), default="mean")
    ana.add_argument("--scheme", choices=("cusum", "ewma", "threshold"),
                     default="cusum")

    sub.add_parser("validate", parents=[common],
                   help="estimator self-check on ground truth")

    camp = sub.add_parser("campaign", parents=[common],
                          help="aging + healthy-control detection campaign")
    camp.add_argument("--scenario", default="stress")
    camp.add_argument("--profile", choices=_SIM_PROFILES, default="nt4")
    camp.add_argument("--runs", type=int, default=3)
    camp.add_argument("--base-seed", type=int, default=1)
    camp.add_argument("--max-seconds", type=float, default=60_000.0)
    camp.add_argument("--workers", type=int, default=None, metavar="N",
                      help="worker processes for the campaign's work "
                           "units; results are bit-identical to "
                           "sequential (default: all cores; 1 = sequential)")
    camp.add_argument("--engine", choices=("object", "vector"),
                      default="object",
                      help="simulation core: 'object' runs one Machine per "
                           "seed through the event kernel; 'vector' advances "
                           "each cell as one struct-of-arrays fleet "
                           "(statistically equivalent counters, order-of-"
                           "magnitude faster at fleet scale)")
    camp.add_argument("--out", default=None, help="optional JSON output path")
    camp.add_argument("--detectors", default=None, metavar="NAME[,NAME...]",
                      help="run the scenario cells once per named detector "
                           "family (detector tournament); see "
                           "`repro scoreboard` for the artifact this feeds")
    camp.add_argument("--scoreboard", default=None, metavar="JSON",
                      help="write the detector-tournament scoreboard "
                           "(schema repro.scoreboard/1) to this path")
    camp.add_argument("--dashboard", default=None, metavar="HTML",
                      help="also render the detection-quality dashboard "
                           "to this HTML file")
    camp.add_argument("--timeout", type=float, default=None, metavar="SEC",
                      help="wall-clock budget per work unit (one host on "
                           "the object engine, one fleet shard of a cell's "
                           "hosts on the vector engine, scored by every "
                           "--detectors family); a unit past it is killed "
                           "and retried (parallel mode only)")
    camp.add_argument("--retries", type=int, default=0, metavar="N",
                      help="re-run a unit up to N times after a worker "
                           "death, timeout or transient failure, with "
                           "exponential backoff; retried units recompute "
                           "identical results (default: %(default)s)")
    camp.add_argument("--journal", default=None, metavar="JSONL",
                      help="append-only checkpoint journal: every finished "
                           "unit is recorded (fsynced) the moment it "
                           "completes, keyed to this campaign's "
                           "config/seed fingerprint")
    camp.add_argument("--resume", action="store_true",
                      help="load --journal first and execute only the "
                           "units it is missing; the final payload is "
                           "bit-identical to an uninterrupted run")
    camp.add_argument("--allow-partial", action="store_true",
                      help="on permanent unit failures, report an "
                           "'incomplete' outcome listing the missing "
                           "units (exit 1) instead of raising")
    camp.add_argument("--chaos", default=None, metavar="SPEC",
                      help="dev flag: deterministically sabotage your own "
                           "campaign's work units to exercise the "
                           "resilience layer.  SPEC is comma-separated "
                           "key=value pairs: kill=RATE, hang=RATE, "
                           "raise=RATE, hang-seconds=SEC, seed=N, "
                           "max-failures=N (e.g. "
                           "--chaos kill=0.3,raise=0.2,seed=1)")
    camp.add_argument("--status-port", type=int, default=None, metavar="PORT",
                      help="serve live /status (JSON progress + ETA + "
                           "worker resources), /metrics (OpenMetrics) and "
                           "/healthz on 127.0.0.1:PORT while the campaign "
                           "runs (0 = pick an ephemeral port)")
    camp.add_argument("--self-watch", action="store_true",
                      help="stream the campaign parent's own RSS through "
                           "an online aging monitor and alert if the "
                           "harness itself leaks")
    camp.add_argument("--flight-record", default=None, metavar="JSON",
                      help="arm the flight recorder: keep a bounded ring "
                           "buffer of recent log/span/unit records and "
                           "dump it to this path (atomic JSON, schema "
                           "repro.flight-record/1) on timeout-kill, "
                           "worker death or unhandled error")
    camp.add_argument("--timeline", default=None, metavar="JSONL",
                      help="record the campaign's history (periodic "
                           "progress/counter/RSS frames + retry/timeout/"
                           "death annotations) to this append-only JSONL "
                           "artifact (schema repro.timeline/1); explore it "
                           "with `repro timeline`")
    camp.add_argument("--timeline-every", type=float, default=1.0,
                      metavar="SEC",
                      help="seconds between timeline frames "
                           "(default: %(default)s)")
    camp.add_argument("--costs", default=None, metavar="JSON",
                      help="after the campaign, fold the merged span tree "
                           "into a cross-worker cost profile (schema "
                           "repro.costs/1; wall share per pipeline phase, "
                           "per worker, top cost centers) and write it "
                           "here")

    tel = sub.add_parser("telemetry", parents=[common],
                         help="summarise or export run manifests")
    tel.add_argument("path", help="manifest.json, a run directory, or a "
                                  "directory of run directories")
    tel.add_argument("--metrics", action="store_true",
                     help="also print each run's full metrics snapshot "
                          "(table format only)")
    tel.add_argument("--spans", action="store_true",
                     help="also print each run's span tree (indented by "
                          "nesting, with worker pid/ordinal tags for "
                          "spans merged from pool workers; table format "
                          "only)")
    tel.add_argument("--format", choices=("table", "json", "csv", "prom"),
                     default="table",
                     help="output format: report tables (default), flat "
                          "JSON, flat CSV, or Prometheus/OpenMetrics text")

    ben = sub.add_parser("bench", parents=[common],
                         help="contract gates -> BENCH_*.json, checked "
                              "against the committed baseline")
    ben.add_argument("--out", default="benchmarks/results", metavar="DIR",
                     help="directory for BENCH_<date>_<gitsha>.json "
                          "trajectory files (default: %(default)s)")
    ben.add_argument("--baseline", default="benchmarks/baselines",
                     metavar="PATH",
                     help="BENCH file to compare against, or a "
                          "directory whose newest BENCH file is used "
                          "(default: %(default)s)")
    ben.add_argument("--select", default=None, metavar="PAT[,PAT...]",
                     help="only run cases whose name contains a pattern")
    ben.add_argument("--list", action="store_true",
                     help="list archived BENCH_*.json trajectory files "
                          "under --out (date, sha, per-case best wall) "
                          "and exit")
    ben.add_argument("--list-cases", action="store_true",
                     help="list the gated cases and exit")

    wat = sub.add_parser("watch", parents=[common],
                         help="live online-monitor watch over a simulation "
                              "or replayed trace")
    src = wat.add_mutually_exclusive_group()
    src.add_argument("--scenario", choices=SCENARIO_NAMES, default=None,
                     help="run and watch a live scenario simulation "
                          "(default: stress)")
    src.add_argument("--trace", default=None, metavar="TRACE",
                     help="replay a recorded trace (CSV file or columnar "
                          "run directory) instead of simulating")
    wat.add_argument("--profile", choices=_SIM_PROFILES, default="nt4")
    wat.add_argument("--seed", type=int, default=7)
    wat.add_argument("--max-seconds", type=float, default=80_000.0)
    wat.add_argument("--fault-factor", type=float, default=1.0)
    wat.add_argument("--counter", default="AvailableBytes")
    wat.add_argument("--alerts", default=None, metavar="RULES",
                     help="alert rules file (.toml or .json)")
    wat.add_argument("--dashboard", default=None, metavar="HTML",
                     help="render the run dashboard to this HTML file "
                          "from the session's timeline after the watch")
    wat.add_argument("--status-every", type=float, default=600.0,
                     help="simulated seconds between status heartbeats "
                          "(0 disables; default: %(default)s)")
    wat.add_argument("--sample-every", type=int, default=4,
                     help="record every Nth counter sample in the stream "
                          "(0 = none; the monitor sees all; "
                          "default: %(default)s)")
    wat.add_argument("--chunk-size", type=int, default=128,
                     help="monitor: recompute cadence in samples "
                          "(default: %(default)s)")
    wat.add_argument("--history", type=int, default=2048,
                     help="monitor: rolling sample history "
                          "(default: %(default)s)")
    wat.add_argument("--indicator-window", type=int, default=512,
                     help="monitor: Hölder window length "
                          "(default: %(default)s)")
    wat.add_argument("--calibration", type=int, default=10,
                     help="monitor: indicator points used to calibrate "
                          "the detector (default: %(default)s)")
    wat.add_argument("--quiet", action="store_true",
                     help="suppress live status lines on stdout")
    wat.add_argument("--status-port", type=int, default=None, metavar="PORT",
                     help="serve live /status, /metrics and /healthz on "
                          "127.0.0.1:PORT while the watch runs "
                          "(0 = pick an ephemeral port)")
    wat.add_argument("--timeline", default=None, metavar="JSONL",
                     help="record the watch session (samples, indicator "
                          "points, detector states, alarm, alerts, crash "
                          "and summary as annotations, plus progress and "
                          "parent RSS frames) to this repro.timeline/1 "
                          "JSONL artifact")
    wat.add_argument("--timeline-every", type=float, default=1.0,
                     metavar="SEC",
                     help="seconds between timeline frames "
                          "(default: %(default)s)")

    score = sub.add_parser("scoreboard", parents=[common],
                           help="rebuild the detector-tournament scoreboard "
                                "from saved campaign artifacts")
    score.add_argument("path",
                       help="campaign results JSON (from `repro campaign "
                            "--out`) or a manifest/run directory")
    score.add_argument("-o", "--out", default=None, metavar="JSON",
                       help="write the repro.scoreboard/1 artifact here")
    score.add_argument("--prom", default=None, metavar="TXT",
                       help="also write the scoreboard as "
                            "Prometheus/OpenMetrics text")
    score.add_argument("--dashboard", default=None, metavar="HTML",
                       help="render the campaign dashboard (including the "
                            "tournament section) to this HTML file")

    dash = sub.add_parser("dashboard", parents=[common],
                          help="render a self-contained HTML dashboard")
    dash.add_argument("path",
                      help="a watch session's timeline JSONL (run "
                           "dashboard) or a manifest/run directory "
                           "(campaign dashboard)")
    dash.add_argument("-o", "--out", default="dashboard.html",
                      help="output HTML path (default: %(default)s)")
    dash.add_argument("--title", default=None, help="dashboard title")

    tline = sub.add_parser("timeline", parents=[common],
                           help="summarise, slice or export a saved "
                                "repro.timeline/1 campaign history")
    tline.add_argument("path",
                       help="timeline JSONL artifact (from `campaign "
                            "--timeline` / `watch --timeline`)")
    tline.add_argument("--since", type=float, default=None, metavar="SEC",
                       help="keep records with t >= SEC (recorder-relative "
                            "seconds)")
    tline.add_argument("--until", type=float, default=None, metavar="SEC",
                       help="keep records with t <= SEC")
    tline.add_argument("--slice", dest="slice_out", default=None,
                       metavar="JSONL",
                       help="write the selected time range as a new "
                            "timeline artifact")
    tline.add_argument("--csv", default=None, metavar="CSV",
                       help="export the frames as long-format CSV "
                            "(seq,t,wall_time,metric,value)")
    tline.add_argument("--prom", default=None, metavar="TXT",
                       help="export the frames as timestamped "
                            "Prometheus/OpenMetrics text (promtool "
                            "backfill form)")
    tline.add_argument("--dashboard", default=None, metavar="HTML",
                       help="render the timeline dashboard (throughput, "
                            "per-worker RSS, ETA, annotations) from the "
                            "artifact alone")
    tline.add_argument("--costs", default=None, metavar="JSON",
                       help="repro.costs/1 profile (from `campaign "
                            "--costs`) to include in the dashboard")
    tline.add_argument("--title", default=None, help="dashboard title")
    return parser


def cmd_simulate(args: argparse.Namespace) -> int:
    """Run one machine and archive its traces."""
    from .memsim import Machine, MachineConfig
    from .obs import session as obs_session
    from .trace import write_bundle

    if args.out is None and args.telemetry_out is None:
        print("error: simulate needs --out and/or --telemetry-out",
              file=sys.stderr)
        return 2
    if args.profile in _SIM_PROFILES:
        ctor = MachineConfig.nt4 if args.profile == "nt4" else MachineConfig.w2k
        base = ctor(seed=args.seed, max_run_seconds=args.max_seconds)
        if args.fault_factor != 1.0:
            base = ctor(seed=args.seed, max_run_seconds=args.max_seconds,
                        faults=base.faults.scaled(args.fault_factor))
        machine = Machine(base)
    else:
        from .memsim.scenarios import build_scenario

        machine = build_scenario(
            args.profile, seed=args.seed, max_run_seconds=args.max_seconds,
            fault_factor=args.fault_factor,
        )
    print(f"simulating {args.profile} seed={args.seed} "
          f"(budget {args.max_seconds:.0f}s)...")
    result = machine.run()
    if args.out is not None:
        with obs_session.span("write-trace", path=str(args.out)):
            write_bundle(result.bundle, args.out)
    dest = args.out if args.out is not None else "(not archived)"
    if result.crashed:
        print(f"crashed at t={result.crash_time:.0f}s ({result.crash_reason}); "
              f"traces -> {dest}")
    else:
        print(f"survived {result.duration:.0f}s; traces -> {dest}")
    args._outcome.update(
        crashed=result.crashed,
        crash_time=result.crash_time,
        crash_reason=result.crash_reason,
        duration=result.duration,
        trace_csv=None if args.out is None else str(args.out),
    )
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    """Analyse one counter of a trace file."""
    from .core import analyze_counter
    from .core.detectors import DetectorConfig
    from .exceptions import TraceError
    from .trace import read_bundle

    try:
        bundle = read_bundle(args.trace, counters=[args.counter])
    except TraceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    analysis = analyze_counter(
        bundle[args.counter],
        indicator=args.indicator,
        detector_config=DetectorConfig(scheme=args.scheme),
    )
    alarm = analysis.alarm
    print(f"counter      : {args.counter}")
    print(f"indicator    : windowed Hölder {analysis.indicator.statistic}")
    print(f"scheme       : {alarm.scheme}")
    print(f"baseline     : {alarm.baseline_mean:.4g} ± {alarm.baseline_std:.4g}")
    if alarm.fired:
        print(f"WARNING at   : {alarm.alarm_time:.0f}s")
    else:
        print("no warning fired")
    crash_time = bundle.metadata.get("crash_time")
    if crash_time is not None:
        print(f"crash (truth): {float(crash_time):.0f}s")
        if alarm.fired:
            print(f"lead time    : {float(crash_time) - alarm.alarm_time:.0f}s")
    args._outcome.update(
        counter=args.counter,
        alarm_fired=alarm.fired,
        alarm_time=alarm.alarm_time if alarm.fired else None,
        crash_time=None if crash_time is None else float(crash_time),
    )
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    """Estimator smoke check against closed-form exponents."""
    from .fractal import dfa, wavelet_leader_analysis
    from .generators import fbm, fgn, weierstrass
    from .core import wavelet_holder

    failures = 0

    def check(label: str, got: float, want: float, tol: float) -> None:
        nonlocal failures
        ok = abs(got - want) <= tol
        status = "ok " if ok else "FAIL"
        print(f"  [{status}] {label}: got {got:+.3f}, want {want:+.3f} ± {tol}")
        if not ok:
            failures += 1

    print("validating estimators on ground-truth signals...")
    for h_true in (0.3, 0.7):
        x = fgn(2**13, h_true, rng=np.random.default_rng(1))
        check(f"DFA on fGn H={h_true}", dfa(x).alpha, h_true, 0.1)
    w = weierstrass(2**12, 0.5)
    check("wavelet Hölder on Weierstrass h=0.5",
          float(np.mean(wavelet_holder(w))), 0.5, 0.1)
    path = fbm(2**14, 0.6, rng=np.random.default_rng(2))
    res = wavelet_leader_analysis(path, q=np.linspace(-2, 3, 11))
    check("wavelet-leader c1 on fBm H=0.6", res.c1, 0.6, 0.1)
    check("wavelet-leader c2 on fBm (monofractal)", res.c2, 0.0, 0.05)

    print("all checks passed" if failures == 0 else f"{failures} check(s) FAILED")
    args._outcome.update(failures=failures)
    return 0 if failures == 0 else 1


def _parse_chaos(spec: str):
    """Parse a ``--chaos`` SPEC string into a :class:`ChaosSpec`."""
    from .exceptions import ValidationError
    from .testing.chaos import ChaosSpec

    fields = {
        "kill": ("kill_rate", float),
        "hang": ("hang_rate", float),
        "raise": ("raise_rate", float),
        "hang-seconds": ("hang_seconds", float),
        "seed": ("seed", int),
        "max-failures": ("max_failures_per_unit", int),
    }
    kwargs = {}
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        key, sep, value = item.partition("=")
        key = key.strip()
        if not sep or key not in fields:
            raise ValidationError(
                f"bad chaos spec item {item!r}; expected key=value with "
                f"key one of {sorted(fields)}")
        name, convert = fields[key]
        try:
            kwargs[name] = convert(value.strip())
        except ValueError:
            raise ValidationError(
                f"bad chaos spec value in {item!r}") from None
    return ChaosSpec(**kwargs)


@contextlib.contextmanager
def _control_plane(args: argparse.Namespace, *, kind: str,
                   timeline_path: Optional[str] = None,
                   begin: Optional[dict] = None,
                   start_timeline: bool = True) -> Iterator[tuple]:
    """Set up and tear down the ``campaign``/``watch`` control plane.

    One rule for both commands: ``--status-port``, ``--self-watch`` or a
    timeline path each get a status board, a resource sampler and a
    timeline recorder (memory-only without a path) whose frame tick is
    the only sampling loop; ``--status-port`` also gets the HTTP server.
    ``--flight-record`` arms the flight recorder.  With none of these
    nothing is built.  Yields ``(board, sampler, timeline)``, all None
    when nothing was built.  ``begin`` opens the board before the server
    starts (a campaign's board is opened by ``execute_campaign``);
    ``start_timeline=False`` leaves starting the recorder to a caller
    that must first fill its header fields.

    Teardown stops the server, finalizes the timeline as ``"error"``
    (a no-op once the command finalized it) and uninstalls the flight
    recorder.  Everything here only observes: campaign payloads are
    bit-identical with or without it.
    """
    flight_record = getattr(args, "flight_record", None)
    self_watch = getattr(args, "self_watch", False)
    board = sampler = timeline = server = None
    if flight_record:
        from .obs.ops import FlightRecorder, install_flight_recorder

        install_flight_recorder(FlightRecorder(path=flight_record))
        print(f"flight recorder armed -> {flight_record}")
    try:
        if (args.status_port is not None or self_watch
                or timeline_path is not None):
            from .obs.resources import ResourceSampler
            from .obs.statusd import StatusBoard
            from .obs.timeline import TimelineRecorder
            from .perf.pool import pool_worker_pids

            board = StatusBoard(kind=kind)
            if begin is not None:
                board.begin(**begin)
            sampler = ResourceSampler(worker_pids=pool_worker_pids,
                                      self_watch=self_watch)
            timeline = TimelineRecorder(
                timeline_path, interval=args.timeline_every,
                board=board, resources=sampler)
            if start_timeline:
                timeline.start()
        if args.timeline is not None:
            print(f"timeline: recording -> {args.timeline} "
                  f"(every {args.timeline_every:g}s)")
        if args.status_port is not None:
            from .obs.statusd import StatusServer

            # A watch's /status reports the watched run; the watcher's
            # own RSS lands in its timeline frames only.
            server = StatusServer(
                port=args.status_port, board=board,
                resources=sampler if kind == "campaign" else None,
                timeline=timeline)
            port = server.start()
            print(f"status: serving http://127.0.0.1:{port}/status "
                  f"(/metrics, /healthz, /timeline)", flush=True)
        yield board, sampler, timeline
    finally:
        if server is not None:
            server.stop()
        if timeline is not None:
            timeline.finalize("error")
        if flight_record:
            from .obs.ops import uninstall_flight_recorder

            uninstall_flight_recorder()


def cmd_campaign(args: argparse.Namespace) -> int:
    """Run a two-cell campaign (aging vs healthy control) and report."""
    from .analysis import (
        ExperimentSpec,
        cells_payload,
        detector_grid,
        execute_campaign,
        results_table,
        save_results,
    )
    from .exceptions import ExecutionError, ReproError, ValidationError
    from .report import render_table

    try:
        specs = [
            ExperimentSpec(
                name=f"{args.scenario}-aging", scenario=args.scenario,
                profile=args.profile, n_runs=args.runs,
                base_seed=args.base_seed,
                max_run_seconds=args.max_seconds, engine=args.engine,
            ),
            ExperimentSpec(
                name=f"{args.scenario}-healthy", scenario=args.scenario,
                profile=args.profile, n_runs=args.runs,
                base_seed=args.base_seed + 1000, fault_factor=0.0,
                max_run_seconds=min(args.max_seconds, 15_000.0),
                engine=args.engine,
            ),
        ]
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.detectors:
        names = [n.strip() for n in args.detectors.split(",") if n.strip()]
        try:
            specs = detector_grid(specs, names)
        except ValidationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    n_runs = len(specs) * args.runs
    from .analysis.campaign import _plan_shards
    from .perf.pool import resolve_workers

    if args.resume and not args.journal:
        print("error: --resume requires --journal", file=sys.stderr)
        return 2
    workers = resolve_workers(args.workers)
    chaos = None
    if args.chaos:
        try:
            chaos = _parse_chaos(args.chaos)
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        # Faults are scheduled per pool work unit (a host, or a fleet
        # shard on the vector engine), not per (cell, run).
        n_units = len(_plan_shards(
            [(spec, i) for spec in specs for i in range(spec.n_runs)],
            workers))
        scheduled = chaos.scheduled_faults(n_units)
        print(f"chaos: sabotaging {len(scheduled)} of {n_units} "
              f"work unit(s) ({args.chaos})")

    plane = _control_plane(args, kind="campaign", timeline_path=args.timeline)
    with plane as (board, sampler, timeline):
        suffix = f" across {workers} workers" if workers > 1 else ""
        print(f"running {n_runs} runs "
              f"({args.scenario}/{args.profile}){suffix}...")
        try:
            outcome = execute_campaign(
                specs, workers=workers, timeout=args.timeout,
                retries=args.retries, journal=args.journal,
                resume=args.resume, chaos=chaos,
                allow_partial=args.allow_partial, status=board,
                timeline=timeline,
            )
        except ExecutionError as exc:
            print(f"error: {exc}", file=sys.stderr)
            args._outcome.update(campaign_status="failed")
            if timeline is not None:
                timeline.finalize("failed")
            return 1
        results = outcome.results
        if outcome.resumed_units:
            when = outcome.resumed_last_progress_at
            stamp = ("" if when is None
                     else " (last progress at "
                     + _format_wall_time(when) + ")")
            print(f"resumed {outcome.resumed_units} unit(s) from "
                  f"{args.journal}{stamp}; "
                  f"executed {outcome.executed_units} fresh")
        print(render_table(
            ["cell", "runs", "crashed", "detected", "missed",
             "median_lead_s", "false_alarms"],
            results_table(results), title="Campaign results",
        ))
        if args.out:
            save_results(results, args.out)
            print(f"results -> {args.out}")
        # Per-run records ride along in the manifest so detection-quality
        # dashboards can be rebuilt from telemetry archives alone.  So does
        # the campaign's resilience outcome (status + any missing units).
        args._outcome.update(
            cells=cells_payload(results),
            campaign_status=outcome.status,
            missing_units=[
                {"cell": u.cell, "run_index": u.run_index, "error": u.error}
                for u in outcome.missing
            ],
        )
        scoreboard = None
        if args.detectors or args.scoreboard:
            from .analysis import (
                build_scoreboard,
                publish_scoreboard,
                save_scoreboard,
                scoreboard_table,
            )

            scoreboard = build_scoreboard(args._outcome["cells"])
            publish_scoreboard(scoreboard)
            print()
            print(render_table(
                _SCOREBOARD_HEADERS, scoreboard_table(scoreboard),
                title="Detector tournament",
            ))
            if args.scoreboard:
                save_scoreboard(scoreboard, args.scoreboard)
                print(f"scoreboard -> {args.scoreboard}")
        tl_path = None
        if timeline is not None:
            # The last frame is also the last resource sweep, so the
            # self-watch digest below covers every sample.
            tl_path = timeline.finalize(outcome.status)
            if tl_path:
                print(f"timeline -> {tl_path} ({timeline.n_frames} frames, "
                      f"{timeline.n_annotations} annotations)")
        if args.self_watch:
            watch = sampler.latest()["self_watch"]
            print(f"self-watch: parent state {watch['state']} "
                  f"({watch['n_samples']} RSS samples, "
                  f"{watch['alerts_fired']} alert(s))")
            args._outcome.update(self_watch=watch)
        costs = None
        if args.costs:
            from .obs import session as obs_session
            from .obs.atomic import atomic_write_json
            from .obs.costs import build_cost_profile, cost_table

            try:
                costs = build_cost_profile(
                    obs_session.current_session().spans.to_list())
            except ValidationError as exc:
                print(f"costs: {exc}", file=sys.stderr)
            else:
                atomic_write_json(args.costs, costs)
                print(f"cost profile -> {args.costs}")
                print()
                print(render_table(
                    ["path", "phase", "calls", "self_s", "share"],
                    cost_table(costs), title="Top cost centers",
                ))
                args._outcome.update(costs_file=args.costs)
        if args.dashboard:
            from .obs.dashboard import render_campaign_dashboard, write_dashboard
            from .obs.timeline import read_timeline

            # The artifact, not the recorder's bounded ring: the ring
            # drops the header once a long campaign overflows it.
            path = write_dashboard(
                render_campaign_dashboard(
                    cells=args._outcome["cells"], scoreboard=scoreboard,
                    timeline=None if tl_path is None
                    else read_timeline(tl_path),
                    costs=costs),
                args.dashboard,
            )
            print(f"dashboard -> {path}")
        if not outcome.complete:
            print(f"campaign INCOMPLETE: {len(outcome.missing)} unit(s) "
                  f"missing in cell(s) {', '.join(outcome.missing_cells)}"
                  + (f"; resume with --journal {args.journal} --resume"
                     if args.journal else ""),
                  file=sys.stderr)
            return 1
        return 0


# Column order matches repro.analysis.scoreboard.scoreboard_table rows.
_SCOREBOARD_HEADERS = [
    "detector", "cells", "runs", "crashed", "detected", "rate",
    "premature", "missed", "lead_p50_s", "lead_p90_s", "fa_per_h", "auc",
]


def cmd_scoreboard(args: argparse.Namespace) -> int:
    """Rebuild the detector scoreboard from saved campaign artifacts."""
    import os

    from .analysis import (
        build_scoreboard,
        cells_payload,
        load_results,
        publish_scoreboard,
        save_scoreboard,
        scoreboard_table,
    )
    from .exceptions import ReproError
    from .report import render_table

    try:
        if os.path.isfile(args.path):
            cells = cells_payload(load_results(args.path))
            source = f"results file {args.path}"
        else:
            from .obs import load_manifests
            from .obs.dashboard import campaign_cells_from_manifests

            manifests = load_manifests(args.path)
            cells = campaign_cells_from_manifests(manifests)
            source = (f"{len(manifests)} manifest(s) under {args.path}")
        scoreboard = build_scoreboard(cells)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    publish_scoreboard(scoreboard)
    print(render_table(
        _SCOREBOARD_HEADERS, scoreboard_table(scoreboard),
        title=f"Detector tournament — {source}",
    ))
    if args.out:
        save_scoreboard(scoreboard, args.out)
        print(f"scoreboard -> {args.out}")
    if args.prom:
        from .obs.atomic import atomic_write_text
        from .obs.export import scoreboard_to_prometheus

        atomic_write_text(args.prom, scoreboard_to_prometheus(scoreboard))
        print(f"openmetrics -> {args.prom}")
    if args.dashboard:
        from .obs.dashboard import render_campaign_dashboard, write_dashboard

        path = write_dashboard(
            render_campaign_dashboard(cells=cells, scoreboard=scoreboard),
            args.dashboard,
        )
        print(f"dashboard -> {path}")
    args._outcome.update(
        n_cells=scoreboard["n_cells"],
        detectors=sorted(scoreboard["detectors"]),
        scoreboard_file=args.out,
    )
    return 0


def _format_wall_time(epoch_seconds: float) -> str:
    """Epoch seconds -> local ``YYYY-mm-dd HH:MM:SS`` for log lines."""
    import time as _time

    return _time.strftime("%Y-%m-%d %H:%M:%S",
                          _time.localtime(epoch_seconds))


def cmd_telemetry(args: argparse.Namespace) -> int:
    """Summarise (table) or export (json/csv/prom) run manifests."""
    import json as _json

    from .exceptions import TraceError
    from .obs import (
        load_manifests,
        manifests_to_csv,
        manifests_to_json,
        manifests_to_prometheus,
    )
    from .report import render_kv, render_table

    try:
        manifests = load_manifests(args.path)
    except (TraceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    fmt = getattr(args, "format", "table")
    if fmt == "json":
        print(_json.dumps(manifests_to_json(manifests), indent=2,
                          default=str))
        return 0
    if fmt == "csv":
        sys.stdout.write(manifests_to_csv(manifests))
        return 0
    if fmt == "prom":
        sys.stdout.write(manifests_to_prometheus(manifests))
        return 0

    rows = []
    for i, m in enumerate(manifests):
        n_alarms = len([e for e in m.events
                        if e.get("kind") in ("alarm", "online_alarm")])
        n_crashes = len([e for e in m.events if e.get("kind") == "crash"])
        rows.append([
            i, m.command, "-" if m.seed is None else m.seed,
            float("nan") if m.wall_seconds is None else m.wall_seconds,
            len(m.spans), len(m.metrics), len(m.events),
            n_alarms, n_crashes,
        ])
    print(render_table(
        ["run", "command", "seed", "wall_s", "spans", "metrics", "events",
         "alarms", "crashes"],
        rows, title=f"Telemetry summary ({len(manifests)} run(s))",
    ))

    for i, m in enumerate(manifests):
        stages = m.stage_durations()
        if stages:
            print()
            print(render_table(
                ["stage", "seconds"],
                [[path, seconds] for path, seconds in stages.items()],
                title=f"run {i} ({m.command}): stage durations",
            ))
        if getattr(args, "spans", False) and m.spans:
            from .obs.export import span_tree_rows

            print()
            print(render_table(
                ["span", "seconds", "status", "worker"],
                span_tree_rows(m.spans),
                title=f"run {i} ({m.command}): span tree",
            ))
        if args.metrics and m.metrics:
            from .obs.export import flatten_metrics

            print()
            print(render_kv(flatten_metrics(m.metrics),
                            title=f"run {i} ({m.command}): metrics"))
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    """Run the contract gates, archive a BENCH_*.json, check the baseline."""
    from .obs import bench
    from .report import render_table

    if args.list_cases:
        print(render_table(
            ["name", "group", "description"],
            [[c.name, c.group, c.description] for c in bench.SUITE],
            title="Benchmark suite",
        ))
        return 0
    if args.list:
        records = bench.list_bench_files(args.out)
        if not records:
            print(f"no {bench.BENCH_PREFIX}*.json trajectory files "
                  f"under {args.out}")
            return 0
        case_names = sorted({name for r in records for name in r["cases"]})
        rows = []
        for r in records:
            rows.append(
                [r["created_at"][:10], r["git_sha"]]
                + [r["cases"].get(name, float("nan")) for name in case_names])
        print(render_table(
            ["date", "sha"] + [f"{n}_s" for n in case_names],
            rows,
            title=f"Benchmark trajectories under {args.out} "
                  f"({len(records)} file(s), best wall seconds)",
        ))
        newest = max(records, key=lambda r: r["created_at"])
        stale = sorted({c.name for c in bench.SUITE} - set(newest["cases"]))
        if stale:
            print(f"warning: newest trajectory "
                  f"({newest['created_at'][:10]}, {newest['git_sha']}) "
                  f"predates the current case set — missing "
                  f"{', '.join(stale)}; rerun `python -m repro bench` to "
                  f"refresh the baseline")
        return 0

    select = args.select.split(",") if args.select else None
    print(f"running benchmark suite "
          f"({len(bench.select_cases(select))} case(s))...")

    def progress(name: str, record: dict) -> None:
        throughput = record["samples_per_sec"]
        rate = "-" if throughput is None else f"{throughput:,.0f}"
        print(f"  {name:<24s} {record['wall_best'] * 1e3:9.2f} ms  "
              f"{rate:>12s} samples/s")

    payload = bench.run_suite(select=select, progress=progress)
    path = bench.write_bench_file(payload, args.out)
    print(f"trajectory -> {path}")
    args._outcome.update(bench_file=path,
                         cases=sorted(payload["results"]))

    baseline_path = bench.find_baseline(args.baseline, exclude=path)
    if baseline_path is None:
        print(f"error: no {bench.BENCH_PREFIX}*.json baseline under "
              f"{args.baseline}; nothing was compared", file=sys.stderr)
        return 1
    comparison = bench.compare_runs(
        bench.read_bench_file(baseline_path), payload)
    print()
    print(bench.render_comparison(comparison, baseline_path=baseline_path))
    args._outcome.update(baseline=baseline_path,
                         regressions=comparison["regressions"],
                         missing=comparison["missing"])
    return 1 if comparison["regressions"] or comparison["missing"] else 0


def cmd_watch(args: argparse.Namespace) -> int:
    """Live watch: online monitor + alert rules over a stream of samples."""
    import contextlib
    import os
    import tempfile

    from .core.online import OnlineAgingMonitor
    from .exceptions import ReproError
    from .obs.alerts import AlertEngine, load_rules
    from .obs.live import LiveWatcher

    try:
        monitor = OnlineAgingMonitor(
            chunk_size=args.chunk_size,
            history=args.history,
            indicator_window=args.indicator_window,
            n_calibration=args.calibration,
        )
        engine = AlertEngine(load_rules(args.alerts)) if args.alerts else None
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if engine is not None:
        print(f"loaded {len(engine.rules)} alert rule(s) from {args.alerts}")

    with contextlib.ExitStack() as stack:
        # The session's one artifact is its timeline: --timeline, or a
        # temporary file that only --dashboard reads; --status-port alone
        # records to the in-memory ring behind /timeline.  With none of
        # these the watcher records nothing.
        timeline_path = args.timeline
        if timeline_path is None and args.dashboard:
            scratch = stack.enter_context(
                tempfile.TemporaryDirectory(prefix="repro-watch-"))
            timeline_path = os.path.join(scratch, "watch.jsonl")
        # The watcher starts the recorder once the header is filled in.
        board, _, timeline = stack.enter_context(_control_plane(
            args, kind="watch", timeline_path=timeline_path,
            begin={"total_units": 0, "counter": args.counter},
            start_timeline=False))

        def on_status(status: dict) -> None:
            if board is not None:
                board.update(
                    watch_time=status["t"], watch_state=status["state"],
                    n_samples=status["n_samples"],
                    n_indicators=status["n_indicators"],
                    alerts_fired=status["alerts_fired"],
                )
            if not args.quiet:
                value = status["value"]
                shown = "-" if value is None else f"{value:,.0f}"
                print(f"  [t={status['t']:>8,.0f}s] "
                      f"state={status['state']:<11s} "
                      f"samples={status['n_samples']:<7d} "
                      f"indicators={status['n_indicators']:<4d} "
                      f"alerts={status['alerts_fired']:<3d} "
                      f"{args.counter}={shown}")

        watcher = LiveWatcher(
            monitor, timeline=timeline, engine=engine, counter=args.counter,
            status_every=args.status_every, sample_every=args.sample_every,
            on_status=(None if args.quiet and board is None else on_status),
        )
        if args.trace is not None:
            from .trace import read_bundle

            print(f"replaying {args.trace} ({args.counter})...")
            try:
                end = watcher.replay(
                    read_bundle(args.trace, counters=[args.counter]))
            except ReproError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
        else:
            from .memsim.scenarios import build_scenario

            scenario = args.scenario or "stress"
            machine = build_scenario(
                scenario, seed=args.seed, profile=args.profile,
                max_run_seconds=args.max_seconds,
                fault_factor=args.fault_factor,
            )
            print(f"watching {scenario}/{args.profile} seed={args.seed} "
                  f"(budget {args.max_seconds:.0f}s)...")
            watcher.attach(machine)
            machine.run()
            end = watcher.finalize()

        if args.timeline is not None:
            print(f"timeline -> {args.timeline} "
                  f"({timeline.n_frames} frames, "
                  f"{timeline.n_annotations} annotations)")
        if args.dashboard:
            from .obs.dashboard import render_run_dashboard, write_dashboard
            from .obs.timeline import read_timeline

            dashboard = write_dashboard(
                render_run_dashboard(read_timeline(timeline_path)),
                args.dashboard)
    state = end["state"]
    if end["crash_time"] is not None:
        crash = (f"crashed at t={end['crash_time']:,.0f}s "
                 f"({end.get('crash_reason') or 'unknown'})")
    else:
        crash = "no crash"
    if end["alarm_time"] is not None:
        alarm = f"ALARM at t={end['alarm_time']:,.0f}s"
        if end["lead_time"] is not None:
            alarm += f" (lead {end['lead_time']:,.0f}s)"
    else:
        alarm = "no alarm"
    print(f"watch finished: {alarm}; {crash}; detector state {state}; "
          f"{end['n_samples']} samples, {end['n_indicators']} indicator "
          f"points, {sum(end['alerts'].values())} alert firing(s)")
    if args.dashboard:
        print(f"dashboard -> {dashboard}")
    args._outcome.update(
        source="replay" if args.trace else (args.scenario or "stress"),
        state=state,
        alarm_time=end["alarm_time"],
        crash_time=end["crash_time"],
        lead_time=end["lead_time"],
        n_samples=end["n_samples"],
        alerts=end["alerts"],
        timeline_file=args.timeline,
    )
    return 0


def cmd_dashboard(args: argparse.Namespace) -> int:
    """Render a run or campaign dashboard from archived artifacts."""
    import os

    from .exceptions import ReproError
    from .obs import load_manifests
    from .obs.dashboard import (
        render_campaign_dashboard,
        render_run_dashboard,
        write_dashboard,
    )
    from .obs.timeline import read_timeline

    try:
        if os.path.isfile(args.path):
            records = read_timeline(args.path)
            html = render_run_dashboard(records, title=args.title)
            flavor = f"run dashboard ({len(records)} records)"
        else:
            manifests = load_manifests(args.path)
            html = render_campaign_dashboard(manifests, title=args.title)
            flavor = f"campaign dashboard ({len(manifests)} manifest(s))"
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    path = write_dashboard(html, args.out)
    print(f"{flavor} -> {path}")
    args._outcome.update(dashboard=path)
    return 0


def cmd_timeline(args: argparse.Namespace) -> int:
    """Summarise, slice or export a saved campaign timeline artifact."""
    import json as _json

    from .exceptions import ReproError
    from .obs.timeline import (
        read_timeline,
        slice_timeline,
        timeline_summary,
        timeline_to_csv,
    )
    from .report import render_kv

    try:
        records = read_timeline(args.path)
        summary = timeline_summary(records)  # validates the stream
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    view = records
    if args.since is not None or args.until is not None:
        view = slice_timeline(records, since=args.since, until=args.until)
        window = (f"[{args.since if args.since is not None else 0:g}s, "
                  f"{args.until if args.until is not None else 'end'}]")
        n_frames = sum(1 for r in view if r.get("kind") == "frame")
        print(f"slice {window}: {n_frames} of {summary['n_frames']} "
              f"frame(s) selected")

    costs = None
    if args.costs:
        from .obs.costs import validate_cost_profile

        try:
            with open(args.costs, "r", encoding="utf-8") as handle:
                costs = validate_cost_profile(_json.load(handle))
        except (OSError, ValueError) as exc:
            print(f"error: bad costs profile {args.costs}: {exc}",
                  file=sys.stderr)
            return 2

    flat = {}
    for key, value in summary.items():
        if key == "annotations_by_event":
            for event, count in sorted(value.items()):
                flat[f"annotations.{event}"] = count
        elif key == "final_progress":
            for pkey, pvalue in (value or {}).items():
                if pvalue is not None:
                    flat[f"progress.{pkey}"] = pvalue
        elif value is not None:
            flat[key] = value
    print(render_kv(flat, title=f"Timeline {args.path}"))

    if args.slice_out:
        from .obs.atomic import atomic_write

        with atomic_write(args.slice_out) as handle:
            for record in view:
                handle.write(_json.dumps(record) + "\n")
        print(f"slice -> {args.slice_out} ({len(view)} records)")
    if args.csv:
        from .obs.atomic import atomic_write_text

        atomic_write_text(args.csv, timeline_to_csv(view))
        print(f"csv -> {args.csv}")
    if args.prom:
        from .obs.atomic import atomic_write_text
        from .obs.export import timeline_to_prometheus

        atomic_write_text(args.prom, timeline_to_prometheus(view))
        print(f"openmetrics -> {args.prom}")
    if args.dashboard:
        from .obs.dashboard import render_timeline_dashboard, write_dashboard

        path = write_dashboard(
            render_timeline_dashboard(view, costs=costs, title=args.title),
            args.dashboard)
        print(f"dashboard -> {path}")
    args._outcome.update(
        n_frames=summary["n_frames"],
        n_annotations=summary["n_annotations"],
        timeline_status=summary["status"],
    )
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    Besides dispatching, this is where the telemetry envelope lives:
    ``--log-level`` configures the structured logger, ``--telemetry-out``
    opens a fresh telemetry session around the command and freezes it
    into a run manifest afterwards.  A command that *raises* still gets
    its manifest — with ``outcome.status = "error"`` and the exception
    recorded — a misbehaving run is exactly the one worth inspecting;
    the exception then propagates unchanged.
    """
    from . import obs

    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    handlers = {
        "simulate": cmd_simulate,
        "analyze": cmd_analyze,
        "validate": cmd_validate,
        "campaign": cmd_campaign,
        "scoreboard": cmd_scoreboard,
        "telemetry": cmd_telemetry,
        "bench": cmd_bench,
        "watch": cmd_watch,
        "dashboard": cmd_dashboard,
        "timeline": cmd_timeline,
    }
    args._outcome = {}
    if getattr(args, "log_level", None):
        obs.configure_logging(args.log_level)
    telemetry_out = getattr(args, "telemetry_out", None)
    # A live /status surface needs a live session to scrape, so
    # --status-port implies telemetry even without a manifest directory.
    # So do campaign/watch --timeline (frames read live counters) and
    # campaign --costs (folds the live span tree); the artifact-reading
    # `timeline` subcommand does not.
    wants_history = (args.command in ("campaign", "watch")
                     and (getattr(args, "timeline", None) is not None
                          or getattr(args, "costs", None) is not None))
    session = (
        obs.enable_telemetry()
        if (telemetry_out
            or getattr(args, "status_port", None) is not None
            or wants_history) else None
    )
    code: Optional[int] = None
    error: Optional[BaseException] = None
    try:
        with obs.span(args.command):
            code = handlers[args.command](args)
        return code
    except BaseException as exc:
        error = exc
        raise
    finally:
        if session is not None:
            args._outcome["exit_code"] = code
            args._outcome["status"] = "ok" if error is None else "error"
            if error is not None:
                args._outcome["error"] = {
                    "type": type(error).__name__,
                    "message": str(error),
                }
            if telemetry_out:
                seed = getattr(args, "seed", getattr(args, "base_seed", None))
                config = {
                    k: v for k, v in vars(args).items()
                    if not k.startswith("_")
                    and k not in ("command", "telemetry_out")
                    and v is not None
                }
                manifest = obs.build_manifest(
                    session, command=args.command, config=config, seed=seed,
                    outcome=args._outcome,
                )
                path = obs.write_manifest(manifest, telemetry_out)
                print(f"telemetry -> {path}")
            obs.disable_telemetry()
        if getattr(args, "log_level", None):
            obs.reset_logging()


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
