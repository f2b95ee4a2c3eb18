"""The benchmark's two workloads.

Each workload picks its host seeds from the benchmark seed once, in
:meth:`prepare` (untimed: how many candidates it screens depends on the
seed), then builds its inputs from them in :meth:`setup` (timed: the
same work for every seed), and :meth:`iterate` runs one timed pass of
the work and returns what it produced; :meth:`check` compares that
output with the pinned digests (default seed) or with the structure the
inputs imply (any seed).  ``NOTES.md`` says why each workload exists.

Sizes are constructor arguments so the self-tests can run each workload
tiny; the benchmark itself always uses the defaults.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import shutil
from dataclasses import dataclass, field
from typing import List, Optional

#: Pool width: the benchmark machine's two cores.
WORKERS = 2

#: Seed whose outputs are pinned in ``expected.json``.
DEFAULT_SEED = 0

#: Detectors the tournament compares: the paper's Hölder detector, the
#: classical trend baseline and the CHAOS-style entropy baseline.
TOURNAMENT_DETECTORS = ("holder", "trend", "entropy")


#: ``repro watch``'s closing summary: alarm time, samples, indicator points.
_WATCH_SUMMARY = re.compile(
    r"^watch finished: (?:ALARM at t=([\d,.]+)s.*?|no alarm); .*?"
    r"(\d+) samples, (\d+) indicator points", re.M)

#: Shortest host life the workloads accept: the Hölder analysis needs
#: four 512-sample indicator windows, and the watch monitor a 2048-sample
#: history, before either produces anything.
MIN_LIFE = 2100.0


def _screen_fleet(base: int, hosts: int, fault_factor: float):
    """Short vector fleet of aging hosts ``base..base+hosts-1`` and
    healthy hosts ``base+1000..``, run to :data:`MIN_LIFE`."""
    from repro.memsim.fleet_vec import VectorFleet
    from repro.memsim.scenarios import scenario_batch_job, scenario_config

    config = scenario_config("stress", profile="nt4", max_run_seconds=MIN_LIFE,
                             fault_factor=fault_factor)
    seeds = ([base + i for i in range(hosts)]
             + [base + 1000 + i for i in range(hosts)])
    return VectorFleet(config, seeds=seeds, collect_traces=False,
                       batch_job=scenario_batch_job("stress"))


def screened_base(seed: int, hosts: int, fault_factor: float) -> int:
    """First base seed of ``seed``'s range whose aging and healthy hosts
    (see :func:`_screen_fleet`) all outlive :data:`MIN_LIFE` on the
    vector engine.

    About one host in 400 crashes within minutes whatever its fault
    load; screening keeps those out, so no run fails for lack of data.
    """
    for k in range(64):
        base = 1 + 10_000 * seed + hosts * k
        if not any(r.crashed for r in _screen_fleet(base, hosts,
                                                     fault_factor).run()):
            return base
    raise RuntimeError(f"no screened base seed for seed {seed}")


def digest(payload) -> str:
    """SHA-256 of ``payload`` as canonical JSON."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Pass:
    """What one timed iteration produced."""

    runs: int            # scored run records, or hosts replayed
    samples: int         # counter samples scored or fed
    attempted: int       # operations attempted
    failed: int          # operations that failed
    output: dict = field(default_factory=dict)


# -- tournament -----------------------------------------------------------------


class Tournament:
    """The paper's experiment as a detector tournament: an NT4 stress
    aging cell and a healthy control on the vector engine, expanded over
    three detectors and run with ``execute_campaign``."""

    name = "tournament"
    traced_setup = False

    def __init__(self, seed: int, *, hosts: int = 8,
                 fault_factor: float = 3.0, healthy_seconds: float = 5000.0,
                 aging_seconds: float = 80_000.0) -> None:
        self.seed = seed
        self.hosts = hosts
        self.fault_factor = fault_factor
        self.healthy_seconds = healthy_seconds
        self.aging_seconds = aging_seconds
        self.distinct_hosts = 2 * hosts
        self.base = 0
        self.specs: list = []

    def prepare(self) -> None:
        self.base = screened_base(self.seed, self.hosts, self.fault_factor)

    def setup(self) -> None:
        """Check the screened hosts with one short fleet and build the
        grid."""
        from repro.analysis import ExperimentSpec, detector_grid

        base = self.base
        if any(r.crashed for r in _screen_fleet(base, self.hosts,
                                                 self.fault_factor).run()):
            raise RuntimeError(f"screened base seed {base} has early crashes")
        cells = [
            ExperimentSpec(name="stress-aging", scenario="stress",
                           profile="nt4", n_runs=self.hosts, base_seed=base,
                           fault_factor=self.fault_factor,
                           max_run_seconds=self.aging_seconds, engine="vector"),
            ExperimentSpec(name="stress-healthy", scenario="stress",
                           profile="nt4", n_runs=self.hosts,
                           base_seed=base + 1000, fault_factor=0.0,
                           max_run_seconds=self.healthy_seconds,
                           engine="vector"),
        ]
        self.specs = detector_grid(cells, list(TOURNAMENT_DETECTORS))

    def iterate(self) -> Pass:
        from repro.analysis import build_scoreboard, cells_payload, execute_campaign

        outcome = execute_campaign(self.specs, workers=WORKERS,
                                   allow_partial=True)
        cells = cells_payload(outcome.results)
        scoreboard = build_scoreboard(cells)
        runs = [r for cell in cells.values() for r in cell["runs"]]
        # A run whose analysis raised is scored no-alarm with no decision
        # statistic.  A Hölder run that was analysed always has one; the
        # trend detector legitimately has none on runs shorter than its
        # 3600 s window, and raises only below 64 samples, which the
        # MIN_LIFE screening rules out.
        unscored = sum(
            1 for cell in cells.values() if cell["detector"].startswith("holder")
            for r in cell["runs"] if r["alarm_time"] is None
            and r["peak_healthy"] is None and r["peak_precrash"] is None)
        # Samples are 1 Hz, so a run's duration is its sample count.
        samples = int(sum(r["duration"] for r in runs))
        return Pass(
            runs=len(runs), samples=samples,
            attempted=sum(s.n_runs for s in self.specs),
            failed=len(outcome.missing) + unscored,
            output={"cells": cells, "scoreboard": scoreboard,
                    "missing": [m.cell for m in outcome.missing]},
        )

    def fingerprint(self, output: dict) -> dict:
        return {"cells": digest(output["cells"]),
                "scoreboard": digest(output["scoreboard"])}

    def check(self, output: dict, expected: Optional[dict]) -> List[str]:
        """Problems with ``output``; pinned digests when given."""
        problems = []
        cells = output["cells"]
        names = [s.name for s in self.specs]
        if output["missing"]:
            problems.append(f"missing units in {sorted(set(output['missing']))}")
        if sorted(cells) != sorted(names):
            problems.append(f"cells {sorted(cells)} != specs {sorted(names)}")
        for spec in self.specs:
            seeds = [r["seed"] for r in cells.get(spec.name, {}).get("runs", [])]
            want = [spec.base_seed + i for i in range(spec.n_runs)]
            if seeds != want:
                problems.append(f"{spec.name}: run seeds {seeds} != {want}")
        board = output["scoreboard"]
        if sorted(board.get("cells", {})) != sorted(names):
            problems.append("scoreboard rows do not match the grid")
        families = sorted({s.detector_name for s in self.specs})
        if sorted(board.get("detectors", {})) != families:
            problems.append(f"scoreboard families {sorted(board.get('detectors', {}))}"
                            f" != {families}")
        if expected is not None:
            got = self.fingerprint(output)
            for key, value in expected.items():
                if got.get(key) != value:
                    problems.append(f"{key} digest {got.get(key)} != pinned {value}")
        return problems

    def teardown(self) -> None:
        pass


# -- watch replay ------------------------------------------------------------------


class WatchReplay:
    """``repro watch --trace`` over a stored fleet, one host after another.

    Set-up simulates aging and healthy hosts on the vector engine and
    writes each to the columnar store; a pass replays every stored host
    with the ``watch`` command itself, called in-process with its
    defaults (``--quiet`` only silences the live status lines).  The
    loop is closed: samples go in as fast as the monitor takes them.
    """

    name = "watch-replay"
    traced_setup = True

    #: Counter ``repro watch`` follows by default.
    COUNTER = "AvailableBytes"

    def __init__(self, seed: int, workdir: str, *, hosts: int = 4,
                 fault_factor: float = 3.0, aging_seconds: float = 80_000.0,
                 healthy_seconds: float = 5000.0) -> None:
        self.seed = seed
        self.workdir = workdir
        self.hosts = hosts
        self.fault_factor = fault_factor
        self.aging_seconds = aging_seconds
        self.healthy_seconds = healthy_seconds
        self.distinct_hosts = 2 * hosts
        self.base = 0
        self.paths: List[str] = []
        self.lengths: List[int] = []

    def prepare(self) -> None:
        """Move to the next base seed while any host dies before
        :data:`MIN_LIFE` (short fleets: the vector engine's variates do
        not depend on the run budget)."""
        self.base = 1 + 10_000 * self.seed
        while any(r.duration < MIN_LIFE
                  for r in self._simulate(MIN_LIFE, MIN_LIFE, traces=False)):
            self.base += self.hosts

    def setup(self) -> None:
        """Simulate the fleet and store every host."""
        from repro.trace import write_bundle

        results = self._simulate(self.aging_seconds, self.healthy_seconds)
        shutil.rmtree(self.workdir, ignore_errors=True)
        os.makedirs(self.workdir)
        self.paths, self.lengths = [], []
        for i, result in enumerate(results):
            path = os.path.join(self.workdir, f"host{i:03d}")
            write_bundle(result.bundle, path)
            self.paths.append(path)
            self.lengths.append(len(result.bundle[self.COUNTER].values))

    def _simulate(self, aging_seconds: float, healthy_seconds: float, *,
                  traces: bool = True) -> list:
        from repro.memsim.config import FaultConfig
        from repro.memsim.fleet_vec import build_scenario_fleet

        aging = build_scenario_fleet(
            "stress", self.hosts, seed=self.base,
            fault_factor=self.fault_factor, max_run_seconds=aging_seconds,
            collect_traces=traces)
        healthy = build_scenario_fleet(
            "stress", self.hosts, seed=self.base + 1000,
            max_run_seconds=healthy_seconds, collect_traces=traces,
            config_overrides={"faults": FaultConfig(
                heap_leak_fraction=0.0, pool_leak_rate=0.0,
                fragmentation_rate=0.0)})
        return aging.run() + healthy.run()

    def replay(self, path: str) -> dict:
        """``repro watch --trace path --quiet``; returns the alarm time,
        samples and indicator points its summary line reports."""
        from repro.cli import main

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["watch", "--trace", path, "--quiet"])
        found = _WATCH_SUMMARY.search(out.getvalue())
        if code != 0 or found is None:
            raise RuntimeError(f"repro watch --trace {path} exited {code}:\n"
                               f"{out.getvalue()}")
        alarm, samples, indicators = found.groups()
        return {"alarm_time": (None if alarm is None
                               else float(alarm.replace(",", ""))),
                "n_indicators": int(indicators), "n_samples": int(samples)}

    def iterate(self) -> Pass:
        hosts = [self.replay(path) for path in self.paths]
        samples = sum(h["n_samples"] for h in hosts)
        # A replay drops non-finite samples; the store holds no others.
        attempted = sum(self.lengths[:len(hosts)])
        return Pass(runs=len(hosts), samples=samples, attempted=attempted,
                    failed=attempted - samples, output={"hosts": hosts})

    def retained_bytes_per_sample(self) -> float:
        """tracemalloc bytes a finished monitor still holds, per sample it
        consumed (first stored host; the watcher is dropped first)."""
        import gc
        import tracemalloc

        from repro.obs.live import LiveWatcher

        monitors = []
        init = LiveWatcher.__init__

        def capture(watcher, monitor, **kwargs):
            init(watcher, monitor, **kwargs)
            monitors.append(monitor)

        gc.collect()
        LiveWatcher.__init__ = capture
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            self.replay(self.paths[0])
            monitor, = monitors
            # The watcher is only reachable through these callbacks.
            monitor.on_indicator = monitor.on_state_change = None
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
            LiveWatcher.__init__ = init
        return held / max(monitor.n_samples, 1)

    def fingerprint(self, output: dict) -> dict:
        return {"hosts": [[h["alarm_time"], h["n_indicators"]]
                          for h in output["hosts"]]}

    def check(self, output: dict, expected: Optional[dict]) -> List[str]:
        problems = []
        hosts = output["hosts"]
        if len(hosts) != len(self.paths):
            problems.append(f"replayed {len(hosts)} of {len(self.paths)} hosts")
        for i, (host, stored) in enumerate(zip(hosts, self.lengths)):
            if host["n_samples"] != stored:
                problems.append(f"host {i}: fed {host['n_samples']} of "
                                f"{stored} samples")
            elif host["n_indicators"] < 1:
                problems.append(f"host {i}: no indicator points")
        if expected is not None and self.fingerprint(output) != expected:
            problems.append(f"per-host (alarm time, indicators) "
                            f"{self.fingerprint(output)['hosts']} != pinned "
                            f"{expected['hosts']}")
        return problems

    def teardown(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {
    "tournament": Tournament,
    "watch-replay": WatchReplay,
}


def make(name: str, seed: int, workdir: str, **sizes):
    """Build the named workload (``sizes`` shrink it for self-tests)."""
    cls = WORKLOADS[name]
    if cls is WatchReplay:
        return cls(seed, workdir, **sizes)
    return cls(seed, **sizes)
