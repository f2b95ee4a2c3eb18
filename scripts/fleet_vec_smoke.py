"""Fleet-vector smoke: prove the vectorised engine works end to end.

Two phases:

1. **128-host vector fleet** — in-process `VectorFleet` run: every host
   finishes (crash or survive-to-budget), invariants hold, the
   `memsim_vec.*` telemetry namespace is published, and a sharded
   `run_fleet_vector(workers=2)` run is bit-identical to `workers=1`.
2. **Campaign payload diff** — ``repro campaign --engine vector`` and
   ``--engine object`` against real ``python -m repro`` subprocesses:
   the vector payload must be structurally identical to the object
   reference (same cells, seeds, run counts, JSON shape), and the
   vector campaign must report the same crash behaviour class (the
   aging cell crashes, the healthy control does not).

The >=10x hosts/sec floor over the object path is the
``memsim.fleet_vec`` gate of ``python -m repro bench``.

Run from the repo root::

    PYTHONPATH=src python scripts/fleet_vec_smoke.py [--hosts N]

Exit code 0 means every check passed.  Used by the CI
``fleet-vec-smoke`` job and handy locally after touching the fleet
engine, the batched RNG or the campaign's fleet-shard work units.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))


def child_env() -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONUNBUFFERED="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(REPO_ROOT, "src"),
                    env.get("PYTHONPATH")) if p)
    return env


def run(cmd: list) -> str:
    proc = subprocess.run(cmd, cwd=REPO_ROOT, env=child_env(),
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(
            f"FAIL: {' '.join(cmd[-8:])} exited {proc.returncode}\n"
            f"{proc.stdout}\n{proc.stderr}")
    return proc.stdout


def phase_fleet(n_hosts: int) -> None:
    from dataclasses import replace

    import numpy as np

    from repro.memsim import MachineConfig, VectorFleet, run_fleet_vector
    from repro.obs import session as _obs

    base = MachineConfig.nt4(seed=5, max_run_seconds=4_000.0)
    config = replace(base, faults=base.faults.scaled(6.0))

    with _obs.telemetry_session() as session:
        fleet = VectorFleet(config, n_hosts)
        results = fleet.run()
        fleet.check_invariants()
        counters = session.metrics.snapshot()
    if len(results) != n_hosts:
        raise SystemExit(f"FAIL [fleet]: {len(results)} results "
                         f"for {n_hosts} hosts")
    crashed = sum(1 for r in results if r.crashed)
    for r in results:
        if r.crashed and not (0.0 < r.crash_time <= 4_000.0):
            raise SystemExit(f"FAIL [fleet]: crash time {r.crash_time}")
        if r.bundle.metadata.get("engine") != "vector":
            raise SystemExit("FAIL [fleet]: missing engine metadata")
    if counters.get("memsim_vec.hosts", {}).get("value") != n_hosts:
        raise SystemExit("FAIL [fleet]: memsim_vec.hosts counter not published")
    if counters.get("memsim_vec.host_ticks", {}).get("value", 0) <= 0:
        raise SystemExit("FAIL [fleet]: memsim_vec.host_ticks not published")

    seq = run_fleet_vector(config, 8, workers=1)
    par = run_fleet_vector(config, 8, workers=2)
    for a, b in zip(seq, par):
        if (a.crashed, a.crash_time, a.crash_reason) != \
                (b.crashed, b.crash_time, b.crash_reason):
            raise SystemExit("FAIL [fleet]: worker sharding changed a crash")
        for name in a.bundle.names:
            if not (np.array_equal(a.bundle[name].times, b.bundle[name].times)
                    and np.array_equal(a.bundle[name].values,
                                       b.bundle[name].values)):
                raise SystemExit(
                    f"FAIL [fleet]: worker sharding perturbed {name!r}")
    print(f"ok [fleet]: {n_hosts} hosts, {crashed} crashed, invariants + "
          f"memsim_vec.* telemetry + shard bit-identity")


def _campaign(engine: str, out: str) -> dict:
    run([
        sys.executable, "-m", "repro", "campaign",
        "--runs", "4", "--max-seconds", "20000",
        "--base-seed", "11", "--engine", engine, "--out", out,
    ])
    with open(out) as handle:
        return json.load(handle)


def _structure(payload, key="") -> object:
    """The JSON shape with simulated values erased.

    Dict keys, the per-cell run-list arity and per-run seeds survive;
    leaf values (crash times, leads, alarm presence) and variable-length
    aggregate lists (e.g. ``lead_times``) do not — those legitimately
    differ between statistically-equivalent engines.  ``engine`` is
    erased too: it is the one spec field *meant* to differ.
    """
    if isinstance(payload, dict):
        return {k: (v if k == "seed" else _structure(v, k))
                for k, v in sorted(payload.items()) if k != "engine"}
    if isinstance(payload, list):
        if key == "runs":
            return [_structure(v, key) for v in payload]
        return "list"
    return "scalar"


def phase_campaign(workdir: str) -> None:
    vec = _campaign("vector", os.path.join(workdir, "vector.json"))
    obj = _campaign("object", os.path.join(workdir, "object.json"))
    if _structure(vec) != _structure(obj):
        raise SystemExit(
            "FAIL [campaign]: vector payload structure differs from the "
            "object reference")
    def runs_of(payload, cell_suffix):
        for name, cell in payload["cells"].items():
            if name.endswith(cell_suffix):
                return cell.get("runs", [])
        return []

    aging_runs = runs_of(vec, "-aging")
    healthy_runs = runs_of(vec, "-healthy")
    if not aging_runs or not healthy_runs:
        raise SystemExit("FAIL [campaign]: cells missing from vector payload")
    if not any(r.get("crashed") for r in aging_runs):
        raise SystemExit("FAIL [campaign]: vector aging cell never crashed")
    if any(r.get("crashed") for r in healthy_runs):
        raise SystemExit("FAIL [campaign]: vector healthy control crashed")
    obj_aging = runs_of(obj, "-aging")
    if [r["seed"] for r in aging_runs] != [r["seed"] for r in obj_aging]:
        raise SystemExit("FAIL [campaign]: engines disagree on seed layout")
    print(f"ok [campaign]: vector payload structurally identical to object "
          f"reference ({len(aging_runs)} aging + {len(healthy_runs)} healthy "
          f"runs); aging crashed, control survived")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--hosts", type=int, default=128,
                        help="vector fleet size for phase 1 "
                             "(default: %(default)s)")
    args = parser.parse_args(argv)

    print(f"phase 1/2: {args.hosts}-host vector fleet")
    phase_fleet(args.hosts)

    with tempfile.TemporaryDirectory(prefix="fleet-vec-smoke-") as workdir:
        print("phase 2/2: campaign payload diff (vector vs object engine)")
        phase_campaign(workdir)

    print("fleet-vec smoke passed: fleet and campaign wiring all good")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
