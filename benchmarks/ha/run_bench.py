"""Run the HA control-plane benchmarks and write ``BENCH_ha.json``.

Usage::

    PYTHONPATH=src python -m benchmarks.ha.run_bench [--quick]
        [--output PATH] [--check-against REF_JSON] [--tolerance F]

Three scenarios, all deterministic:

- **election** — crash the cluster leader repeatedly; record each
  round's downtime (simulated seconds from the crash to the next
  ``ha.leader`` event).
- **saga_takeover** — crash the leader mid-attach at a pivot-adjacent
  saga step; record how long the surviving replicas take to elect and
  resolve the in-flight saga (``ha.takeover``), and which way it
  resolved.
- **ship_lag** — drive attach/detach churn through the replicated
  intent log and read the streaming ``ha.ship.lag`` histogram's
  min / mean / max.

Every simulated-time number is a pure function of the seed, so
``--check-against`` compares them *exactly*; only wall-clock gets a
tolerance.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

from repro.core import ControllerCrashed
from repro.obs import ObsBus, instrument

from tests.faults.conftest import recovery_params
from tests.ha.conftest import ha_env

REPO_ROOT = Path(__file__).resolve().parents[2]
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_ha.json"


def _round6(value: float) -> float:
    """Stabilize float reprs across JSON round-trips."""
    return round(value, 6)


def bench_election(rounds: int = 3) -> dict:
    """Serial leader crashes; downtime per round."""
    env = ha_env()
    cluster = env.storm.ha
    env.attach([env.spec(name="svc", relay="fwd")])
    cluster.start()
    start = time.perf_counter()
    crash_times = []
    for i in range(rounds):
        when = 1.0 + 2.0 * i
        crash_times.append(when)
        env.injector.at(when, env.injector.crash_leader, cluster, 1.5)
    env.sim.run(until=1.0 + 2.0 * rounds)
    cluster.stop()
    wall = time.perf_counter() - start

    leader_events = [r.when for r in env.log.matching("ha.leader")]
    downtimes = []
    for crashed_at in crash_times:
        after = [w for w in leader_events if w > crashed_at]
        downtimes.append(_round6(after[0] - crashed_at) if after else None)
    return {
        "wall_s": wall,
        "events": env.sim._sequence,
        "sim_elapsed": _round6(env.sim.now),
        "rounds": rounds,
        "downtimes": downtimes,
        "elections": cluster.elections,
        "mean_downtime": _round6(sum(downtimes) / len(downtimes)),
    }


def bench_saga_takeover(step_name: str = "narrow", phase: str = "after") -> dict:
    """Leader killed mid-attach; latency until a new leader adopts and
    resolves the in-flight saga."""
    env = ha_env()
    storm = env.storm
    cluster = storm.ha
    mb = storm.provision_middlebox(env.tenant, env.spec(name="svc", relay="fwd"))
    cluster.start()
    fired: dict = {}

    def probe(saga, step, when):
        if fired or saga.op != "attach_with_services":
            return
        if step.name != step_name or when != phase:
            return
        fired["at"] = env.sim.now
        env.injector.crash_leader(cluster, restart_after=1.0)

    storm.saga_probe = probe

    def do_attach():
        yield env.sim.process(
            storm.attach_with_services(env.tenant, env.vm, "vol1", [mb])
        )

    start = time.perf_counter()
    try:
        env.run(do_attach())
    except ControllerCrashed:
        pass
    env.sim.run(until=env.sim.now + 3.0)
    cluster.stop()
    wall = time.perf_counter() - start

    takeover = env.log.matching("ha.takeover")[-1]
    (saga,) = storm.intent_log.by_op("attach_with_services")
    return {
        "wall_s": wall,
        "events": env.sim._sequence,
        "sim_elapsed": _round6(env.sim.now),
        "crashed_at": _round6(fired["at"]),
        "takeover_latency": _round6(takeover.when - fired["at"]),
        "replayed": takeover.detail["replayed"],
        "rolled_back": takeover.detail["rolled_back"],
        "saga_status": saga.status,
        "flows": len(storm.flows),
    }


def bench_ship_lag(cycles: int = 6) -> dict:
    """Attach/detach churn; per-entry replication lag min/mean/max."""
    env = ha_env(params=recovery_params())
    storm = env.storm
    cluster = storm.ha
    bus = ObsBus(env.sim)
    instrument(bus, storm=storm)
    cluster.start()
    start = time.perf_counter()

    for i in range(cycles):
        mb = storm.provision_middlebox(
            env.tenant, env.spec(name=f"svc{i}", relay="fwd")
        )

        def do_cycle(mb=mb):
            flow = yield env.sim.process(
                storm.attach_with_services(env.tenant, env.vm, "vol1", [mb])
            )
            storm.detach(flow)

        env.run(do_cycle())
    env.sim.run(until=env.sim.now + 1.0)  # drain in-flight ships
    cluster.stop()
    wall = time.perf_counter() - start

    lag = bus.metrics.histogram("ha.ship.lag")
    return {
        "wall_s": wall,
        "events": env.sim._sequence,
        "sim_elapsed": _round6(env.sim.now),
        "cycles": cycles,
        "entries": lag.count,
        "lag_min": _round6(lag.min if lag.count else 0.0),
        "lag_mean": _round6(lag.mean),
        "lag_max": _round6(lag.max if lag.count else 0.0),
    }


def run_all(quick: bool = False) -> dict:
    return {
        "election": bench_election(rounds=2 if quick else 3),
        "saga_takeover": bench_saga_takeover(),
        "ship_lag": bench_ship_lag(cycles=3 if quick else 6),
    }


#: per-scenario fields that are pure functions of the seed — compared
#: exactly by --check-against (wall-clock is the only tolerant field)
EXACT_FIELDS = {
    "election": ("events", "sim_elapsed", "rounds", "downtimes", "elections",
                 "mean_downtime"),
    "saga_takeover": ("events", "sim_elapsed", "crashed_at", "takeover_latency",
                      "replayed", "rolled_back", "saga_status", "flows"),
    "ship_lag": ("events", "sim_elapsed", "cycles", "entries", "lag_min",
                 "lag_mean", "lag_max"),
}


def check_against(current: dict, reference: dict, ref_path: Path,
                  quick: bool, tolerance: float) -> int:
    if reference.get("quick") != quick:
        print(
            f"check FAILED: reference {ref_path} was recorded with "
            f"quick={reference.get('quick')}, this run uses quick={quick}"
        )
        return 1
    failures = []
    for name, ref in reference["scenarios"].items():
        got = current.get(name)
        if got is None:
            failures.append(f"{name}: scenario missing from this run")
            continue
        for field in EXACT_FIELDS[name]:
            if got.get(field) != ref.get(field):
                failures.append(
                    f"{name}: {field} diverged "
                    f"(ref={ref.get(field)!r}, got={got.get(field)!r})"
                )
        if got["wall_s"] > ref["wall_s"] * (1.0 + tolerance):
            failures.append(
                f"{name}: wall-clock regressed beyond {tolerance:.0%} "
                f"(ref={ref['wall_s']:.3f}s, got={got['wall_s']:.3f}s)"
            )
    if failures:
        print(f"check vs {ref_path} FAILED:")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print(
        f"check vs {ref_path} OK: failover timelines identical, "
        f"wall-clock within {tolerance:.0%}"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="small sizes (CI smoke)")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    parser.add_argument(
        "--check-against", type=Path, default=None, metavar="REF_JSON",
        help="assert this run matches a recorded BENCH_ha.json: identical "
        "downtimes, takeover latency, and ship-lag min/mean/max (machine-"
        "independent), wall-clock within --tolerance",
    )
    parser.add_argument("--tolerance", type=float, default=0.05)
    args = parser.parse_args(argv)

    reference = None
    if args.check_against is not None:
        reference = json.loads(args.check_against.read_text())

    current = run_all(quick=args.quick)
    report = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "quick": args.quick,
        "scenarios": current,
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")
    for name, metrics in current.items():
        print(f"  {name:14s} wall={metrics['wall_s']:7.3f}s "
              f"sim={metrics['sim_elapsed']:7.3f}s")
    print(
        f"  election downtimes: {current['election']['downtimes']}  "
        f"takeover: {current['saga_takeover']['takeover_latency']}s  "
        f"ship lag max: {current['ship_lag']['lag_max']}s"
    )

    if reference is not None:
        return check_against(
            current, reference, args.check_against, args.quick, args.tolerance
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
