"""The repository benchmark: one command, three workloads.

Usage (from the repository root)::

    python3 repobench/run.py --workload paper_fio --seed 1 --seconds 25 --trace 0
    python3 repobench/run.py --workload all

Each workload runs in its own single-threaded process.  A run repeats
the workload's fixed, seed-determined job until ``--seconds`` have
passed (at least ``MIN_REPS`` times), checks every repetition's
outputs, and prints each metric with its unit and sample count; the
last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` adds one
repetition under cProfile and a ``gc.callbacks`` hook, one repetition
on the next seed, and reports the per-layer metrics instead: self time,
calls and share per layer, GC pauses, public counters, the
benchmark's phase spans and the tracing overhead.  The exit code is 0
only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from workloads import Outcome

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: repetitions per run even when one outlasts ``--seconds``
MIN_REPS = 3
#: set-ups timed per repetition (the last one is used); ``setup_s`` is
#: their median over the run
SETUPS_PER_REP = 5


@dataclass
class Rep:
    """One repetition: set-up times, the timed phase, its outputs."""

    setup_times: list[float]
    run_s: float
    completed: int
    outcome: "Outcome"
    #: public counters, read only on the traced repetition
    counters: dict | None = None

    @property
    def ops_per_s(self) -> float:
        return self.completed / self.run_s


def _untraced() -> None:
    pass


def one_rep(workload, seed: int, setups: int = SETUPS_PER_REP, tracer=None) -> Rep:
    """Set up ``setups`` times, run the timed phase once, verify.

    The benchmark's own ``gc.collect()`` calls, which keep earlier
    garbage out of each set-up and timed phase, run with the tracer off.
    """
    from tracing import read_counters

    clock = time.perf_counter
    start, stop = (tracer.start, tracer.stop) if tracer else (_untraced, _untraced)
    setup_times = []
    for _ in range(setups):
        state = None
        gc.collect()  # every set-up starts from a clean heap
        start()
        t0 = clock()
        state = workload.setup(seed)
        t1 = clock()
        workload.attach(state)
        t2 = clock()
        stop()
        setup_times.append(t2 - t0)
    gc.collect()
    start()
    t3 = clock()
    completed = workload.run(state)
    t4 = clock()
    outcome = workload.verify(state)
    t5 = clock()
    stop()
    counters = None
    if tracer is not None:
        tracer.span("rep", None, t0, t5)
        tracer.span("setup", "rep", t0, t1)
        tracer.span("attach", "rep", t1, t2)
        tracer.span("workload", "rep", t3, t4)
        tracer.span("verify", "rep", t4, t5)
        counters = read_counters(workload.ops, outcome.events)
    return Rep(setup_times, t4 - t3, completed, outcome, counters)


def e2e_metrics(reps: list[Rep]) -> dict[str, tuple[float, str]]:
    outcome = reps[0].outcome
    return {
        "ops_per_s": (statistics.median(r.ops_per_s for r in reps), "1/s"),
        "setup_s": (statistics.median(t for r in reps for t in r.setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "sim_ops_per_s": (outcome.sim_ops_per_s, "1/s"),
        "sim_op_mean_ms": (outcome.mean_ms, "ms"),
        "sim_op_p99_ms": (outcome.percentile_ms(99), "ms"),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    from tracing import Tracer, check_layer_map
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    failures = check_layer_map(SRC)
    if failures:
        for failure in failures:
            print(f"FAILED check: {failure}", file=sys.stderr)
        return 2

    start = time.perf_counter()
    reps: list[Rep] = []
    while len(reps) < MIN_REPS or time.perf_counter() - start < seconds:
        reps.append(one_rep(workload, seed))
    metrics = e2e_metrics(reps)

    checks = [f for r in reps for f in r.outcome.failures]
    if len({r.outcome.digest for r in reps}) != 1:
        checks.append("sim_outputs_identical_across_reps")

    n = len(reps[0].outcome.latencies)
    beyond = n - max(1, -(-99 * n // 100))
    print(f"== {name}  seed={seed}  loop={workload.loop}  reps={len(reps)}")
    print(f"   ops per rep: {workload.ops}  latency samples per rep: n={n} "
          f"({beyond} beyond p99; identical across reps)")
    print(f"   sim_op_p50_ms: {reps[0].outcome.percentile_ms(50):.6f} ms (n={n})")
    print(f"   ops_per_s by rep: {[round(r.ops_per_s, 1) for r in reps]}")
    print(f"   notes: {json.dumps(reps[0].outcome.notes, sort_keys=True)}")
    attempted = sum(r.outcome.attempted for r in reps)
    failed = attempted - sum(r.outcome.completed for r in reps)
    print(f"   failed_ops_ratio: {failed / attempted:.6f} ({failed}/{attempted} ops)")

    if trace:
        untraced_wall = metrics["setup_s"][0] + statistics.median(r.run_s for r in reps)
        other = one_rep(workload, seed + 1, setups=1)
        if other.outcome.digest == reps[0].outcome.digest:
            checks.append("seed_changes_outputs")
        checks += [f"seed+1: {f}" for f in other.outcome.failures]
        tracer = Tracer(ROOT)
        traced = one_rep(workload, seed, setups=1, tracer=tracer)
        checks += [f"traced: {f}" for f in traced.outcome.failures]
        if traced.outcome.digest != reps[0].outcome.digest:
            checks.append("traced_outputs_identical")
        traced_wall = traced.setup_times[0] + traced.run_s
        metrics = tracer.layer_metrics(workload.ops)
        metrics.update(traced.counters)
        for span in ("setup", "attach", "workload", "verify"):
            (record,) = [s for s in tracer.spans if s["name"] == span]
            metrics[f"span.{span}_s"] = (record["duration_s"], "s")
        metrics["trace.overhead"] = (traced_wall / untraced_wall, "ratio")
        for span in tracer.spans:
            print("   span " + json.dumps(span, sort_keys=True))

    for metric, (value, unit) in metrics.items():
        print(f"   {metric:<28s} {value:>16.6f} {unit}")
    checks = list(dict.fromkeys(checks))  # each repetition repeats its failures
    for check in checks:
        print(f"FAILED check: {check}", file=sys.stderr)
    print(json.dumps({
        "correct": not checks,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }))
    return 1 if checks else 0


def run_all(args) -> int:
    """Every workload, each in a fresh process; metrics are prefixed
    with the workload name."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        status = status or proc.returncode
        result = json.loads(lines[-1]) if lines else {"correct": False}
        combined["correct"] = combined["correct"] and result["correct"] and not proc.returncode
        combined["attempted"] += result.get("attempted", 0)
        combined["failed"] += result.get("failed", 0)
        for metric, value in result.get("metrics", {}).items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["paper_fio", "fleet_churn", "chain_lossy_traced", "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    # single-threaded: no BLAS worker pool behind the numpy cipher
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    os.environ.setdefault("OMP_NUM_THREADS", "1")
    sys.path[:0] = [str(Path(__file__).resolve().parent), str(SRC), str(ROOT)]
    sys.exit(main())
