"""The benchmark's three workloads, built only from public ``repro.*``
APIs and ``benchmarks.harness``.

Each workload splits one repetition into the phases the runner times
and traces separately:

- ``setup(seed)`` builds everything the timed phase needs and returns
  an opaque state (``attach(state)`` finishes set-up where attaching
  is a phase of its own);
- ``run(state)`` is the timed phase and returns the number of ops it
  completed;
- ``verify(state)`` checks the outputs and returns an :class:`Outcome`.

Simulated-time outputs are pure functions of the seed: the runner
checks that every repetition of one seed reproduces them exactly.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

from benchmarks.harness import MB_ACTIVE, VOLUME_SIZE, build_testbed
from repro.cloud import CloudController, CloudParams
from repro.core import StorM
from repro.core.policy import ServiceSpec
from repro.faults import FaultInjector
from repro.fleet import FleetConfig, FleetRun
from repro.fleet.generator import FleetRunError
from repro.fs import ExtFilesystem
from repro.obs import ObsBus, instrument
from repro.services import install_default_services
from repro.sim import Simulator
from repro.workloads import FioConfig, FioJob


@dataclass
class Outcome:
    """What one repetition produced, as the runner reports it."""

    attempted: int
    completed: int
    #: simulated per-op latencies in seconds (the sample behind p50/p99)
    latencies: list[float]
    #: simulated seconds over which the ops completed (throughput window)
    sim_elapsed: float
    #: kernel events executed (sequence numbers handed out)
    events: int
    #: blake2s over every simulated output; equal seeds give equal digests
    digest: str
    #: names of the correctness checks that failed
    failures: list[str] = field(default_factory=list)
    #: workload-specific figures printed beside the metrics
    notes: dict = field(default_factory=dict)

    @property
    def sim_ops_per_s(self) -> float:
        return self.completed / self.sim_elapsed

    @property
    def mean_ms(self) -> float:
        return sum(self.latencies) / len(self.latencies) * 1e3

    def percentile_ms(self, p: float) -> float:
        """Nearest-rank percentile of the latency sample, in ms."""
        ordered = sorted(self.latencies)
        rank = max(1, math.ceil(p / 100 * len(ordered)))
        return ordered[rank - 1] * 1e3


def _digest(*parts: object) -> str:
    return hashlib.blake2s(repr(parts).encode()).hexdigest()


def _fio_outcome(sim, result, issued: int, extra: tuple = ()) -> Outcome:
    samples = result.latency.samples
    outcome = Outcome(
        attempted=issued,
        completed=result.completed,
        latencies=list(samples),
        sim_elapsed=result.elapsed,
        # Simulator has no public event count; benchmarks/perf reads this too
        events=sim._sequence,
        digest=_digest(result.completed, result.errors, result.elapsed, samples, extra),
        notes={"fio_errors": result.errors},
    )
    if result.completed != issued:
        outcome.failures.append(f"fio_completed_equals_issued ({result.completed}/{issued})")
    if result.errors:
        outcome.failures.append(f"fio_errors_zero ({result.errors} errors)")
    return outcome


class PaperFio:
    """§V-A MB-ACTIVE-RELAY testbed: worst-case placement, one
    stream-cipher box, 16 KB random 50/50 fio, closed loop."""

    name = "paper_fio"
    loop = "closed, 4 threads"
    threads = 4
    ios_per_thread = 250
    ops = threads * ios_per_thread

    def setup(self, seed: int):
        # build_testbed attaches the volume: attach is part of set-up
        return {"bed": build_testbed(MB_ACTIVE), "seed": seed}

    def attach(self, state) -> None:
        pass

    def run(self, state) -> int:
        bed = state["bed"]
        config = FioConfig(
            io_size=16 * 1024,
            num_threads=self.threads,
            read_fraction=0.5,
            pattern="random",
            ios_per_thread=self.ios_per_thread,
            region_size=VOLUME_SIZE,
            seed=state["seed"],
        )
        job = FioJob(bed.sim, bed.session, config, vm=bed.vm, params=bed.cloud.params)
        state["result"] = bed.sim.run(until=bed.sim.process(job.run()))
        return state["result"].completed

    def verify(self, state) -> Outcome:
        return _fio_outcome(state["bed"].sim, state["result"], self.ops)


class ChainLossy:
    """monitor -> encryption -> replication active-relay chain with a
    replica volume; 4 KB fio (30% reads, real bytes) over a storage
    link that drops 3% of packets; obs bus on with its default sink."""

    name = "chain_lossy_traced"
    loop = "closed, 4 threads"
    threads = 4
    # 2,000 ops: p99 is a quantile of the retransmission-stall mode,
    # and its seed-to-seed swing falls with the number of stalls
    ios_per_thread = 500
    ops = threads * ios_per_thread
    volume_size = 2048 * 4096
    # at 1% loss about 1% of I/Os wait out a retransmission timeout, so
    # p99 sits on the edge of that mode and swings by +-30% from seed
    # to seed; at 3% it lies inside it
    drop = 0.03

    def setup(self, seed: int):
        sim = Simulator()
        params = CloudParams(
            tcp_reliable=True,
            tcp_rto=0.02,
            iscsi_session_recovery=True,
            iscsi_relogin_backoff=0.02,
        )
        cloud = CloudController(sim, params)
        for i in range(1, 6):
            cloud.add_compute_host(f"compute{i}")
        storage = cloud.add_storage_host("storage1")
        replica_host = cloud.add_storage_host("storage2")
        tenant = cloud.create_tenant("acme")
        vm = cloud.boot_vm(tenant, "app1", cloud.compute_hosts["compute1"])
        primary = cloud.create_volume(tenant, "data-vol", self.volume_size)
        ExtFilesystem.mkfs(primary)  # the monitor reconstructs this layout
        replica_vol = cloud.create_volume(
            tenant, "data-replica", self.volume_size, storage_host=replica_host
        )
        storm = StorM(sim, cloud)
        install_default_services(storm)
        chain = [
            storm.provision_middlebox(
                tenant, ServiceSpec("mon", "monitor", relay="active", placement="compute2")
            ),
            storm.provision_middlebox(
                tenant,
                ServiceSpec(
                    "enc", "encryption", relay="active", placement="compute3",
                    options={"algorithm": "stream"},
                ),
            ),
            storm.provision_middlebox(
                tenant, ServiceSpec("rep", "replication", relay="active", placement="compute4")
            ),
        ]
        bus = ObsBus(sim)
        instrument(bus, storm=storm)
        injector = FaultInjector(sim, seed=seed)
        faults = injector.lossy_link(storage.storage_iface.link, drop=self.drop)
        return {
            "sim": sim, "cloud": cloud, "storm": storm, "tenant": tenant, "vm": vm,
            "primary": primary, "replica_vol": replica_vol, "replica_host": replica_host,
            "chain": chain, "bus": bus, "faults": faults, "seed": seed,
        }

    def attach(self, state) -> None:
        sim, storm, chain = state["sim"], state["storm"], state["chain"]
        rep_mb = chain[-1]

        def attach():
            flow = yield sim.process(
                storm.attach_with_services(state["tenant"], state["vm"], "data-vol", chain)
            )
            rep_host = state["cloud"].compute_hosts[rep_mb.host_name]
            session = yield sim.process(
                rep_host.initiator.connect(
                    state["replica_host"].storage_iface.ip,
                    state["replica_vol"].iqn,
                    recover=False,
                )
            )
            return flow, rep_mb.service.add_replica(session, "replica1")

        state["flow"], state["replica"] = sim.run(until=sim.process(attach()))
        sim.process(rep_mb.service.monitor(interval=0.1))

    def run(self, state) -> int:
        sim = state["sim"]
        config = FioConfig(
            io_size=4096,
            num_threads=self.threads,
            read_fraction=0.3,
            ios_per_thread=self.ios_per_thread,
            region_size=self.volume_size // 2,
            seed=state["seed"],
            carry_data=True,
        )
        job = FioJob(sim, state["flow"].session, config)
        state["result"] = sim.run(until=sim.process(job.run()))
        return state["result"].completed

    def verify(self, state) -> Outcome:
        sim, replica = state["sim"], state["replica"]
        service = state["chain"][-1].service
        journal = service.write_journal

        def settle():
            deadline = sim.now + 5.0
            while sim.now < deadline:
                if replica.alive and journal and replica.synced_seq == journal[-1][0]:
                    return
                yield sim.timeout(0.05)

        sim.run(until=sim.process(settle()))
        last_write = {}
        for _seq, offset, length, data in journal:
            last_write[(offset, length)] = data
        dropped = state["faults"].dropped
        outcome = _fio_outcome(
            sim, state["result"], self.ops, (dropped, sorted(last_write.items()))
        )
        if dropped == 0:
            outcome.failures.append("loss_fired (faults.dropped == 0)")
        if not last_write:
            outcome.failures.append("replication_journal_nonempty")
        for (offset, length), data in sorted(last_write.items()):
            if state["primary"].read_sync(offset, length) != data:
                outcome.failures.append(f"primary_matches_journal (offset {offset})")
                break
            if state["replica_vol"].read_sync(offset, length) != data:
                outcome.failures.append(f"replica_matches_journal (offset {offset})")
                break
        outcome.notes.update(
            dropped=dropped, journal_offsets=len(last_write),
            relogins=state["flow"].session.relogins,
        )
        return outcome


class FleetChurn:
    """``repro.fleet`` open-loop churn with HA: 4 shards, 400 Zipf
    tenants, Poisson arrivals at 1,000 sessions per simulated second
    and two churn storms."""

    name = "fleet_churn"
    loop = "open, Poisson 1000 sessions/sim-s"
    base_sessions = 12500
    churn_storms = 2
    storm_size = 100
    ops = base_sessions + churn_storms * storm_size

    def config(self, seed: int) -> FleetConfig:
        # connect_latency 1 ms (default 2 ms): the busiest shard takes
        # 36% of arrivals, and at 2 ms its attach mutex is ~73% busy,
        # where p99 swings by +-20% from seed to seed
        return FleetConfig(
            seed=seed, shards=4, tenants=400, sessions=self.base_sessions,
            arrival_rate=1000.0, ha=True, churn_storms=self.churn_storms,
            storm_size=self.storm_size, connect_latency=0.001,
        )

    def setup(self, seed: int):
        return {"run": FleetRun(self.config(seed))}

    def attach(self, state) -> None:
        pass

    def run(self, state) -> int:
        fleet = state["run"]
        try:
            fleet.run()
        except FleetRunError:
            pass  # verify counts the sessions that never completed
        return fleet.completed

    def verify(self, state) -> Outcome:
        fleet = state["run"]
        due = {plan.index: plan.at for plan in fleet.plan}
        # open loop: attach latency counts from the scheduled arrival,
        # so a dispatcher running late shows up in the latency
        latencies = [rec["at"] - due[rec["i"]] + rec["lat"] for rec in fleet.trace]
        outcome = Outcome(
            attempted=len(fleet.plan),
            completed=fleet.completed,
            latencies=latencies,
            # throughput window: until the last attach completed (the
            # kernel's end time is set by the longest hold instead)
            sim_elapsed=max(due[rec["i"]] + lat for rec, lat in zip(fleet.trace, latencies)),
            events=fleet.kernel.events,
            digest=fleet.trace_digest(),
            notes={
                "peak_concurrent": fleet.peak_concurrent,
                "dispatch_lag_max_ms": max(rec["at"] - due[rec["i"]] for rec in fleet.trace) * 1e3,
            },
        )
        if fleet.completed != len(fleet.plan):
            outcome.failures.append(
                f"all_sessions_complete ({fleet.completed}/{len(fleet.plan)})"
            )
        leaked = [
            name
            for domain in fleet.domains
            for name in domain.cloud.tenants
            if domain.storm.tenant_flow_count(name)
        ]
        if leaked:
            outcome.failures.append(f"tenant_flows_drained ({len(leaked)} tenants hold flows)")
        return outcome


WORKLOADS = {w.name: w for w in (PaperFio(), FleetChurn(), ChainLossy())}
