"""Sharding is invisible to applications.

The same fio / OLTP / Postmark scenarios are built once on plain
simulators and once per shard-count on shards of a
:class:`~repro.sim.ShardedKernel`, with all shards driven through the
merged ``kernel.run()`` loop.  Every application-level result —
counts, latency samples, durations — must be identical: the merge
only interleaves queues, it never reorders anything a workload can
observe.
"""

from repro.blockdev.disk import BLOCK_SIZE
from repro.obs import Timeline
from repro.sim import ShardedKernel, Simulator
from repro.fs import ExtFilesystem, SessionDevice
from repro.workloads import (
    FioConfig,
    FioJob,
    MySqlServer,
    OltpClient,
    OltpConfig,
    PostmarkConfig,
    PostmarkJob,
)

from benchmarks.harness import MB_FWD, VOLUME_SIZE, build_testbed
from tests.core.conftest import StormEnv
from tests.workloads.test_fio import legacy_session


def _fio_setup(sim):
    """Build the spliced testbed on ``sim``; returns a digest thunk."""
    bed = build_testbed(MB_FWD, sim=sim)
    config = FioConfig(
        io_size=16 * 1024,
        num_threads=2,
        read_fraction=0.5,
        pattern="random",
        ios_per_thread=30,
        region_size=VOLUME_SIZE,
        seed=42,
    )
    job = FioJob(sim, bed.session, config, vm=bed.vm, params=bed.cloud.params)
    proc = sim.process(job.run())

    def digest():
        assert proc.ok
        result = proc.value
        return (
            "fio",
            result.completed,
            result.errors,
            result.iops,
            result.latency.mean,
            tuple(result.latency.samples),
            result.elapsed,
        )

    return digest


def _oltp_setup(sim):
    env = StormEnv(volume_size=4096 * BLOCK_SIZE, sim=sim)
    session = legacy_session(env)
    config = OltpConfig(threads_per_client=2, table_pages=512)
    server = MySqlServer(env.sim, env.vm, session, env.cloud.params, config)
    clients = []
    for i, host in enumerate(["compute2", "compute3"]):
        vm = env.cloud.boot_vm(env.tenant, f"client{i}", env.cloud.compute_hosts[host])
        # per-client timelines are absolute-time bucketed, so they are
        # deliberately left out of the digest (apps sharing a shard
        # start at translated times); counts and durations are not
        clients.append(OltpClient(env.sim, vm, env.vm.ip, config, Timeline()))
    procs = [sim.process(c.run(1.0)) for c in clients]

    def digest():
        assert all(p.ok for p in procs)
        return (
            "oltp",
            server.transactions_committed,
            server.errors,
            tuple(c.completed for c in clients),
        )

    return digest


def _postmark_setup(sim):
    env = StormEnv(volume_size=8192 * BLOCK_SIZE, sim=sim)
    session = legacy_session(env)
    device = SessionDevice(session, env.volume.size // BLOCK_SIZE)
    ExtFilesystem.mkfs(env.volume)
    fs = ExtFilesystem(env.sim, device)
    env.run(fs.mount())
    job = PostmarkJob(
        env.sim,
        fs,
        PostmarkConfig(file_count=8, transactions=20),
        vm=env.vm,
        params=env.cloud.params,
    )
    proc = sim.process(job.run())

    def digest():
        assert proc.ok
        result = proc.value
        return (
            "postmark",
            result.creations,
            result.deletions,
            result.reads,
            result.appends,
            result.bytes_read,
            result.bytes_written,
            result.elapsed,
        )

    return digest


_APPS = (_fio_setup, _oltp_setup, _postmark_setup)


def _run_plain():
    digests = []
    for make in _APPS:
        sim = Simulator()
        thunk = make(sim)
        sim.run()
        digests.append(thunk())
    return tuple(digests)


def _run_sharded(shards):
    kernel = ShardedKernel(shards)
    thunks = [make(kernel.shards[i % shards]) for i, make in enumerate(_APPS)]
    kernel.run()
    return tuple(thunk() for thunk in thunks)


def test_apps_identical_across_shard_counts():
    baseline = _run_plain()
    assert _run_sharded(3) == baseline  # one app per shard, merged run
    assert _run_sharded(2) == baseline  # two apps share shard 0
    assert _run_sharded(1) == baseline  # everything on one shard
