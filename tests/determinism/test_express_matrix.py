"""Express-mode equivalence matrix.

The flow-level express path (``repro.net.express``) replaces the
packet-by-packet walk of an established TCP flow with an analytic
event walk; the contract is that every *application-level* result —
IOPS, every individual latency sample, transaction counts, filesystem
operation counts, and final simulated time — is byte-identical to
packet mode.  This matrix runs fio, OLTP, and Postmark under both
modes and compares bit-for-bit, and additionally asserts that the
express runs really did engage the fast path (a probe that always
fails would pass equivalence vacuously).
"""

import pytest

from repro.blockdev.disk import BLOCK_SIZE
from repro.fs import ExtFilesystem, SessionDevice
from repro.obs import Timeline
from repro.workloads import (
    MySqlServer,
    OltpClient,
    OltpConfig,
    PostmarkConfig,
    PostmarkJob,
)

from benchmarks.harness import LEGACY, MB_ACTIVE, build_testbed, fio
from tests.core.conftest import StormEnv
from tests.workloads.test_fio import legacy_session


def _fio_stream(mode, io_size, ios, express):
    """Application-visible event stream of one fio run: per-IO latency
    samples in completion order plus the summary counters."""
    bed = build_testbed(mode, express=express)
    result = fio(bed, io_size, ios_per_thread=ios)
    stream = (
        result.completed,
        result.errors,
        result.iops,
        result.latency.mean,
        result.latency.p(99),
        result.elapsed,
        tuple(result.latency.samples),
        bed.sim.now,
    )
    return stream, bed.sim.express


@pytest.mark.parametrize(
    "mode,io_size,ios",
    [
        (LEGACY, 16 * 1024, 60),
        (MB_ACTIVE, 16 * 1024, 60),
        # multi-segment PDUs exercise the streamed cut-through path
        (MB_ACTIVE, 64 * 1024, 40),
    ],
    ids=["legacy-16k", "active-16k", "active-64k"],
)
def test_fio_express_stream_identical(mode, io_size, ios):
    packet, _ = _fio_stream(mode, io_size, ios, express=False)
    express, manager = _fio_stream(mode, io_size, ios, express=True)
    assert manager is not None and manager.promotions > 0, "fast path never engaged"
    assert express == packet


def _oltp_stream(express):
    env = StormEnv(volume_size=4096 * BLOCK_SIZE, express=express)
    session = legacy_session(env)
    config = OltpConfig(threads_per_client=2, table_pages=1024)
    server = MySqlServer(env.sim, env.vm, session, env.cloud.params, config)
    timeline = Timeline()
    clients = []
    for i, host in enumerate(["compute2", "compute3"]):
        vm = env.cloud.boot_vm(env.tenant, f"client{i}", env.cloud.compute_hosts[host])
        clients.append(OltpClient(env.sim, vm, env.vm.ip, config, timeline))

    def drive():
        procs = [env.sim.process(c.run(2.0)) for c in clients]
        for p in procs:
            yield p

    env.run(drive())
    stream = (
        server.transactions_committed,
        server.errors,
        tuple(c.completed for c in clients),
        tuple(sorted(timeline._buckets.items())),
        env.sim.now,
    )
    return stream, env.sim.express


def test_oltp_express_stream_identical():
    packet, _ = _oltp_stream(express=False)
    express, manager = _oltp_stream(express=True)
    assert manager is not None and manager.promotions > 0, "fast path never engaged"
    assert express == packet


def _postmark_stream(express):
    env = StormEnv(volume_size=8192 * BLOCK_SIZE, express=express)
    session = legacy_session(env)
    device = SessionDevice(session, env.volume.size // BLOCK_SIZE)
    ExtFilesystem.mkfs(env.volume)
    fs = ExtFilesystem(env.sim, device)
    env.run(fs.mount())
    job = PostmarkJob(
        env.sim,
        fs,
        PostmarkConfig(file_count=10, transactions=30),
        vm=env.vm,
        params=env.cloud.params,
    )
    result = env.run(job.run())
    stream = (
        result.creations,
        result.deletions,
        result.reads,
        result.appends,
        result.bytes_read,
        result.bytes_written,
        result.elapsed,
        env.sim.now,
    )
    return stream, env.sim.express


def test_postmark_express_stream_identical():
    packet, _ = _postmark_stream(express=False)
    express, manager = _postmark_stream(express=True)
    assert manager is not None and manager.promotions > 0, "fast path never engaged"
    assert express == packet


def test_express_run_twice_identical():
    """Express mode is itself deterministic, not merely equivalent."""
    first, _ = _fio_stream(MB_ACTIVE, 16 * 1024, 60, express=True)
    second, _ = _fio_stream(MB_ACTIVE, 16 * 1024, 60, express=True)
    assert first == second


def test_express_off_by_default():
    """``--exact`` semantics: a testbed built without the knob has no
    express manager at all, so packet mode is exactly the seed kernel."""
    bed = build_testbed(LEGACY)
    assert bed.sim.express is None
