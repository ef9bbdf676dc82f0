"""Shared scenario builder for the figure/table benchmarks.

Reproduces the paper's §V-A testbed: a tenant VM (2 vCPU / 4 GB) on
one compute host, its volume on the storage node, one middle-box VM
with the same shape, and — worst case, as the paper measures — the
middle-box, tenant VM, and both storage gateways all on *different*
physical hosts.

Four configurations, named as in the paper:

- ``LEGACY``            — direct attach, no StorM;
- ``MB-FWD``            — spliced+steered through the middle-box, no
                          processing (pure IP forwarding);
- ``MB-PASSIVE-RELAY``  — stream-cipher service via the per-packet hook;
- ``MB-ACTIVE-RELAY``   — stream-cipher service via the split-TCP relay.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass

from repro.cloud import CloudController, CloudParams
from repro.core import StorM
from repro.core.policy import ServiceSpec
from repro.services import install_default_services
from repro.sim import Simulator
from repro.workloads import FioConfig, FioJob

#: simulation-scale stand-in for the paper's 20 GB volume
VOLUME_SIZE = 16 * 1024 * 1024

#: glibc ``mallopt`` parameters and the value both are pinned to (glibc's
#: own default, 128 KiB)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MALLOC_THRESHOLD = 128 * 1024


def pin_malloc_thresholds() -> None:
    """Fix glibc's mmap and trim thresholds at their 128 KiB defaults.

    By default glibc raises its mmap threshold to the largest mmap'd
    block freed so far, and its trim threshold to twice that.  A
    repeated job that frees one multi-megabyte buffer (a digest over
    every journaled write, say) then builds the next such buffer on the
    heap, and whether the heap gives those megabytes back depends on how
    the job's small blocks happen to lie: peak RSS flips between two
    levels ~8 MB apart from run to run.  Pinned thresholds keep large
    blocks in their own mappings and trim the heap as soon as it frees
    128 KiB, so the resident set follows live data.  A no-op where
    there is no ``mallopt`` (not glibc).
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(_M_MMAP_THRESHOLD, _MALLOC_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _MALLOC_THRESHOLD)


# Every benchmark process imports this module before it builds a testbed.
pin_malloc_thresholds()

LEGACY = "LEGACY"
MB_FWD = "MB-FWD"
MB_PASSIVE = "MB-PASSIVE-RELAY"
MB_ACTIVE = "MB-ACTIVE-RELAY"


@dataclass
class Testbed:
    sim: Simulator
    cloud: CloudController
    storm: StorM
    tenant: object
    vm: object
    volume: object
    session: object = None
    middlebox: object = None
    flow: object = None


def build_testbed(
    mode: str,
    volume_size: int = VOLUME_SIZE,
    service_kind: str | None = None,
    express: bool = False,
    sim: Simulator | None = None,
) -> Testbed:
    """Stand up the cloud and attach vol1 according to ``mode``.

    ``service_kind`` defaults to no processing for MB-FWD and the
    paper's stream cipher for the relay modes.  ``express=True`` turns
    on the flow-level fast path (application-level results must be
    bit-identical to packet mode).  ``sim`` lets the shared-simulator
    app matrix build several beds on one :class:`Simulator`.
    """
    if sim is None:
        sim = Simulator()
    cloud = CloudController(sim, CloudParams(express=True) if express else None)
    for i in range(1, 6):
        cloud.add_compute_host(f"compute{i}")
    cloud.add_storage_host("storage1")
    tenant = cloud.create_tenant("acme")
    vm = cloud.boot_vm(tenant, "vm1", cloud.compute_hosts["compute1"])
    volume = cloud.create_volume(tenant, "vol1", volume_size)
    storm = StorM(sim, cloud)
    install_default_services(storm)
    bed = Testbed(sim, cloud, storm, tenant, vm, volume)

    if mode == LEGACY:

        def attach():
            return (yield sim.process(cloud.attach_volume(vm, "vol1")))

        bed.session = run(bed, attach())
        return bed

    relay = {MB_FWD: "fwd", MB_PASSIVE: "passive", MB_ACTIVE: "active"}[mode]
    if service_kind is None:
        service_kind = "noop" if mode == MB_FWD else "encryption"
    options = {"algorithm": "stream"} if service_kind == "encryption" else {}
    spec = ServiceSpec(
        "svc", service_kind, relay=relay, placement="compute3", options=options
    )
    mb = storm.provision_middlebox(tenant, spec)

    def attach():
        # worst case: VM on compute1, ingress gw on compute2, MB on
        # compute3, egress gw on compute4 — all different hosts
        return (
            yield sim.process(
                storm.attach_with_services(
                    tenant,
                    vm,
                    "vol1",
                    [mb],
                    ingress_host=cloud.compute_hosts["compute2"],
                    egress_host=cloud.compute_hosts["compute4"],
                )
            )
        )

    bed.flow = run(bed, attach())
    bed.session = bed.flow.session
    bed.middlebox = mb
    return bed


def run(bed: Testbed, gen):
    return bed.sim.run(until=bed.sim.process(gen))


def fio(
    bed: Testbed,
    io_size: int,
    threads: int = 1,
    ios_per_thread: int = 60,
    seed: int = 42,
    read_fraction: float = 0.5,
):
    """The paper's Fio setup: 50/50 random read/write mix."""
    config = FioConfig(
        io_size=io_size,
        num_threads=threads,
        read_fraction=read_fraction,
        pattern="random",
        ios_per_thread=ios_per_thread,
        region_size=VOLUME_SIZE,
        seed=seed,
    )
    job = FioJob(bed.sim, bed.session, config, vm=bed.vm, params=bed.cloud.params)
    return run(bed, job.run())


def fio_point(
    mode: str,
    io_size: int,
    threads: int = 1,
    ios_per_thread: int = 60,
    seed: int = 42,
    seek_penalty: float | None = None,
    express: bool = False,
):
    """One Fio measurement; ``seek_penalty`` overrides the disk's random
    penalty (``CACHED_SEEK`` models the target's page cache absorbing
    the working set, as in the paper's multi-thread experiments)."""
    bed = build_testbed(mode, express=express)
    if seek_penalty is not None:
        for storage_host in bed.cloud.storage_hosts.values():
            storage_host.disk.seek_penalty = seek_penalty
            storage_host.disk.set_queue_depth(32)
    return fio(bed, io_size, threads, ios_per_thread, seed)


#: seek penalty when the target-side page cache absorbs most accesses
CACHED_SEEK = 0.5e-3

_MEMO: dict = {}


def memo(key, compute):
    """Cache expensive sweeps shared by figure pairs (e.g. Figs. 4+7
    report IOPS and latency of the same runs)."""
    if key not in _MEMO:
        _MEMO[key] = compute()
    return _MEMO[key]


IO_SIZES = [4 * 1024, 16 * 1024, 64 * 1024, 256 * 1024]
THREAD_COUNTS = [4, 8, 16, 32]


def routing_sweep():
    """Figs. 4 & 7: LEGACY vs MB-FWD across I/O sizes, one thread."""

    def compute():
        rows = {}
        for size in IO_SIZES:
            legacy = fio_point(LEGACY, size, ios_per_thread=40)
            fwd = fio_point(MB_FWD, size, ios_per_thread=40)
            rows[size] = {"legacy": legacy, "fwd": fwd}
        return rows

    return memo("routing_sweep", compute)


def processing_size_sweep():
    """Figs. 5 & 8: FWD vs PASSIVE vs ACTIVE (stream cipher), one thread."""

    def compute():
        rows = {}
        for size in IO_SIZES:
            rows[size] = {
                "fwd": fio_point(MB_FWD, size, ios_per_thread=40),
                "passive": fio_point(MB_PASSIVE, size, ios_per_thread=40),
                "active": fio_point(MB_ACTIVE, size, ios_per_thread=40),
            }
        return rows

    return memo("processing_size_sweep", compute)


def processing_thread_sweep():
    """Figs. 6 & 9: 16 KB I/O across thread counts, cached target."""

    def compute():
        rows = {}
        for threads in THREAD_COUNTS:
            rows[threads] = {
                "legacy": fio_point(
                    LEGACY, 16 * 1024, threads, 25, seek_penalty=CACHED_SEEK
                ),
                "fwd": fio_point(
                    MB_FWD, 16 * 1024, threads, 25, seek_penalty=CACHED_SEEK
                ),
                "passive": fio_point(
                    MB_PASSIVE, 16 * 1024, threads, 25, seek_penalty=CACHED_SEEK
                ),
                "active": fio_point(
                    MB_ACTIVE, 16 * 1024, threads, 25, seek_penalty=CACHED_SEEK
                ),
            }
        return rows

    return memo("processing_thread_sweep", compute)


# -- paper-shaped tables ------------------------------------------------


def normalize(baseline: float, value: float) -> float:
    """Value relative to baseline (the paper's normalized plots)."""
    if baseline == 0:
        raise ValueError("cannot normalize against a zero baseline")
    return value / baseline


def format_table(headers: list[str], rows: list[list], title: str = "") -> str:
    """Fixed-width table; floats rendered to 3 decimals."""

    def render(cell) -> str:
        if isinstance(cell, float):
            return f"{cell:.3f}"
        return str(cell)

    rendered = [[render(c) for c in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rendered)) if rendered else len(headers[i])
        for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(row))))
    return "\n".join(lines)
