"""Kernel microbenchmark scenarios.

Each scenario builds its world, runs it, and returns a flat metrics
dict.  Two kinds of numbers come out:

- **wall-clock** (``wall_s``, ``events_per_s``) — how fast the kernel
  executes; this is what the optimization PRs move.
- **simulated** (``sim_elapsed``, ``iops``, ``mean_latency``) — results
  inside the simulation; these must stay bit-identical across kernel
  changes and double as a determinism cross-check.

All scenarios are deterministic: fixed seeds, fixed topologies, no
dependence on wall time.
"""

from __future__ import annotations

import time

from repro.net import (
    ArpTable,
    ExpressManager,
    Interface,
    Link,
    Node,
    Switch,
    TcpListener,
    TcpSocket,
)
from repro.sim import Simulator, Store


def bench_event_churn(n_procs: int = 120, iters: int = 400) -> dict:
    """Raw timeout churn: many processes sleeping staggered delays.

    Exercises the timed path (heap) plus per-resume kernel overhead.
    """
    sim = Simulator()

    def worker(i: int):
        delay = 1e-6 * ((i % 7) + 1)
        for _ in range(iters):
            yield sim.timeout(delay)

    for i in range(n_procs):
        sim.process(worker(i), name=f"churn-{i}")
    start = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - start
    events = sim.events
    return {
        "wall_s": wall,
        "events": events,
        "events_per_s": events / wall if wall > 0 else 0.0,
        "sim_elapsed": sim.now,
    }


def bench_store_pingpong(pairs: int = 40, items: int = 1500) -> dict:
    """Zero-delay event churn: request/reply ping-pong through Stores.

    Every hand-off is a same-time ``succeed`` — the path the deferred
    FIFO fast-paths past the heap.
    """
    sim = Simulator()

    def producer(req: Store, rsp: Store):
        for n in range(items):
            req.put(n)
            yield rsp.get()

    def consumer(req: Store, rsp: Store):
        for _ in range(items):
            n = yield req.get()
            rsp.put(n + 1)

    for p in range(pairs):
        req, rsp = Store(sim), Store(sim)
        sim.process(producer(req, rsp), name=f"prod-{p}")
        sim.process(consumer(req, rsp), name=f"cons-{p}")
    start = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - start
    events = sim.events
    return {
        "wall_s": wall,
        "events": events,
        "events_per_s": events / wall if wall > 0 else 0.0,
        "sim_elapsed": sim.now,
    }


def bench_tcp_transfer(messages: int = 250, size: int = 65536, express: bool = False) -> dict:
    """Bulk TCP over the full net stack: link, switch, demux, windowing."""
    sim = Simulator()
    if express:
        ExpressManager(sim)  # must exist before links are built
    arp = ArpTable("bench")
    switch = Switch(sim, "sw")

    def host(name: str, ip: str, mac: str) -> Node:
        node = Node(sim, name)
        iface = Interface(f"{name}.eth0", mac, ip)
        node.add_interface(iface, arp)
        node.stack.add_route("0.0.0.0/0", iface)
        Link(sim, iface, switch.add_port(name))
        return node

    a = host("host-a", "10.0.0.1", "aa:00:00:00:00:01")
    b = host("host-b", "10.0.0.2", "aa:00:00:00:00:02")
    listener = TcpListener(sim, b.stack, "10.0.0.2", 9000)
    received = []

    def server():
        sock = yield listener.accept()
        while len(received) < messages:
            got = yield sock.recv()
            received.append(got)

    def client():
        sock = TcpSocket(sim, a.stack, "10.0.0.1", a.stack.allocate_port())
        yield sock.connect("10.0.0.2", 9000)
        for n in range(messages):
            sock.send(("blob", n), size)

    sim.process(server(), name="server")
    sim.process(client(), name="client")
    start = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - start
    events = sim.events
    out = {
        "wall_s": wall,
        "events": events,
        "events_per_s": events / wall if wall > 0 else 0.0,
        "sim_elapsed": sim.now,
        "messages": len(received),
        "sim_throughput_bps": messages * size / sim.now if sim.now else 0.0,
    }
    if sim.express is not None:
        out["promotions"] = sim.express.promotions
    return out


def bench_fio_full(
    threads: int = 4, ios_per_thread: int = 150, express: bool = False
) -> dict:
    """End-to-end MB-ACTIVE fio run — the paper-scenario hot path.

    This is the scenario the ISSUE's >= 1.5x wall-clock criterion is
    measured on; ``iops``/``mean_latency`` are simulated-time results
    that must not move when the kernel gets faster.  ``express=True``
    runs the identical workload over the flow-level fast path: the
    wall-clock drops, the simulated results must not move by one ULP.
    """
    from benchmarks.harness import MB_ACTIVE, build_testbed, fio

    start = time.perf_counter()
    bed = build_testbed(MB_ACTIVE, express=express)
    result = fio(bed, 16 * 1024, threads=threads, ios_per_thread=ios_per_thread)
    wall = time.perf_counter() - start
    events = bed.sim.events
    out = {
        "wall_s": wall,
        "events": events,
        "events_per_s": events / wall if wall > 0 else 0.0,
        "sim_elapsed": result.elapsed,
        "iops": result.iops,
        "mean_latency": result.latency.mean,
        "p99_latency": result.latency.p(99),
        "completed": result.completed,
    }
    if bed.sim.express is not None:
        out["promotions"] = bed.sim.express.promotions
    return out


def bench_tcp_transfer_express(
    messages: int = 250, size: int = 65536, express: bool = True
) -> dict:
    """``tcp_transfer`` with flows promoted to the express path."""
    return bench_tcp_transfer(messages, size, express=express)


def bench_fio_full_express(
    threads: int = 4, ios_per_thread: int = 150, express: bool = True
) -> dict:
    """``fio_full`` with the express fast path on — the ISSUE 6 target
    scenario: >= 10x wall-clock vs the seed kernel, simulated results
    byte-identical to ``fio_full``."""
    return bench_fio_full(threads, ios_per_thread, express=express)


def bench_fio_legacy(threads: int = 1, ios_per_thread: int = 60) -> dict:
    """LEGACY direct-attach fio — the no-middle-box reference point."""
    from benchmarks.harness import LEGACY, build_testbed, fio

    start = time.perf_counter()
    bed = build_testbed(LEGACY)
    result = fio(bed, 16 * 1024, threads=threads, ios_per_thread=ios_per_thread)
    wall = time.perf_counter() - start
    events = bed.sim.events
    return {
        "wall_s": wall,
        "events": events,
        "events_per_s": events / wall if wall > 0 else 0.0,
        "sim_elapsed": result.elapsed,
        "iops": result.iops,
        "mean_latency": result.latency.mean,
        "p99_latency": result.latency.p(99),
        "completed": result.completed,
    }


#: name -> (callable, kwargs-for-quick-mode)
SCENARIOS = {
    "event_churn": (bench_event_churn, {"n_procs": 40, "iters": 150}),
    "store_pingpong": (bench_store_pingpong, {"pairs": 15, "items": 400}),
    "tcp_transfer": (bench_tcp_transfer, {"messages": 60, "size": 65536}),
    "fio_legacy": (bench_fio_legacy, {"threads": 1, "ios_per_thread": 20}),
    "fio_full": (bench_fio_full, {"threads": 2, "ios_per_thread": 40}),
    "tcp_transfer_express": (
        bench_tcp_transfer_express,
        {"messages": 60, "size": 65536},
    ),
    "fio_full_express": (bench_fio_full_express, {"threads": 2, "ios_per_thread": 40}),
}


def run_all(quick: bool = False, exact: bool = False) -> dict:
    """``exact=True`` forces the ``*_express`` scenarios back to packet
    mode (the ``--exact`` CLI knob): same workloads, fast path off —
    their simulated results must still match the express recording."""
    results = {}
    for name, (fn, quick_kwargs) in SCENARIOS.items():
        kwargs = dict(quick_kwargs) if quick else {}
        if exact and name.endswith("_express"):
            kwargs["express"] = False
        results[name] = fn(**kwargs)
    return results
