"""Interfaces, point-to-point links, and the FIFO wire model.

A :class:`Link` joins two :class:`Interface` objects.  Each direction
is one :class:`Fifo` element: a packet occupies the wire from
``start = max(now, busy)`` for ``size / bandwidth + overhead``, then
propagates for ``latency`` and is delivered to the far interface's
owner.  ``per_packet_overhead`` models fixed per-frame cost — for VM
virtual interfaces this is the single-threaded virtio copy path the
paper identifies as the dominant intra-host cost.

Timing is analytic: ``transmit`` computes the slot and schedules one
kernel event per packet — the delivery — or, when the packet has to
queue behind earlier ones, one event at its serialization start, which
then schedules the delivery.  Fault judgment (``link.faults``) and the
per-packet obs counters happen at serialization start, in wire order,
so fault state installed while packets wait applies to them, and a
packet already serializing when the link goes down is still delivered.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.sim import Simulator
from repro.net.packet import Packet

if TYPE_CHECKING:
    from repro.net.stack import Node

#: 1 GbE in bytes/second, the paper's testbed NICs.
GIGABIT_BPS = 125_000_000


class Fifo:
    """One FIFO element's busy horizon (a link direction, a stack's
    software-forward path).

    :meth:`occupy` is the single definition of the element's timing,
    shared by packet mode and the express path
    (:mod:`repro.net.express`), so both produce the same floats.
    """

    __slots__ = ("busy",)

    def __init__(self) -> None:
        #: absolute time the element finishes its last committed slot
        self.busy = 0.0

    def occupy(self, now: float, service: float) -> tuple[float, float]:
        """Commit a ``service``-long slot for work arriving at ``now``;
        returns its ``(start, depart)`` times."""
        busy = self.busy
        start = busy if busy > now else now
        depart = self.busy = start + service
        return start, depart


class Interface:
    """A NIC: a named attachment point with a MAC and optional IP."""

    def __init__(self, name: str, mac: str, ip: Optional[str] = None):
        self.name = name
        self.mac = mac
        self.ip = ip
        self.owner: Optional["Node"] = None
        self.link: Optional[Link] = None
        self.tx_packets = 0
        self.rx_packets = 0
        self.tx_bytes = 0
        self.rx_bytes = 0

    def send(self, packet: Packet) -> None:
        """Transmit onto the attached link (drops if unplugged)."""
        if self.link is None:
            return
        self.tx_packets += 1
        self.tx_bytes += packet.size
        self.link.transmit(self, packet)

    def deliver(self, packet: Packet) -> None:
        """Called by the link when a packet arrives at this interface."""
        self.rx_packets += 1
        self.rx_bytes += packet.size
        if self.owner is not None:
            self.owner.receive(packet, self)

    def __repr__(self) -> str:
        return f"Interface({self.name}, mac={self.mac}, ip={self.ip})"


class Link:
    """Full-duplex link: an independent :class:`Fifo` per direction."""

    def __init__(
        self,
        sim: Simulator,
        a: Interface,
        b: Interface,
        bandwidth: float = GIGABIT_BPS,
        latency: float = 50e-6,
        per_packet_overhead: float = 0.0,
    ):
        if bandwidth <= 0:
            raise ValueError("link bandwidth must be positive")
        self.sim = sim
        self.a = a
        self.b = b
        self.bandwidth = bandwidth
        self.latency = latency
        self.per_packet_overhead = per_packet_overhead
        #: installed by :class:`repro.faults.FaultInjector` — when
        #: non-None, every packet is judged (drop / corrupt / delay /
        #: link-down) at its serialization start.  ``None`` keeps the
        #: fast path branch-free beyond one identity check.
        self.faults = None
        #: observability bus hook (same zero-cost-off pattern): when
        #: non-None, per-packet transmit/drop counters are recorded.
        self.obs = None
        self.obs_name = f"{a.name}<->{b.name}"
        a.link = self
        b.link = self
        #: the wire of each direction, keyed by the sending interface
        self.fifos = {a: Fifo(), b: Fifo()}

    def transmit(self, from_iface: Interface, packet: Packet) -> None:
        fifo = self.fifos.get(from_iface)
        if fifo is None:
            raise ValueError("interface not on this link")
        dst = self.other_end(from_iface)
        now = self.sim.now
        start, depart = fifo.occupy(
            now, packet.size / self.bandwidth + self.per_packet_overhead
        )
        if start > now:
            self.sim.call_at(start, self._serialize, packet, dst, depart)
        else:
            self._serialize(packet, dst, depart)

    def other_end(self, iface: Interface) -> Interface:
        return self.b if iface is self.a else self.a

    def _serialize(self, packet: Packet, dst: Interface, depart: float) -> None:
        """Serialization start: count, judge, schedule the delivery.  A
        dropped packet keeps its wire slot (the loss happens at the far
        end of the pipe)."""
        obs = self.obs
        if obs is not None:
            metrics = obs.metrics
            metrics.counter("link.tx", self.obs_name).inc()
            metrics.counter("link.tx_bytes", self.obs_name).inc(packet.size)
        faults = self.faults
        if faults is None:
            self.sim.call_at(depart + self.latency, dst.deliver, packet)
            return
        extra = faults.judge(packet)
        if extra < 0.0:
            if obs is not None:
                obs.metrics.counter("link.drop", self.obs_name).inc()
            return
        self.sim.call_at(depart + (self.latency + extra), dst.deliver, packet)
