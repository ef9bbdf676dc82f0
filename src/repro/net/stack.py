"""Per-node IP stack: L2 filtering, ARP, routing, NAT, IP forwarding.

Every host, VM, gateway, and middle-box owns a :class:`NetworkStack`.
NAT is applied exactly once per node traversal (at PREROUTING for
received packets, at OUTPUT for locally originated ones), mirroring
the iptables hook points StorM programs in the paper.  Middle-boxes
enable ``ip_forward`` — the only in-guest configuration the paper
requires of them.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro.sim import Simulator, Store
from repro.net.link import Fifo, Interface
from repro.net.nat import NatTable
from repro.net.packet import Packet

if TYPE_CHECKING:
    from repro.net.tcp import TcpListener, TcpSocket

BROADCAST_MAC = "ff:ff:ff:ff:ff:ff"

#: Filled on first use by :meth:`NetworkStack._deliver_local`.
_TcpSegment = None


class ArpTable:
    """IP→MAC resolution for one L2 domain (one network of Fig. 1)."""

    def __init__(self, name: str):
        self.name = name
        self._entries: dict[str, str] = {}

    def register(self, ip: str, mac: str) -> None:
        self._entries[ip] = mac

    def unregister(self, ip: str) -> None:
        self._entries.pop(ip, None)

    def resolve(self, ip: str) -> Optional[str]:
        return self._entries.get(ip)


@dataclass
class Route:
    """Longest-prefix-match routing entry."""

    network: ipaddress.IPv4Network
    iface: Interface
    via: Optional[str] = None  # next-hop IP; None = on-link

    @property
    def prefixlen(self) -> int:
        return self.network.prefixlen


class Node:
    """Anything with interfaces and an IP stack (host, VM, gateway)."""

    def __init__(self, sim: Simulator, name: str):
        self.sim = sim
        self.name = name
        self.interfaces: list[Interface] = []
        #: set by :class:`repro.faults.FaultInjector` while the node is
        #: down; health checks (e.g. the autoscaler) read it.
        self.crashed = False
        self.stack = NetworkStack(sim, self)

    def add_interface(self, iface: Interface, arp: Optional[ArpTable] = None) -> Interface:
        iface.owner = self
        self.interfaces.append(iface)
        self.stack.register_interface(iface, arp)
        return iface

    def receive(self, packet: Packet, iface: Interface) -> None:
        if packet.dst_mac not in (iface.mac, BROADCAST_MAC):
            return  # not addressed to this NIC at L2
        packet.record_hop(self.name)
        self.stack.handle_receive(packet, iface)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name})"


class NetworkStack:
    """Routing, NAT, IP forwarding, and TCP demultiplexing for a node."""

    def __init__(self, sim: Simulator, node: Node):
        self.sim = sim
        self.node = node
        self.routes: list[Route] = []
        self.nat = NatTable()
        self.ip_forward = False
        #: Extra per-packet delay when forwarding (software IP path).
        self.forward_delay: float = 0.0
        #: dst_ip -> Route (or None) memo; cleared when routes change.
        self._route_cache: dict[str, Optional[Route]] = {}
        #: cached set of local interface IPs; rebuilt when NICs change.
        self._local_ips: set[str] = set()
        self._arp_by_iface: dict[str, ArpTable] = {}
        self._sockets: dict[tuple[str, int, str, int], "TcpSocket"] = {}
        self._listeners: dict[int, "TcpListener"] = {}
        self.dropped_packets = 0
        #: Optional observer invoked for every packet that reaches the
        #: stack (after the L2 filter).
        self.packet_taps: list[Callable[[Packet, Interface], None]] = []
        #: Optional generator hook run inside the FORWARD path, before a
        #: forwarded packet is re-routed.  This is the passive relay's
        #: netfilter-style attachment point: it can delay (kernel→user
        #: copies, service processing) and mutate the packet in place.
        #: Hooked packets take a queue and a process (the hook blocks
        #: on CPU); hook-less forwarding is analytic, like a link.
        self.forward_hook: Optional[Callable[[Packet], object]] = None
        #: the software-forward path's busy horizon, created by the
        #: first forwarded packet (the express probe requires it)
        self.forward_fifo: Optional[Fifo] = None
        self._forward_queue: Optional[Store] = None
        #: packets queued for or inside the hook pipeline; while any
        #: are, later arrivals queue too, so packets leave in order
        self._hooked = 0
        #: Express-path change notification (:mod:`repro.net.express`),
        #: fired when routes change so compiled flows demote.  None
        #: when express mode is off.
        self._x_on_change: Optional[Callable[[], None]] = None
        #: Obs bus (wired by ``repro.obs.instrument``) — the TCP hot
        #: path copies trace contexts onto packets only while
        #: ``bus.enabled`` (the bus has a sink).
        self.obs_bus = None

    # -- configuration -------------------------------------------------

    def register_interface(self, iface: Interface, arp: Optional[ArpTable]) -> None:
        if iface.ip is not None:
            self._local_ips.add(iface.ip)
        if arp is not None:
            self._arp_by_iface[iface.name] = arp
            if iface.ip is not None:
                arp.register(iface.ip, iface.mac)

    def add_route(self, cidr: str, iface: Interface, via: Optional[str] = None) -> None:
        self.routes.append(Route(ipaddress.ip_network(cidr), iface, via))
        self.routes.sort(key=lambda r: -r.prefixlen)
        self._route_cache.clear()
        if self._x_on_change is not None:
            self._x_on_change()

    def local_ips(self) -> set[str]:
        self._local_ips = {i.ip for i in self.node.interfaces if i.ip is not None}
        return self._local_ips

    #: Globally unique ephemeral ports: source ports identify flows at
    #: gateways and in steering rules, so cross-host collisions (two
    #: stacks picking 49152) would alias flows.  Real deployments rely on
    #: the (ip, port) pair; a shared counter is the simulation shortcut.
    _ephemeral_port_counter = 49152

    def allocate_port(self) -> int:
        port = NetworkStack._ephemeral_port_counter
        NetworkStack._ephemeral_port_counter += 1
        return port

    # -- TCP demux -----------------------------------------------------

    def bind_socket(self, socket: "TcpSocket") -> None:
        self._sockets[socket.demux_key()] = socket

    def unbind_socket(self, socket: "TcpSocket") -> None:
        self._sockets.pop(socket.demux_key(), None)

    def bind_listener(self, listener: "TcpListener") -> None:
        if listener.port in self._listeners:
            raise ValueError(f"port {listener.port} already bound on {self.node.name}")
        self._listeners[listener.port] = listener

    def unbind_listener(self, listener: "TcpListener") -> None:
        self._listeners.pop(listener.port, None)

    # -- data plane ------------------------------------------------------

    def handle_receive(self, packet: Packet, iface: Interface) -> None:
        if self.packet_taps:
            for tap in self.packet_taps:
                tap(packet, iface)
        self.nat.translate(packet, hook="prerouting")
        if packet.dst_ip in self._local_ips:
            self._deliver_local(packet)
            return
        if self.ip_forward:
            fifo = self.forward_fifo
            if fifo is None:
                fifo = self.forward_fifo = Fifo()
            if self.forward_hook is None and not self._hooked:
                _start, depart = fifo.occupy(self.sim.now, self.forward_delay)
                self.sim.call_at(depart, self.route_and_send, packet)
                return
            queue = self._forward_queue
            if queue is None:
                queue = self._forward_queue = Store(self.sim)
                self.sim.process(self._forward_pump(), name=f"fwd:{self.node.name}")
            self._hooked += 1
            queue.put(packet)
            return
        self.dropped_packets += 1

    def _forward_pump(self):
        """FIFO hooked forwarding path (single kernel thread, like the
        netfilter path the paper measures).  A packet that arrives
        while hook-less packets still occupy the forward path waits out
        their committed slots first."""
        fifo = self.forward_fifo
        while True:
            packet = yield self._forward_queue.get()
            if fifo.busy > self.sim.now:
                wake = self.sim.event()
                self.sim.call_at(fifo.busy, wake.succeed)
                yield wake
            if self.forward_delay:
                yield self.sim.timeout(self.forward_delay)
            if self.forward_hook is not None:
                yield from self.forward_hook(packet)
            self._hooked -= 1
            self.route_and_send(packet)

    def send_ip(self, packet: Packet) -> None:
        """Transmit a locally generated packet (OUTPUT NAT, then route)."""
        self.nat.translate(packet, hook="output")
        self.route_and_send(packet)

    def route_and_send(self, packet: Packet) -> None:
        route = self._lookup_route(packet.dst_ip)
        if route is None:
            self.dropped_packets += 1
            return
        next_hop_ip = route.via or packet.dst_ip
        arp = self._arp_by_iface.get(route.iface.name)
        dst_mac = arp.resolve(next_hop_ip) if arp is not None else None
        if dst_mac is None:
            self.dropped_packets += 1
            return
        packet.src_mac = route.iface.mac
        packet.dst_mac = dst_mac
        route.iface.send(packet)

    def _lookup_route(self, dst_ip: str) -> Optional[Route]:
        try:
            return self._route_cache[dst_ip]
        except KeyError:
            pass
        address = ipaddress.ip_address(dst_ip)
        found = None
        for route in self.routes:  # sorted by prefix length, longest first
            if address in route.network:
                found = route
                break
        self._route_cache[dst_ip] = found
        return found

    def _deliver_local(self, packet: Packet) -> None:
        global _TcpSegment
        if _TcpSegment is None:  # deferred import to avoid a cycle
            from repro.net.tcp import TcpSegment as _TcpSegment  # noqa: F811

        segment = packet.payload
        if not isinstance(segment, _TcpSegment):
            self.dropped_packets += 1
            return
        key = (packet.dst_ip, packet.dst_port, packet.src_ip, packet.src_port)
        socket = self._sockets.get(key)
        if socket is not None:
            socket.handle_segment(segment, packet)
            return
        listener = self._listeners.get(packet.dst_port)
        if listener is not None:
            listener.handle_segment(segment, packet)
            return
        self.dropped_packets += 1
