"""Flow-level express path: simulate established flows, not packets.

Once a TCP flow is established and its forwarding decisions are stable
(switch flow-table entries resolved, NAT pinned by conntrack, no
payload-inspecting hooks on the path), per-packet simulation of that
flow is pure mechanical replay: every segment traverses the same
elements, pays the same serialization/latency arithmetic, and hits the
same cached decisions.  The express path promotes such a flow to a
*compiled conduit* and replays the arithmetic directly — one scheduled
event per FIFO element, skipping the per-hop receive, routing, NAT and
flow-table work of packet mode — while producing **bit-identical
timing**.

Exactness argument (DESIGN.md §12 has the long form):

- Every FIFO element (a link direction, a stack's software-forward
  path) is a :class:`repro.net.link.Fifo` with one ``busy`` horizon.
  Packet mode commits a packet's slot when the packet reaches the
  element (``Link.transmit`` / ``NetworkStack.handle_receive``);
  express segments commit at the same point in virtual time via a
  scheduled hop.  Because both kinds commit in arrival order through
  the same ``busy``, FIFO interleaving of express and packet-mode
  traffic is exact.
- Both modes compute a slot with the same function,
  :meth:`Fifo.occupy` (``start = max(now, busy)``, ``depart = start +
  size / bandwidth + overhead``, then ``+ latency``), and both push
  the chained event times as *absolute* times
  (:meth:`Simulator.call_at`), so the floats agree by construction.
- Promotion is guarded by a read-only probe that walks the flow's
  headers hop-by-hop through the real tables; anything it cannot
  replay exactly (packet taps, forward hooks, flood, non-inert faults,
  un-conntracked NAT matches) refuses promotion.
- Demotion is mandatory and lossless: any flow-table or NAT install /
  removal on a probed table, a route change on a probed stack, or any
  fault-injector action demotes every flow back to packet mode; the
  next segments take the packet path and the shared ``busy`` horizons
  keep their timing seamless.

Side effects that packet mode applies per hop (interface counters,
``packets_switched``, rule hit counts, ``packet.trace``, per-hop obs
events) are applied in bulk at delivery time — same totals, same trace
contents, same causal span tree; only the intermediate timestamps of
*observability* events collapse to the delivery instant.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.sim.core import Simulator
from repro.net.packet import HEADER_BYTES, Packet
from repro.net.stack import BROADCAST_MAC
from repro.net.switch import Drop, ModDstMac, Normal, Output, Switch, ToController

#: clean data ACKs received before a socket attempts promotion
PROMOTE_AFTER = 4
#: after a failed probe, retry every this-many further ACKs
RETRY_EVERY = 16
#: probe hop budget (routing loop guard)
MAX_HOPS = 48

_MISS = object()


class CompiledPath:
    """An immutable compiled conduit for one socket's outgoing flow."""

    __slots__ = (
        "steps", "final", "dst_stack", "key", "hops", "tx", "rx",
        "switches", "mac_learns", "rules", "faults", "counters", "steers",
    )

    def __init__(
        self,
        steps: tuple,
        final: tuple,
        dst_stack: Any,
        key: tuple,
        plan: "_Plan",
    ) -> None:
        self.steps = steps
        self.final = final
        self.dst_stack = dst_stack
        self.key = key
        self.hops = tuple(plan.hops)
        self.tx = tuple(plan.tx)
        self.rx = tuple(plan.rx)
        self.switches = tuple(plan.switches)
        self.mac_learns = tuple(plan.mac_learns)
        self.rules = tuple(plan.rules)
        self.faults = tuple(plan.faults)
        self.counters = tuple(plan.counters)
        self.steers = tuple(plan.steers)


class _Plan:
    """Mutable accumulators filled while probing; frozen into the path."""

    __slots__ = (
        "hops", "tx", "rx", "switches", "mac_learns", "rules", "faults",
        "counters", "steers",
    )

    def __init__(self) -> None:
        self.hops: list[str] = []
        self.tx: list[Any] = []
        self.rx: list[Any] = []
        self.switches: list[Switch] = []
        self.mac_learns: list[tuple] = []
        self.rules: list[Any] = []
        self.faults: list[Any] = []
        self.counters: list[tuple] = []
        self.steers: list[tuple] = []


class ExpressManager:
    """Owns promotion, the compiled walks, and demotion for one sim.

    Install **before** building the cloud controller (it wires the
    SDN controller's demotion hook at construction):
    ``ExpressManager(sim)`` registers itself as ``sim.express``.
    """

    def __init__(
        self,
        sim: Simulator,
        promote_after: int = PROMOTE_AFTER,
        retry_every: int = RETRY_EVERY,
    ) -> None:
        self.sim = sim
        self.promote_after = promote_after
        self.retry_every = retry_every
        #: observability bus (wired by ``repro.obs.instrument``)
        self.obs: Any = None
        self._active: dict[Any, CompiledPath] = {}
        self.promotions = 0
        self.demotions = 0
        self.probes_failed = 0
        sim.express = self

    # -- promotion -----------------------------------------------------

    def on_ack(self, socket: Any) -> None:
        """Called by the TCP layer for every ACK that advances a
        not-yet-promoted socket; promotes after enough clean ACKs."""
        n = socket._x_acks + 1
        socket._x_acks = n
        if n < self.promote_after or socket.state != "established":
            return
        if (n - self.promote_after) % self.retry_every:
            return
        path = self._probe(socket)
        if path is None:
            self.probes_failed += 1
            return
        socket._xpath = path
        self._active[socket] = path
        self.promotions += 1
        obs = self.obs
        if obs is not None:
            obs.event(
                "flow.promote",
                target=socket.express_label
                or f"{socket.local_ip}:{socket.local_port}",
                hops=len(path.hops),
            )

    # -- demotion ------------------------------------------------------

    def demote(self, socket: Any, reason: str = "") -> None:
        if self._active.pop(socket, None) is None:
            return
        socket._xpath = None
        socket._x_acks = 0
        self.demotions += 1
        obs = self.obs
        if obs is not None:
            obs.event(
                "flow.demote",
                target=socket.express_label
                or f"{socket.local_ip}:{socket.local_port}",
                reason=reason,
            )

    def demote_all(self, reason: str = "") -> None:
        """Mandatory lossless fallback: flows revert to packet mode;
        the shared ``busy`` horizons keep subsequent timing exact."""
        for socket in list(self._active):
            self.demote(socket, reason)

    def _on_invalidate(self) -> None:
        """Bound to ``_x_on_change`` hooks of every table/stack a
        compiled path depends on."""
        if self._active:
            self.demote_all("state-change")

    @property
    def active_flows(self) -> int:
        return len(self._active)

    # -- the walk ------------------------------------------------------

    def send(self, socket: Any, packet: Packet) -> None:
        """Entry from ``TcpSocket._emit``: element 0 is committed inline
        (transmission out of the source stack is synchronous)."""
        self._hop(socket._xpath, packet, 0, self.sim.now)

    def _hop(self, path: CompiledPath, packet: Packet, i: int, t: float) -> None:
        """Commit element ``i``'s slot at time ``t`` through the same
        :meth:`Fifo.occupy` packet mode uses, then schedule the next
        element's commit (or the delivery) at its absolute time."""
        steps = path.steps
        _pre, fifo, bw, oh, lat = steps[i]
        if bw:
            out = fifo.occupy(t, packet.size / bw + oh)[1] + lat
        else:
            out = fifo.occupy(t, oh)[1]
        i += 1
        if i == len(steps):
            self.sim.call_at(out, self._deliver, path, packet)
            return
        for d in steps[i][0]:
            out = out + d
        self.sim.call_at(out, self._hop, path, packet, i, out)

    def _deliver(self, path: CompiledPath, packet: Packet) -> None:
        """Arrival at the destination stack: apply the bulk side-effect
        plan, then run the *real* demux and segment handling."""
        size = packet.size
        for iface in path.tx:
            iface.tx_packets += 1
            iface.tx_bytes += size
        for iface in path.rx:
            iface.rx_packets += 1
            iface.rx_bytes += size
        for switch in path.switches:
            switch.packets_switched += 1
        for table, mac, port in path.mac_learns:
            table[mac] = port
        for rule in path.rules:
            rule.hits += 1
        for faults in path.faults:
            faults.passed += 1
        for counter, by_size in path.counters:
            counter.inc(size if by_size else 1)
        packet.trace.extend(path.hops)
        ctx = packet.ctx
        if ctx is not None:
            for name in path.hops:
                ctx.hop(name, packet)
            for name, cookie in path.steers:
                ctx.event("switch.steer", target=name, cookie=cookie)
        (
            packet.src_mac,
            packet.dst_mac,
            packet.src_ip,
            packet.dst_ip,
            packet.src_port,
            packet.dst_port,
        ) = path.final
        stack = path.dst_stack
        socket = stack._sockets.get(path.key)
        if socket is not None:
            socket.handle_segment(packet.payload, packet)
        elif path.key[1] in stack._listeners:
            pass  # a listener ignores data/ack, as _deliver_local would
        else:
            stack.dropped_packets += 1

    # -- the probe -----------------------------------------------------

    def _probe(self, socket: Any) -> Optional[CompiledPath]:
        """Read-only dry walk of the socket's outgoing headers.

        Returns a compiled path, or None if anything on the path cannot
        be replayed exactly.  The only states it mutates are ones
        packet mode would converge to anyway (route memo, NAT negative
        cache) plus the ``_x_on_change`` demotion hooks it registers on
        every table whose content the compilation depends on.
        """
        if socket.remote_ip is None or socket.state != "established":
            return None
        pkt = Packet(
            src_mac="",
            dst_mac="",
            src_ip=socket.local_ip,
            dst_ip=socket.remote_ip,
            src_port=socket.local_port,
            dst_port=socket.remote_port or 0,
            protocol="tcp",
            size=HEADER_BYTES,
        )
        plan = _Plan()
        steps: list[tuple] = []
        pre: list[float] = []
        stack = socket.stack
        if not self._probe_nat(stack.nat, pkt, "output", plan):
            return None
        hops = 0
        while True:
            hops += 1
            if hops > MAX_HOPS:
                return None
            stack._x_on_change = self._on_invalidate
            route = stack._lookup_route(pkt.dst_ip)
            if route is None:
                return None
            next_hop = route.via or pkt.dst_ip
            arp = stack._arp_by_iface.get(route.iface.name)
            dst_mac = arp.resolve(next_hop) if arp is not None else None
            if dst_mac is None:
                return None
            pkt.src_mac = route.iface.mac
            pkt.dst_mac = dst_mac
            landed = self._probe_wire(route.iface, pkt, steps, pre, plan)
            if landed is None:
                return None
            node, in_iface = landed
            if pkt.dst_mac not in (in_iface.mac, BROADCAST_MAC):
                return None
            plan.hops.append(node.name)
            stack = node.stack
            if stack.packet_taps:
                return None
            if not self._probe_nat(stack.nat, pkt, "prerouting", plan):
                return None
            if pkt.dst_ip in stack._local_ips:
                key = (pkt.dst_ip, pkt.dst_port, pkt.src_ip, pkt.src_port)
                peer = stack._sockets.get(key)
                if peer is None or peer.state != "established":
                    return None
                final = (
                    pkt.src_mac, pkt.dst_mac, pkt.src_ip,
                    pkt.dst_ip, pkt.src_port, pkt.dst_port,
                )
                return CompiledPath(tuple(steps), final, stack, key, plan)
            if not stack.ip_forward or stack.forward_hook is not None:
                return None
            fifo = stack.forward_fifo
            if fifo is None or stack._hooked:
                return None
            steps.append((tuple(pre), fifo, 0.0, stack.forward_delay, 0.0))
            del pre[:]
            # loop: route_and_send again from the forwarding stack

    def _probe_wire(
        self,
        iface: Any,
        pkt: Packet,
        steps: list[tuple],
        pre: list[float],
        plan: _Plan,
    ) -> Optional[tuple]:
        """Follow one transmission through links and switches until it
        lands on a Node; returns (node, ingress_iface) or None."""
        while True:
            link = iface.link
            if link is None:
                return None
            faults = link.faults
            if faults is not None:
                if not faults.up or faults.drop_next_count > 0:
                    return None
                if faults.match is not None and not faults.match(pkt):
                    pass  # faults never touch this flow
                elif faults.drop_prob or faults.corrupt_prob or faults.delay_prob:
                    return None
                plan.faults.append(faults)
            fifo = link.fifos.get(iface)
            if fifo is None:
                return None
            plan.tx.append(iface)
            if link.obs is not None:
                metrics = link.obs.metrics
                plan.counters.append((metrics.counter("link.tx", link.obs_name), False))
                plan.counters.append(
                    (metrics.counter("link.tx_bytes", link.obs_name), True)
                )
            steps.append(
                (tuple(pre), fifo, link.bandwidth, link.per_packet_overhead, link.latency)
            )
            del pre[:]
            other = link.other_end(iface)
            plan.rx.append(other)
            owner = other.owner
            if owner is None:
                return None
            if not isinstance(owner, Switch):
                return owner, other
            in_port = owner._port_names.get(other)
            if in_port is None:
                return None
            plan.hops.append(owner.name)
            plan.switches.append(owner)
            plan.mac_learns.append((owner._mac_table, pkt.src_mac, in_port))
            if owner.forwarding_delay:
                pre.append(owner.forwarding_delay)
            table = owner.flow_table
            table._x_on_change = self._on_invalidate
            rule = self._lookup_rule(table, pkt, in_port)
            out_port: Optional[str] = None
            if rule is None:
                if owner.obs is not None:
                    plan.counters.append(
                        (owner.obs.metrics.counter("switch.l2", owner.name), False)
                    )
                out_port = self._l2_port(owner, pkt, in_port)
            else:
                plan.rules.append(rule)
                if owner.obs is not None:
                    plan.counters.append(
                        (owner.obs.metrics.counter("switch.flow_hit", owner.name), False)
                    )
                    plan.steers.append((owner.name, rule.cookie))
                decided = False
                for action in rule.actions:
                    if isinstance(action, ModDstMac):
                        pkt.dst_mac = action.new_mac
                    elif isinstance(action, Output):
                        out_port = action.port
                        decided = True
                        break
                    elif isinstance(action, (Drop, ToController)):
                        return None
                    elif isinstance(action, Normal):
                        out_port = self._l2_port(owner, pkt, in_port)
                        decided = True
                        break
                if not decided:  # rewrite-only rule: finish with L2
                    out_port = self._l2_port(owner, pkt, in_port)
            if out_port is None:
                return None
            iface = owner.ports.get(out_port)
            if iface is None:
                return None

    @staticmethod
    def _lookup_rule(table: Any, pkt: Packet, in_port: str) -> Any:
        """FlowTable.lookup minus the hit counting (emulated at
        delivery); populates the decision cache exactly as packet mode
        would on the next packet."""
        key = (
            in_port, pkt.src_mac, pkt.dst_mac, pkt.src_ip,
            pkt.dst_ip, pkt.src_port, pkt.dst_port, pkt.protocol,
        )
        rule = table._decision_cache.get(key, _MISS)
        if rule is _MISS:
            rule = None
            for candidate in table.rules:
                if candidate.matches(pkt, in_port):
                    rule = candidate
                    break
            table._note_decision(key, rule)
        return rule

    @staticmethod
    def _l2_port(switch: Switch, pkt: Packet, in_port: str) -> Optional[str]:
        known = switch._mac_table.get(pkt.dst_mac)
        if known is None or known == in_port:
            return None  # flood or behind-ingress drop: not replayable
        return known

    def _probe_nat(self, nat: Any, pkt: Packet, hook: str, plan: _Plan) -> bool:
        """Replicate ``NatTable.translate`` read-only.  A rule match
        without a conntrack entry would create state → refuse."""
        nat._x_on_change = self._on_invalidate  # demote even if empty now
        conntrack = nat.conntrack
        if not nat.rules and not conntrack._forward and not conntrack._reply:
            return True
        five_tuple = pkt.five_tuple
        hit = conntrack.lookup(five_tuple)
        if hit is not None:
            translation = hit[1]
            pkt.src_ip = translation.src_ip
            pkt.src_port = translation.src_port
            pkt.dst_ip = translation.dst_ip
            pkt.dst_port = translation.dst_port
            if nat.obs is not None:
                plan.counters.append(
                    (nat.obs.metrics.counter("nat.conntrack_hit", nat.scope), False)
                )
            return True
        flow_key = (hook, five_tuple)
        if flow_key in nat._no_match:
            return True
        for rule in nat.rules:
            if rule.hook not in ("any", hook):
                continue
            if rule.matches(pkt):
                return False
        nat._note_no_match(flow_key)
        return True
