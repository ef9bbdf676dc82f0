"""Tests for links, switches, flow tables, and steering actions."""

import pytest

from repro.faults import FaultInjector
from repro.net import (
    ArpTable,
    FlowRule,
    Interface,
    Link,
    ModDstMac,
    Node,
    Output,
    Packet,
    Switch,
)
from repro.net.switch import Drop, Normal
from repro.sim import Simulator

from tests.net.helpers import two_hosts_one_switch


def drain(sim, horizon=1.0):
    sim.run(until=horizon)


def raw_packet(src_mac, dst_mac, size=1000, **kw):
    defaults = dict(src_ip="10.0.0.1", dst_ip="10.0.0.2", src_port=1, dst_port=2)
    defaults.update(kw)
    return Packet(src_mac=src_mac, dst_mac=dst_mac, size=size, **defaults)


class SinkNode:
    """Minimal receiver that records delivered packets."""

    def __init__(self, name):
        self.name = name
        self.received = []

    def receive(self, packet, iface):
        self.received.append((packet, iface))


def wire(sim, a_iface, b_iface, **kw):
    return Link(sim, a_iface, b_iface, **kw)


def test_link_delivers_with_serialization_and_latency():
    sim = Simulator()
    a, b = Interface("a", "m:a"), Interface("b", "m:b")
    sink = SinkNode("sink")
    b.owner = sink
    wire(sim, a, b, bandwidth=1_000_000, latency=0.01)  # 1 MB/s
    a.send(raw_packet("m:a", "m:b", size=1000))
    sim.run()
    assert len(sink.received) == 1
    # 1000B at 1MB/s = 1ms serialize + 10ms latency
    assert abs(sim.now - 0.011) < 1e-9


def test_link_serializes_back_to_back_packets():
    sim = Simulator()
    a, b = Interface("a", "m:a"), Interface("b", "m:b")
    times = []

    class TimedSink:
        name = "sink"

        def receive(self, packet, iface):
            times.append(sim.now)

    b.owner = TimedSink()
    wire(sim, a, b, bandwidth=1_000_000, latency=0.0)
    for _ in range(3):
        a.send(raw_packet("m:a", "m:b", size=1000))
    sim.run()
    assert times == [0.001, 0.002, 0.003]


def test_interface_counters():
    sim = Simulator()
    a, b = Interface("a", "m:a"), Interface("b", "m:b")
    b.owner = SinkNode("sink")
    wire(sim, a, b)
    a.send(raw_packet("m:a", "m:b", size=500))
    sim.run()
    assert (a.tx_packets, a.tx_bytes) == (1, 500)
    assert (b.rx_packets, b.rx_bytes) == (1, 500)


def test_switch_learns_and_forwards():
    sim, _arp, switch, a, b = two_hosts_one_switch()
    seen = []
    b.stack.packet_taps.append(lambda p, i: seen.append(p))
    # a floods first (unknown mac), b replies unicast
    pkt = raw_packet("aa:00:00:00:00:01", "aa:00:00:00:00:02")
    a.interfaces[0].send(pkt)
    sim.run()
    assert len(seen) == 1
    assert switch._mac_table["aa:00:00:00:00:01"] == "host-a"


def test_switch_flood_does_not_reflect_to_ingress():
    sim, _arp, switch, a, b = two_hosts_one_switch()
    a_seen, b_seen = [], []
    a.stack.packet_taps.append(lambda p, i: a_seen.append(p))
    b.stack.packet_taps.append(lambda p, i: b_seen.append(p))
    a.interfaces[0].send(raw_packet("aa:00:00:00:00:01", "ff:ff:ff:ff:ff:ff"))
    sim.run()
    assert len(b_seen) == 1 and len(a_seen) == 0


def test_flow_rule_output_overrides_l2():
    sim = Simulator()
    switch = Switch(sim, "sw")
    sinks = {}
    for name, mac in [("p1", "m:1"), ("p2", "m:2"), ("p3", "m:3")]:
        port = switch.add_port(name)
        sink_iface = Interface(f"{name}.host", mac)
        sink = SinkNode(f"sink-{name}")
        sink_iface.owner = sink
        Link(sim, port, sink_iface)
        sinks[name] = sink
    rule = FlowRule(priority=10, dst_port=3260, actions=[Output("p3")])
    switch.flow_table.install(rule)
    # inject a packet into the switch via port p1
    pkt = raw_packet("m:1", "m:2", dst_port=3260)
    switch.receive(pkt, switch.ports["p1"])
    sim.run()
    assert len(sinks["p3"].received) == 1
    assert len(sinks["p2"].received) == 0
    assert rule.hits == 1


def test_zero_delay_switch_forwards_in_arrival_order():
    sim = Simulator()
    switch = Switch(sim, "sw", forwarding_delay=0.0)
    sinks = {}
    for name, mac in [("p1", "m:1"), ("p2", "m:2"), ("p3", "m:3")]:
        port = switch.add_port(name)
        sink_iface = Interface(f"{name}.host", mac)
        sinks[name] = SinkNode(f"sink-{name}")
        sink_iface.owner = sinks[name]
        Link(sim, port, sink_iface)
    rule = FlowRule(priority=10, dst_port=3260, actions=[Output("p3")])
    # queued before the packets arrive: a zero-delay hop still runs
    # after everything already queued for now, so every packet sees it
    installed = sim.event()
    installed.callbacks.append(lambda _event: switch.flow_table.install(rule))
    installed.succeed()
    for src_port, ingress in enumerate(["p1", "p2", "p1", "p2"]):
        pkt = raw_packet("m:1", "m:2", src_port=src_port, dst_port=3260)
        switch.receive(pkt, switch.ports[ingress])
    assert rule.hits == 0  # the hop is an event, not a synchronous call
    sim.run()
    assert [p.src_port for p, _ in sinks["p3"].received] == [0, 1, 2, 3]
    assert sinks["p2"].received == []
    assert rule.hits == 4


def test_flow_rule_priority_order():
    sim = Simulator()
    switch = Switch(sim, "sw")
    low = FlowRule(priority=1, actions=[Drop()])
    high = FlowRule(priority=5, dst_port=3260, actions=[Drop()])
    switch.flow_table.install(low)
    switch.flow_table.install(high)
    assert switch.flow_table.rules[0] is high


def test_mod_dst_mac_steering():
    """The Fig. 3 primitive: rewrite dst MAC, then L2-forward to the MB."""
    sim = Simulator()
    switch = Switch(sim, "sw")
    mb_port = switch.add_port("mb")
    gw_port = switch.add_port("gw")
    in_port = switch.add_port("in")
    mb_iface = Interface("mb.eth0", "m:mb")
    gw_iface = Interface("gw.eth0", "m:gw")
    mb_sink, gw_sink = SinkNode("mb"), SinkNode("gw")
    mb_iface.owner, gw_iface.owner = mb_sink, gw_sink
    Link(sim, mb_port, mb_iface)
    Link(sim, gw_port, gw_iface)
    # prime MAC learning
    switch._mac_table.update({"m:mb": "mb", "m:gw": "gw"})
    switch.flow_table.install(
        FlowRule(priority=10, dst_mac="m:gw", dst_port=3260, actions=[ModDstMac("m:mb")])
    )
    pkt = raw_packet("m:src", "m:gw", dst_port=3260)
    switch.receive(pkt, in_port)
    sim.run()
    assert len(mb_sink.received) == 1 and len(gw_sink.received) == 0
    assert mb_sink.received[0][0].dst_mac == "m:mb"


def test_normal_action_falls_back_to_l2():
    sim, _arp, switch, a, b = two_hosts_one_switch()
    b_seen = []
    b.stack.packet_taps.append(lambda p, i: b_seen.append(p))
    switch.flow_table.install(FlowRule(priority=10, actions=[Normal()]))
    a.interfaces[0].send(raw_packet("aa:00:00:00:00:01", "aa:00:00:00:00:02"))
    sim.run()
    assert len(b_seen) == 1


def test_remove_by_cookie():
    sim = Simulator()
    switch = Switch(sim, "sw")
    switch.flow_table.install(FlowRule(priority=1, cookie="chain-1", actions=[Drop()]))
    switch.flow_table.install(FlowRule(priority=2, cookie="chain-1", actions=[Drop()]))
    switch.flow_table.install(FlowRule(priority=3, cookie="chain-2", actions=[Drop()]))
    assert switch.flow_table.remove_by_cookie("chain-1") == 2
    assert len(switch.flow_table) == 1


def test_packet_trace_records_hops():
    sim, _arp, switch, a, b = two_hosts_one_switch()
    received = []
    b.stack.packet_taps.append(lambda p, i: received.append(p))
    pkt = raw_packet("aa:00:00:00:00:01", "aa:00:00:00:00:02")
    a.interfaces[0].send(pkt)
    sim.run()
    assert received[0].trace == ["sw", "host-b"]


# -- wire model: one busy horizon per direction, judged at serialization start


class PortSink:
    """Records ``(dst_port, arrival time)`` of every delivered packet."""

    def __init__(self, sim, name):
        self.sim = sim
        self.name = name
        self.arrivals = []

    def receive(self, packet, iface):
        self.arrivals.append((packet.dst_port, self.sim.now))


def slow_link(sim, latency=0.01):
    """a -> b at 1 MB/s (1000 B = 1 ms on the wire); returns link, sink at b."""
    a, b = Interface("a", "m:a"), Interface("b", "m:b")
    sink = PortSink(sim, "sink")
    b.owner = sink
    return Link(sim, a, b, bandwidth=1_000_000, latency=latency), sink


def send_port(iface, port, size=1000):
    iface.send(raw_packet("m:a", "m:b", size=size, dst_port=port))


def test_link_construction_schedules_nothing():
    sim = Simulator()
    Link(sim, Interface("a", "m:a"), Interface("b", "m:b"))
    assert sim.events == 0


def test_dropped_packet_still_occupies_the_wire():
    sim = Simulator()
    link, sink = slow_link(sim)
    FaultInjector(sim, seed=1).drop_next(link, 1)
    send_port(link.a, 0)
    send_port(link.a, 1)
    sim.run()
    assert [port for port, _t in sink.arrivals] == [1]
    # packet 1 departs after the dropped packet's 1 ms slot: 2 ms + 10 ms
    assert sink.arrivals[0][1] == pytest.approx(0.012)
    assert link.faults.dropped == 1


@pytest.mark.parametrize(
    "install",
    [
        lambda inj, link: inj.lossy_link(link, drop=1.0),
        lambda inj, link: inj.drop_next(link, 2),
        lambda inj, link: inj.link_down(link),
    ],
    ids=["lossy_link", "drop_next", "link_down"],
)
def test_waiting_packets_are_judged_at_serialization_start(install):
    sim = Simulator()
    link, sink = slow_link(sim)
    injector = FaultInjector(sim, seed=1)
    send_port(link.a, 0, size=10_000)  # on the wire 0..10 ms
    send_port(link.a, 1)  # waits; starts at 10 ms
    send_port(link.a, 2)  # waits; starts at 11 ms
    injector.at(0.005, install, injector, link)
    sim.run()
    # packet 0 was judged when it started serializing, before the fault
    # existed; the waiting packets meet the fault when they start
    assert [port for port, _t in sink.arrivals] == [0]
    assert sink.arrivals[0][1] == pytest.approx(0.020)
    assert link.faults.dropped == 2


def test_packet_serializing_when_link_goes_down_is_delivered():
    sim = Simulator()
    link, sink = slow_link(sim)
    injector = FaultInjector(sim, seed=1)
    send_port(link.a, 0, size=10_000)
    injector.at(0.005, injector.link_down, link)
    injector.at(0.006, lambda: send_port(link.a, 1))
    sim.run()
    assert [port for port, _t in sink.arrivals] == [0]
    assert link.faults.dropped == 1


def test_lossy_link_drop_set_both_directions():
    """Both directions share one fault RNG stream, so the drop set pins
    the order of fault judgments across directions.  Recorded with the
    Store-and-process link model this one replaced."""
    sim = Simulator()
    a, b = Interface("a", "m:a"), Interface("b", "m:b")
    at_a, at_b = PortSink(sim, "A"), PortSink(sim, "B")
    a.owner, b.owner = at_a, at_b
    link = Link(sim, a, b, bandwidth=1_000_000, latency=0.002)
    faults = FaultInjector(sim, seed=7).lossy_link(link, drop=0.3)

    def send(iface, src, dst, port, size):
        iface.send(raw_packet(src, dst, size=size, dst_port=port))

    for i in range(12):  # a burst that queues behind itself
        send(a, "m:a", "m:b", i, 1000 + 100 * i)
    for i in range(12):  # the reverse direction, spaced, also queueing
        sim.timeout(0.0005 * i).callbacks.append(
            lambda _e, i=i: send(b, "m:b", "m:a", 100 + i, 700)
        )
    sim.run()
    delivered = {port for port, _t in at_a.arrivals + at_b.arrivals}
    dropped = sorted((set(range(12)) | set(range(100, 112))) - delivered)
    assert dropped == [1, 3, 4, 5, 7, 11, 103, 106, 107, 108, 110]
    assert faults.dropped == len(dropped)


def forwarding_pair(sim, forward_delay):
    """host-a -> router -> host-b, each leg its own link; returns the
    nodes and the list of ports host-b receives, in order."""
    net1, net2 = ArpTable("net1"), ArpTable("net2")
    a, router, b = Node(sim, "host-a"), Node(sim, "router"), Node(sim, "host-b")
    a_if = a.add_interface(Interface("a.eth0", "m:a", "10.0.0.1"), net1)
    r0 = router.add_interface(Interface("r.eth0", "m:r0", "10.0.0.254"), net1)
    r1 = router.add_interface(Interface("r.eth1", "m:r1", "10.0.1.254"), net2)
    b_if = b.add_interface(Interface("b.eth0", "m:b", "10.0.1.2"), net2)
    a.stack.add_route("0.0.0.0/0", a_if, via="10.0.0.254")
    router.stack.add_route("10.0.0.0/24", r0)
    router.stack.add_route("10.0.1.0/24", r1)
    b.stack.add_route("0.0.0.0/0", b_if, via="10.0.1.254")
    Link(sim, a_if, r0)
    Link(sim, r1, b_if)
    router.stack.ip_forward = True
    router.stack.forward_delay = forward_delay
    seen = []
    b.stack.packet_taps.append(lambda p, _iface: seen.append(p.dst_port))
    return a, router, seen


def test_forwarding_keeps_arrival_order_across_hook_changes():
    sim = Simulator()
    a, router, seen = forwarding_pair(sim, forward_delay=0.001)

    def send(port):
        a.stack.send_ip(
            Packet(src_mac="", dst_mac="", src_ip="10.0.0.1", dst_ip="10.0.1.2",
                   src_port=1, dst_port=port, size=100)
        )

    def hook(_packet):
        yield sim.timeout(0.0001)

    def install_hook():
        router.stack.forward_hook = hook
        send(3)  # queued behind 0..2, still on the hook-less path
        send(4)

    def remove_hook():
        router.stack.forward_hook = None
        send(5)  # hook-less again, but 3 and 4 are still queued

    for port in range(3):
        send(port)
    sim.timeout(0.0015).callbacks.append(lambda _e: install_hook())
    sim.timeout(0.0016).callbacks.append(lambda _e: remove_hook())
    sim.run()
    assert seen == [0, 1, 2, 3, 4, 5]
