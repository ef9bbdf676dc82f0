"""Control-plane behavior: make-before-break reconfiguration, detach
teardown/idempotence, and failed-attach cleanup (no leaked rules)."""

import pytest

from repro.blockdev.disk import BLOCK_SIZE
from repro.core import StorageService
from repro.core.saga import ABORTED, SagaError, SagaStep
from repro.net.switch import cookie_in_family

from tests.core.test_platform import io_roundtrip


def family_rules_on_switches(env, cookie):
    """Rules physically present in switch tables for a cookie family."""
    return [
        (name, rule)
        for name, rule in env.cloud.sdn.iter_rules()
        if cookie_in_family(rule.cookie, cookie)
    ]


def nat_rules_everywhere(env, cookie):
    found = []
    for _name, host in env.cloud.compute_hosts.items():
        found.extend(host.stack.nat.rules_for_cookie(cookie))
    for pair in env.storm.gateway_pairs.values():
        found.extend(pair.ingress.stack.nat.rules_for_cookie(cookie))
        found.extend(pair.egress.stack.nat.rules_for_cookie(cookie))
    return found


# -- reconfigure_chain -------------------------------------------------------


def test_reconfigure_swaps_rule_set(env):
    flow, (mb1,) = env.attach([env.spec(name="a", relay="fwd")])
    mb2 = env.storm.provision_middlebox(env.tenant, env.spec(name="b", relay="fwd"))
    before = {r.actions[0].new_mac for _s, r in family_rules_on_switches(env, flow.cookie)}
    assert mb1.mac in before and mb2.mac not in before

    env.storm.reconfigure_chain(flow, [mb2])

    after = family_rules_on_switches(env, flow.cookie)
    macs = {r.actions[0].new_mac for _s, r in after}
    assert mb2.mac in macs and mb1.mac not in macs
    # exactly one generation remains: 2 rules per middle-box
    assert len(after) == flow.chain.expected_rule_count() == 2
    assert all(r.cookie == flow.chain.active_cookie for _s, r in after)
    assert flow.middleboxes == [mb2]


def test_reconfigure_is_make_before_break(env):
    """At no point during the swap does the flow lack a full rule set."""
    flow, (mb1,) = env.attach([env.spec(name="a", relay="fwd")])
    mb2 = env.storm.provision_middlebox(env.tenant, env.spec(name="b", relay="fwd"))
    sdn = env.cloud.sdn
    counts = []

    original_install = sdn.install_rule
    original_remove = sdn.remove_by_cookie

    def count():
        counts.append(len(family_rules_on_switches(env, flow.cookie)))

    def install_spy(switch_name, rule):
        original_install(switch_name, rule)
        count()

    def remove_spy(cookie, switch_name=None, family=True):
        removed = original_remove(cookie, switch_name=switch_name, family=family)
        count()
        return removed

    sdn.install_rule = install_spy
    sdn.remove_by_cookie = remove_spy
    try:
        env.storm.reconfigure_chain(flow, [mb2])
    finally:
        sdn.install_rule = original_install
        sdn.remove_by_cookie = original_remove

    # the old generation (2 rules) must stay installed until the new
    # one is complete: the family never shrinks below one full set
    assert counts, "no rule operations observed"
    assert min(counts) >= 2


def test_reconfigure_traffic_continuity(env):
    flow, (mb1,) = env.attach([env.spec(name="a", relay="fwd")])
    payload, read_back = io_roundtrip(env, flow)
    assert read_back == payload
    mb2 = env.storm.provision_middlebox(env.tenant, env.spec(name="b", relay="fwd"))
    env.storm.reconfigure_chain(flow, [mb2])
    seen1, seen2 = [], []
    mb1.stack.packet_taps.append(lambda p, i: seen1.append(p))
    mb2.stack.packet_taps.append(lambda p, i: seen2.append(p))
    payload, read_back = io_roundtrip(env, flow, offset=BLOCK_SIZE)
    assert read_back == payload
    assert seen2, "traffic not flowing through the new middle-box"
    assert not seen1, "traffic still hitting the removed middle-box"


# -- detach ------------------------------------------------------------------


class DetachRecorder(StorageService):
    name = "recorder"

    def __init__(self):
        super().__init__()
        self.detached_flows = []

    def on_volume_detached(self, flow):
        self.detached_flows.append(flow)


def test_detach_removes_rules_from_every_switch(env):
    flow, _mbs = env.attach([env.spec(name="a", relay="fwd"), env.spec(name="b", relay="fwd")])
    assert family_rules_on_switches(env, flow.cookie)
    env.storm.detach(flow)
    assert family_rules_on_switches(env, flow.cookie) == []
    assert flow not in env.storm.flows
    assert not flow.session.alive
    assert flow.detached


def test_detach_is_idempotent(env):
    env.storm.register_service("recorder", lambda spec, storm: DetachRecorder())
    flow, (mb,) = env.attach([env.spec(kind="recorder", relay="fwd")])
    env.storm.detach(flow)
    env.storm.detach(flow)  # double detach: no-op, no error
    assert flow not in env.storm.flows
    # teardown notification delivered exactly once
    assert mb.service.detached_flows == [flow]


# -- failed-attach cleanup (the wildcard-rule leak) --------------------------


def test_failed_attach_leaks_no_rules(env):
    """A connect failure after chain.install must remove the wildcard
    steering rules, not just the NAT rules."""

    def failing_attach(vm, volume_name, iqn, target_ip):
        yield env.sim.timeout(0.001)
        raise RuntimeError("initiator exploded")

    env.vm.host.attach_volume = failing_attach
    mb = env.storm.provision_middlebox(env.tenant, env.spec(relay="fwd"))
    cookie = "storm:vm1:vol1"

    def do_attach():
        yield env.sim.process(
            env.storm.attach_with_services(env.tenant, env.vm, "vol1", [mb])
        )

    with pytest.raises(RuntimeError, match="initiator exploded"):
        env.run(do_attach())

    assert family_rules_on_switches(env, cookie) == []
    assert nat_rules_everywhere(env, cookie) == []
    assert env.storm.flows == []
    # the platform is still usable: the mutex was released
    del env.vm.host.__dict__["attach_volume"]
    flow, _ = env.attach([env.spec(name="retry", relay="fwd")])
    assert flow in env.storm.flows


def test_failed_object_attach_leaks_no_rules(env):
    class FailingClient:
        def connect(self, server_ip, port):
            yield env.sim.timeout(0.001)
            raise RuntimeError("no route to object store")

    env.vm.host.object_client = FailingClient()
    mb = env.storm.provision_middlebox(env.tenant, env.spec(relay="fwd"))
    server_ip = env.storage.storage_iface.ip
    cookie = f"storm-obj:vm1:{server_ip}:9000"

    def do_attach():
        yield env.sim.process(
            env.storm.attach_object_session(env.tenant, env.vm, server_ip, [mb], port=9000)
        )

    with pytest.raises(RuntimeError, match="no route"):
        env.run(do_attach())

    assert family_rules_on_switches(env, cookie) == []
    assert nat_rules_everywhere(env, cookie) == []
    assert env.storm.flows == []


def test_synchronous_saga_rejects_a_yielding_step(env):
    """Sync callers share the process step loop; a step that would make
    it wait aborts the saga, compensating the started step."""
    undone = []

    def wait():
        yield env.sim.timeout(1.0)

    saga = env.storm._begin_saga(
        "probe", "probe:1",
        [SagaStep("wait", do=wait, undo=lambda: undone.append("wait"), locked=False)],
    )
    with pytest.raises(SagaError, match="run it as a process"):
        env.storm._run_saga(saga)
    assert saga.status == ABORTED
    assert undone == ["wait"]
