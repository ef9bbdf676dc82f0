"""Detach and aborted attaches leave no per-session residue.

The detach saga's ``evict-state`` step forgets the attach's conntrack
pins and attribution record and — when the tenant's last flow is gone
— releases the gateway pair and evicts the tenant's metric scope.  An
attach that rolls back releases the pair it created the same way, and
the intent log compacts resolved sagas, so platform state stays
O(active) under churn.
"""

import pytest

from repro.cloud import CloudParams
from repro.core import ControllerCrashed
from repro.core.saga import ABORTED, COMPACT_THRESHOLD
from repro.faults import FaultInjector
from repro.obs import ObsBus, instrument

from tests.core.conftest import StormEnv


def _attach(env):
    flow, _mbs = env.attach([env.spec(kind="noop", relay="fwd", placement="compute3")])
    return flow


def _conntrack_total(env):
    return sum(
        len(host.stack.nat.conntrack)
        for host in env.cloud.compute_hosts.values()
    )


def test_detach_evicts_conntrack_and_gateways():
    env = StormEnv()
    flow = _attach(env)
    assert env.storm.gateway_pairs != {}
    assert _conntrack_total(env) > 0

    env.storm.detach(flow)
    assert env.storm.flows == []
    assert env.storm.gateway_pairs == {}
    assert _conntrack_total(env) == 0
    assert env.storm._tenant_flows == {}
    assert env.storm.attributor.attribute(
        flow.host.storage_iface.ip, flow.src_port
    ) is None


def test_reattach_after_eviction_works():
    env = StormEnv()
    first = _attach(env)
    env.storm.detach(first)
    second = _attach(env)
    assert second.session is not None and second.session.alive
    assert env.storm.tenant_flow_count(env.tenant.name) == 1
    env.storm.detach(second)
    assert env.storm.gateway_pairs == {}


def test_gateways_survive_while_other_flows_remain():
    env = StormEnv()
    first = _attach(env)
    vm2 = env.cloud.boot_vm(env.tenant, "vm2", env.cloud.compute_hosts["compute2"])
    env.cloud.create_volume(env.tenant, "vol2", env.volume.size)
    mb = env.storm.provision_middlebox(env.tenant, env.spec(placement="compute3"))

    def attach_second():
        return (
            yield env.sim.process(
                env.storm.attach_with_services(
                    env.tenant, vm2, "vol2", [mb],
                    ingress_host=env.cloud.compute_hosts["compute2"],
                    egress_host=env.cloud.compute_hosts["compute4"],
                )
            )
        )

    second = env.run(attach_second())
    env.storm.detach(first)
    # one flow still lives: the pair must not be torn down under it
    assert env.storm.gateway_pairs != {}
    env.storm.detach(second)
    assert env.storm.gateway_pairs == {}


def test_detach_evicts_tenant_metric_scope():
    env = StormEnv()
    bus = ObsBus(env.sim)
    instrument(bus, storm=env.storm)
    flow = _attach(env)
    bus.metrics.counter("svc.bytes", scope=env.tenant.name).inc(7)
    bus.metrics.counter("plant.packets").inc()
    env.storm.detach(flow)
    assert bus.metrics.scoped(env.tenant.name) == []
    assert bus.metrics.counter("plant.packets").value == 1


def test_failed_attach_releases_gateways_and_scope():
    env = StormEnv()
    bus = ObsBus(env.sim)
    instrument(bus, storm=env.storm)
    bus.metrics.counter("svc.bytes", scope=env.tenant.name).inc(7)

    def failing_attach(vm, volume_name, iqn, target_ip):
        yield env.sim.timeout(0.001)
        raise RuntimeError("initiator exploded")

    env.vm.host.attach_volume = failing_attach
    with pytest.raises(RuntimeError, match="initiator exploded"):
        _attach(env)
    assert env.storm.flows == []
    assert env.storm.gateway_pairs == {}
    assert env.storm._tenant_pending == {}
    assert bus.metrics.scoped(env.tenant.name) == []
    # the next attach builds a fresh pair
    del env.vm.host.__dict__["attach_volume"]
    flow = _attach(env)
    assert env.storm.gateway_pairs != {}
    env.storm.detach(flow)
    assert env.storm.gateway_pairs == {}


def test_crashed_attach_rolled_back_by_recovery_releases_gateways():
    env = StormEnv()
    injector = FaultInjector(env.sim, seed=1)

    def crash_before_nat(saga, step, when):
        if step.name == "install-nat" and when == "before":
            env.storm.saga_probe = None
            injector.crash(env.storm.controller, restart_after=0.5)

    env.storm.saga_probe = crash_before_nat
    with pytest.raises(ControllerCrashed):
        _attach(env)
    # the saga stays in flight until the restart runs recovery
    assert env.storm.gateway_pairs != {}
    env.sim.run()
    (saga,) = env.storm.intent_log.by_op("attach_with_services")
    assert saga.status == ABORTED
    assert env.storm.flows == []
    assert env.storm.tenant_flow_count(env.tenant.name) == 0
    assert env.storm.gateway_pairs == {}


def test_single_node_intent_log_stays_bounded():
    # every cycle re-creates the gateway pair on fresh addresses
    env = StormEnv(params=CloudParams(
        storage_subnet="10.0.0.0/8", tenant_subnet_template="172.{tenant}.0.0/16"
    ))
    mb = env.storm.provision_middlebox(
        env.tenant, env.spec(kind="noop", relay="fwd", placement="compute3")
    )

    def attach():
        return (
            yield env.sim.process(
                env.storm.attach_with_services(env.tenant, env.vm, "vol1", [mb])
            )
        )

    for _ in range(200):
        env.storm.detach(env.run(attach()))
    log = env.storm.intent_log
    resolved = 1 + 2 * 200  # the provision, then an attach and a detach per cycle
    assert all(not saga.incomplete for saga in log.sagas)
    assert len(log) <= COMPACT_THRESHOLD
    assert log.compacted + len(log) == resolved
    assert log.compacted == resolved - resolved % COMPACT_THRESHOLD
