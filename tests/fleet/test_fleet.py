"""Fleet generator: determinism, O(active) state, HA latency charging."""

import pytest

from repro.fleet import FleetConfig, FleetRun
from repro.fleet.generator import FleetRunError, run_fleet
from repro.obs import percentile


def _config(**overrides):
    base = dict(
        seed=7,
        shards=3,
        tenants=30,
        sessions=1000,
        arrival_rate=300.0,
        mean_hold=1.0,
        min_hold=0.1,
        ios_per_session=2,
        churn_storms=1,
        storm_size=40,
        ha=True,
    )
    base.update(overrides)
    return FleetConfig(**base)


def test_run_twice_is_byte_identical_at_1k_sessions():
    first = FleetRun(_config())
    first_report = first.run()
    second = FleetRun(_config())
    second_report = second.run()
    assert first.trace_jsonl() == second.trace_jsonl()
    assert first_report == second_report


def test_heavy_tail_and_diurnal_run_twice_identical():
    config = dict(
        arrival="pareto",
        pareto_alpha=1.4,
        diurnal_amplitude=0.6,
        diurnal_period=2.0,
        sessions=400,
    )
    assert run_fleet(_config(**config)) == run_fleet(_config(**config))


def test_all_sessions_complete_and_trace_covers_them():
    run = FleetRun(_config(sessions=300, churn_storms=0))
    report = run.run()
    assert report["sessions"] == 300 == len(run.trace)
    assert report["peak_concurrent"] >= 1
    assert report["io_ops"] == sum(p.ios for p in run.plan)
    # every planned session appears exactly once in the trace
    assert sorted(r["i"] for r in run.trace) == [p.index for p in run.plan]


def test_attach_percentiles_are_nearest_rank_over_the_trace():
    run = FleetRun(_config(sessions=300, churn_storms=0))
    report = run.run()
    latencies = [r["lat"] for r in run.trace]
    assert report["attach_p50"] == round(percentile(latencies, 50), 9)
    assert report["attach_p99"] == round(percentile(latencies, 99), 9)
    # the streaming histogram saw the same sessions, without keeping them
    hist = run.metrics.histogram("fleet.attach.latency")
    assert hist.count == len(latencies)
    assert hist.max == max(latencies)


def test_detached_fleet_leaves_no_per_session_state():
    """The O(active) guarantee at its fixed point: once every session
    has detached and every tenant gone idle, the churn-scaled
    registries — flows, gateway pairs, NAT/conntrack entries, switch
    rules, SDN journal, per-tenant metric scopes — are all empty."""
    run = FleetRun(_config(sessions=400, mean_hold=0.3))
    run.run()
    for domain in run.domains:
        storm = domain.storm
        assert storm.flows == []
        assert storm.gateway_pairs == {}
        assert storm._tenant_flows == {}
        assert storm._mb_refs == {}
        assert storm._tenant_pending == {}
        for host in domain.cloud.compute_hosts.values():
            assert host.stack.nat.cookies() == set()
            assert len(host.stack.nat.conntrack) == 0
        for name in list(run.metrics._metrics):
            # only unscoped fleet-wide metrics survive; every tenant
            # scope was evicted when its last session detached
            assert name[2] == ""


def test_ha_shipping_rtt_lands_in_attach_latency():
    ha = FleetRun(_config(sessions=200, churn_storms=0, ha=True))
    ha.run()
    plain = FleetRun(_config(sessions=200, churn_storms=0, ha=False))
    plain.run()
    ha_hist = ha.metrics.histogram("fleet.attach.latency")
    plain_hist = plain.metrics.histogram("fleet.attach.latency")
    assert ha_hist.count == plain_hist.count == 200
    # quorum shipping adds a strictly positive round trip to every attach
    assert ha_hist.min > plain_hist.min
    assert ha_hist.mean > plain_hist.mean


def test_incomplete_run_is_an_error(monkeypatch):
    run = FleetRun(_config(sessions=50, churn_storms=0))
    # a domain that silently drops its plans leaves the kernel drained
    # with sessions missing — run() must refuse to report
    monkeypatch.setattr(run.domains[0], "start", lambda plans: None)
    with pytest.raises(FleetRunError):
        run.run()


def test_config_validation():
    with pytest.raises(ValueError):
        FleetConfig(shards=0).validate()
    with pytest.raises(ValueError):
        FleetConfig(arrival="burst").validate()
    with pytest.raises(ValueError):
        FleetConfig(arrival="pareto", pareto_alpha=1.0).validate()
    with pytest.raises(ValueError):
        FleetConfig(diurnal_amplitude=1.5).validate()
    with pytest.raises(ValueError):
        # 300 tenants on one shard exceeds the /16-per-domain cap
        FleetConfig(tenants=300, shards=1).validate()
    FleetConfig(tenants=300, shards=2).validate()
