"""The bus is passive and bounded by default.

The same MB-ACTIVE-RELAY fio point runs three ways: with no bus, with
an instrumented bus that has no sink, and with one that collects.  The
simulation must be identical in all three; the sinkless bus must still
count spans and keep metrics, but retain no record."""

from __future__ import annotations

import pytest

from benchmarks.harness import MB_ACTIVE, build_testbed, fio
from repro.obs import ObsBus, instrument


def fio_run(bus_mode: str):
    bed = build_testbed(MB_ACTIVE)
    bus = None
    if bus_mode != "none":
        bus = ObsBus(bed.sim)
        if bus_mode == "collect":
            bus.collect()
        instrument(bus, storm=bed.storm)
    result = fio(bed, 16 * 1024, threads=2, ios_per_thread=15)
    return bed, bus, result


@pytest.fixture(scope="module")
def runs():
    return {mode: fio_run(mode) for mode in ("none", "sinkless", "collect")}


def test_bus_is_passive(runs):
    outcomes = {
        mode: (
            result.completed,
            result.elapsed,
            list(result.latency.samples),
            bed.sim._sequence,
        )
        for mode, (bed, _bus, result) in runs.items()
    }
    assert outcomes["none"][0] == 30
    assert outcomes["sinkless"] == outcomes["none"]
    assert outcomes["collect"] == outcomes["none"]


def test_sinkless_bus_retains_nothing(runs):
    _bed, bus, _result = runs["sinkless"]
    assert not bus.enabled
    assert bus.records == []
    assert bus.events_emitted == 0
    # spans are still counted and metrics still kept
    assert bus.spans_started > 0
    names = {r["name"] for r in bus.metrics.snapshot()}
    assert "link.tx" in names
    assert "disk.service_time" in names


def test_collecting_bus_keeps_the_trace(runs):
    _bed, bus, _result = runs["collect"]
    sinkless = runs["sinkless"][1]
    assert bus.events_emitted > 0
    assert len(bus.records) >= bus.events_emitted
    assert bus.metrics.snapshot() == sinkless.metrics.snapshot()
