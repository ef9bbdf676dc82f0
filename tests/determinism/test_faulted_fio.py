"""Loss-enabled determinism: a *faulted* fio run is run-twice identical.

PR 1 pinned the lossless kernel bit-for-bit; the fault layer must keep
that contract with the chaos switched on.  A fio workload through an
active-relay chain over a storage link that probabilistically drops
packets — forcing real retransmissions — produces the exact same
results, final volume bytes, and fault/recovery timeline on repeat
runs, and a different injector seed produces a different run.

Run-twice identity cannot see a change that moves every run the same
way, so seed 21 is also pinned across versions: its results and the
blake2s digests of its volume bytes and timeline were recorded with the
Store-and-process link model, which judged faults when a packet started
serializing — the analytic wire model must keep that judgment order.
"""

import hashlib

from repro.blockdev.disk import BLOCK_SIZE
from repro.workloads import FioConfig, FioJob

from tests.faults.conftest import FaultEnv, recovery_params

REGION = 512 * BLOCK_SIZE


def faulted_fio(fault_seed):
    """One lossy fio run; returns a bit-comparable snapshot."""
    env = FaultEnv(seed=fault_seed, params=recovery_params(tcp_rto=0.02))
    flow, _mbs = env.attach([env.spec(placement="compute3")])
    faults = env.injector.lossy_link(env.storage_link(), drop=0.03)

    config = FioConfig(
        io_size=2 * BLOCK_SIZE,
        num_threads=2,
        ios_per_thread=30,
        read_fraction=0.25,
        region_size=REGION,
        seed=5,
        carry_data=True,
    )
    job = FioJob(env.sim, flow.session, config)
    result = env.run(job.run())
    return {
        "completed": result.completed,
        "elapsed": result.elapsed,
        "mean_latency": result.latency.mean,
        "p99_latency": result.latency.p(99),
        "dropped": faults.dropped,
        "end": env.sim.now,
        "volume": env.volume.read_sync(0, REGION),
        "timeline": env.log.format(),
    }


def test_faulted_fio_run_twice_identical():
    first = faulted_fio(fault_seed=21)
    second = faulted_fio(fault_seed=21)
    assert first["dropped"] > 0, "loss never fired; the check proves nothing"
    assert first["completed"] == 60, "fio did not survive the loss"
    assert first == second


#: ``faulted_fio(21)`` as recorded before the analytic wire model
PINNED_SEED_21 = {
    "completed": 60,
    "elapsed": 0.24820263333333648,
    "mean_latency": 0.00818592715555566,
    "p99_latency": 0.03238868799999999,
    "dropped": 15,
    "end": 0.2489644546666698,
    "volume": "70c8d52c8ae99629f5467e26b0be6d5c00aaefccc37f04cd95317e5dc0c2e6ed",
    "timeline": "99ede3a8c8520f417c43636445283c797ea53b8a91b681f324e9c562b16f6e60",
}


def test_faulted_fio_matches_pinned_run():
    run = faulted_fio(fault_seed=21)
    run["volume"] = hashlib.blake2s(run["volume"]).hexdigest()
    run["timeline"] = hashlib.blake2s(run["timeline"].encode()).hexdigest()
    assert run == PINNED_SEED_21


def test_faulted_fio_seed_changes_run():
    assert faulted_fio(fault_seed=21) != faulted_fio(fault_seed=22)
