"""Figure 6 — processing overhead, normalized IOPS vs thread count (16 KB).

Paper: with 4→32 Fio threads sharing the storage connection, the
active relay's advantage over MB-FWD grows from 1.06× to 1.39×: the
end-to-end window throttles MB-FWD on the long path while each split
leg of the active relay keeps a short ACK loop.

As in the testbed (whose target absorbed this working set in its page
cache), the storage node runs cache-warm — the substitution is
recorded in DESIGN.md/EXPERIMENTS.md.
"""

from harness import THREAD_COUNTS, format_table, normalize, processing_thread_sweep

PAPER_ACTIVE = {4: 1.06, 8: 1.10, 16: 1.27, 32: 1.39}


def _ratios():
    sweep = processing_thread_sweep()
    return {
        threads: {
            "active": normalize(sweep[threads]["fwd"].iops, sweep[threads]["active"].iops),
            "passive": normalize(sweep[threads]["fwd"].iops, sweep[threads]["passive"].iops),
            "active_vs_legacy": normalize(
                sweep[threads]["legacy"].iops, sweep[threads]["active"].iops
            ),
        }
        for threads in THREAD_COUNTS
    }


def test_fig6_threads_iops(benchmark):
    ratios = benchmark.pedantic(_ratios, rounds=1, iterations=1)
    print()
    print(
        format_table(
            ["threads", "active/fwd", "paper", "passive/fwd", "active/legacy"],
            [
                [
                    threads,
                    ratios[threads]["active"],
                    PAPER_ACTIVE[threads],
                    ratios[threads]["passive"],
                    ratios[threads]["active_vs_legacy"],
                ]
                for threads in THREAD_COUNTS
            ],
            title="Figure 6: processing overhead vs parallelism (normalized IOPS)",
        )
    )
    values = [ratios[t]["active"] for t in THREAD_COUNTS]
    # advantage is monotone non-decreasing in thread count and large at 32
    assert all(b >= a - 0.02 for a, b in zip(values, values[1:]))
    assert values[-1] > 1.25, "active relay must beat MB-FWD by >25% at 32 threads"
    # passive relay degrades as parallelism rises
    passives = [ratios[t]["passive"] for t in THREAD_COUNTS]
    assert passives[-1] < passives[0]
    assert all(p < 1.0 for p in passives)
