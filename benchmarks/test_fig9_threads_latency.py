"""Figure 9 — processing overhead, normalized latency vs thread count (16 KB).

Paper: average I/O latency under the active relay drops to 0.70× of
MB-FWD at 32 threads (0.95/0.91/0.79/0.70 across 4/8/16/32).
"""

from harness import THREAD_COUNTS, format_table, normalize, processing_thread_sweep

PAPER_ACTIVE = {4: 0.95, 8: 0.91, 16: 0.79, 32: 0.70}


def _ratios():
    sweep = processing_thread_sweep()
    return {
        threads: normalize(
            sweep[threads]["fwd"].latency.mean, sweep[threads]["active"].latency.mean
        )
        for threads in THREAD_COUNTS
    }


def test_fig9_threads_latency(benchmark):
    ratios = benchmark.pedantic(_ratios, rounds=1, iterations=1)
    print()
    print(
        format_table(
            ["threads", "active/fwd latency", "paper"],
            [[t, ratios[t], PAPER_ACTIVE[t]] for t in THREAD_COUNTS],
            title="Figure 9: latency vs parallelism (normalized, lower is better)",
        )
    )
    values = [ratios[t] for t in THREAD_COUNTS]
    # latency advantage is monotone non-increasing and substantial at 32
    assert all(b <= a + 0.02 for a, b in zip(values, values[1:]))
    assert values[-1] < 0.80, "active relay must cut latency >20% at 32 threads"
    assert all(v <= 1.02 for v in values)
