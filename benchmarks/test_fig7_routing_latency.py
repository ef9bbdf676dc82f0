"""Figure 7 — routing overhead, normalized latency vs I/O size (1 thread).

Paper: MB-FWD latency is 1.08× LEGACY at 4 KB, growing to 1.30× at
256 KB (a larger request contains more packets, and its latency
aggregates the routing delays of all of them).
"""

from harness import IO_SIZES, format_table, normalize, routing_sweep

PAPER_RATIOS = {4096: 1.08, 16384: 1.22, 65536: 1.25, 262144: 1.30}


def _ratios():
    sweep = routing_sweep()
    return {
        size: normalize(
            sweep[size]["legacy"].latency.mean, sweep[size]["fwd"].latency.mean
        )
        for size in IO_SIZES
    }


def test_fig7_routing_latency(benchmark):
    ratios = benchmark.pedantic(_ratios, rounds=1, iterations=1)
    print()
    print(
        format_table(
            ["io_size", "paper MB-FWD/LEGACY", "measured"],
            [
                [f"{size // 1024} KB", PAPER_RATIOS[size], ratios[size]]
                for size in IO_SIZES
            ],
            title="Figure 7: routing overhead (normalized latency, lower is better)",
        )
    )
    for size in IO_SIZES:
        assert 1.0 < ratios[size] <= 1.6, f"{size}: latency must increase, moderately"
    # the penalty grows with I/O size
    assert ratios[262144] > ratios[4096] + 0.05
