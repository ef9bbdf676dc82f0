"""Figure 4 — routing overhead, normalized IOPS vs I/O size (1 thread).

Paper: MB-FWD/LEGACY drops from 0.93 (4 KB) to 0.82 (256 KB) as larger
requests aggregate the per-packet routing delay of the 3 extra hops.

Shape asserted here: MB-FWD always loses; the gap widens with I/O
size; the 256 KB ratio lands in the paper's ballpark.
"""

from harness import IO_SIZES, format_table, normalize, routing_sweep

PAPER_RATIOS = {4096: 0.93, 16384: 0.86, 65536: 0.83, 262144: 0.82}


def _ratios():
    sweep = routing_sweep()
    return {
        size: normalize(sweep[size]["legacy"].iops, sweep[size]["fwd"].iops)
        for size in IO_SIZES
    }


def test_fig4_routing_iops(benchmark):
    ratios = benchmark.pedantic(_ratios, rounds=1, iterations=1)
    print()
    print(
        format_table(
            ["io_size", "paper MB-FWD/LEGACY", "measured"],
            [
                [f"{size // 1024} KB", PAPER_RATIOS[size], ratios[size]]
                for size in IO_SIZES
            ],
            title="Figure 4: routing overhead (normalized IOPS, higher is better)",
        )
    )
    for size in IO_SIZES:
        assert 0.70 <= ratios[size] < 1.0, f"{size}: MB-FWD must lose, moderately"
    # the gap grows with I/O size (paper: 7% -> 18%)
    assert ratios[4096] > ratios[262144] + 0.03
    assert abs(ratios[262144] - PAPER_RATIOS[262144]) < 0.12
