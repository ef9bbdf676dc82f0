"""Figure 8 — processing overhead, normalized latency vs I/O size (1 thread).

Paper: active-relay latency ≈ MB-FWD at 4–16 KB and 6–11% *lower* at
64–256 KB (0.94 and 0.89 normalized) thanks to the shortened
acknowledgment path.
"""

from harness import IO_SIZES, format_table, normalize, processing_size_sweep

PAPER_ACTIVE = {4096: 0.98, 16384: 1.01, 65536: 0.94, 262144: 0.89}


def _ratios():
    sweep = processing_size_sweep()
    return {
        size: {
            "passive": normalize(
                sweep[size]["fwd"].latency.mean, sweep[size]["passive"].latency.mean
            ),
            "active": normalize(
                sweep[size]["fwd"].latency.mean, sweep[size]["active"].latency.mean
            ),
        }
        for size in IO_SIZES
    }


def test_fig8_processing_latency(benchmark):
    ratios = benchmark.pedantic(_ratios, rounds=1, iterations=1)
    print()
    print(
        format_table(
            ["io_size", "passive/fwd", "active/fwd", "paper active/fwd"],
            [
                [
                    f"{size // 1024} KB",
                    ratios[size]["passive"],
                    ratios[size]["active"],
                    PAPER_ACTIVE[size],
                ]
                for size in IO_SIZES
            ],
            title="Figure 8: processing overhead (normalized latency vs MB-FWD)",
        )
    )
    for size in IO_SIZES:
        assert ratios[size]["passive"] > 1.0, "passive relay must add latency"
        assert ratios[size]["active"] <= 1.03
    # active's latency advantage appears at large sizes
    assert ratios[262144]["active"] < 0.95
    assert ratios[262144]["active"] < ratios[4096]["active"]
