"""Figure 5 — processing overhead, normalized IOPS vs I/O size (1 thread).

A stream-cipher service runs in the middle-box.  Paper: the passive
relay costs 3–13% on top of MB-FWD (per-packet kernel→user copies in
the data path); the active relay matches MB-FWD at small sizes and
*beats* it at larger ones (1.06× at 64 KB, 1.14× at 256 KB) because
the split connection shortens the ACK path from four hops to one.
"""

from harness import IO_SIZES, format_table, normalize, processing_size_sweep

PAPER_ACTIVE = {4096: 1.01, 16384: 1.00, 65536: 1.06, 262144: 1.14}


def _ratios():
    sweep = processing_size_sweep()
    return {
        size: {
            "passive": normalize(sweep[size]["fwd"].iops, sweep[size]["passive"].iops),
            "active": normalize(sweep[size]["fwd"].iops, sweep[size]["active"].iops),
        }
        for size in IO_SIZES
    }


def test_fig5_processing_iops(benchmark):
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
            title="Figure 5: processing overhead (normalized IOPS vs MB-FWD)",
        )
    )
    for size in IO_SIZES:
        assert ratios[size]["passive"] < 1.0, "passive relay must cost throughput"
        assert ratios[size]["active"] >= 0.97, "active relay must not lose to MB-FWD"
    # passive worsens with size; active's advantage grows with size
    assert ratios[262144]["passive"] < ratios[4096]["passive"] - 0.02
    assert ratios[262144]["active"] > 1.05, "active relay must win at 256 KB"
    assert ratios[262144]["active"] > ratios[4096]["active"]
