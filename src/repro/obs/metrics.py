"""Counters, gauges, and histograms in a scoped registry, plus the
latency statistics the evaluation harness reads.

Metrics are keyed by ``(kind, name, scope)``: ``scope`` is the tenant
name for tenant-attributed metrics (service byte counts, relay journal
stats), or a component name (a link, a switch, a disk) for plant-level
ones.  Everything is plain Python arithmetic — no simulation events,
no RNG — so the registry can sit on the hot path behind a ``None``
guard without perturbing determinism.

``snapshot()`` renders the registry as schema records sorted by key,
so two identical runs export byte-identical metric sections.

Registry histograms are streaming-only (count / sum / min / max, O(1)
memory).  A caller that needs percentiles keeps its own sample list —
:class:`LatencyStats`, or the fleet's session trace — and reads them
with the one shared nearest-rank :func:`percentile`.
"""

from __future__ import annotations

import math
from typing import Iterable, Union


def percentile(values: Iterable[float], p: float) -> float:
    """Nearest-rank percentile; ``p`` in [0, 100].

    The rank is ``ceil(p * n / 100)``: dividing last keeps it exact
    whenever ``p * n`` is a multiple of 100 (``ceil(p / 100 * n)``
    overshoots when ``p / 100`` rounds up, e.g. p=7, n=100 gave rank 8).
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of empty list")
    if not 0 <= p <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {p}")
    rank = max(1, math.ceil(p * len(ordered) / 100))
    return ordered[rank - 1]


class LatencyStats:
    """Accumulates per-operation latencies."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def add(self, latency: float) -> None:
        self.samples.append(latency)

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def mean(self) -> float:
        if not self.samples:
            return 0.0
        return sum(self.samples) / len(self.samples)

    def p(self, q: float) -> float:
        return percentile(self.samples, q)


class Timeline:
    """Per-second event counts (the Fig. 13 TPS plot)."""

    def __init__(self, bucket_seconds: float = 1.0) -> None:
        self.bucket_seconds = bucket_seconds
        self._buckets: dict[int, int] = {}

    def add(self, when: float, count: int = 1) -> None:
        bucket = int(when / self.bucket_seconds)
        self._buckets[bucket] = self._buckets.get(bucket, 0) + count

    def series(self) -> list[tuple[float, float]]:
        """[(bucket start time, rate per second)] over the covered range."""
        if not self._buckets:
            return []
        first, last = min(self._buckets), max(self._buckets)
        return [
            (b * self.bucket_seconds, self._buckets.get(b, 0) / self.bucket_seconds)
            for b in range(first, last + 1)
        ]

    def mean_rate(self, start: float, end: float) -> float:
        """Average events/second over [start, end)."""
        if end <= start:
            raise ValueError("end must be after start")
        total = sum(
            count
            for bucket, count in self._buckets.items()
            if start <= bucket * self.bucket_seconds < end
        )
        return total / (end - start)


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "scope", "value")

    def __init__(self, name: str, scope: str):
        self.name = name
        self.scope = scope
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def record(self) -> dict:
        return {"type": "counter", "name": self.name, "scope": self.scope,
                "value": self.value}


class Gauge:
    """Last-written value (queue depths, journal sizes)."""

    __slots__ = ("name", "scope", "value")

    def __init__(self, name: str, scope: str):
        self.name = name
        self.scope = scope
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def record(self) -> dict:
        return {"type": "gauge", "name": self.name, "scope": self.scope,
                "value": self.value}


class Histogram:
    """Streaming summary: count / sum / min / max of observed values,
    in O(1) memory — no sample is retained."""

    __slots__ = ("name", "scope", "count", "total", "min", "max")

    def __init__(self, name: str, scope: str):
        self.name = name
        self.scope = scope
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def record(self) -> dict:
        return {
            "type": "histogram",
            "name": self.name,
            "scope": self.scope,
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
        }


Metric = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Lazy-created metrics, one instance per (kind, name, scope)."""

    def __init__(self) -> None:
        self._metrics: dict[tuple[str, str, str], Metric] = {}

    def counter(self, name: str, scope: str = "") -> Counter:
        key = ("counter", name, scope)
        metric = self._metrics.get(key)
        if metric is None:
            metric = self._metrics[key] = Counter(name, scope)
        return metric  # type: ignore[return-value]

    def gauge(self, name: str, scope: str = "") -> Gauge:
        key = ("gauge", name, scope)
        metric = self._metrics.get(key)
        if metric is None:
            metric = self._metrics[key] = Gauge(name, scope)
        return metric  # type: ignore[return-value]

    def histogram(self, name: str, scope: str = "") -> Histogram:
        key = ("histogram", name, scope)
        metric = self._metrics.get(key)
        if metric is None:
            metric = self._metrics[key] = Histogram(name, scope)
        return metric  # type: ignore[return-value]

    def scoped(self, scope: str) -> list[Metric]:
        """Every metric attributed to one scope (e.g. one tenant)."""
        return [m for key, m in sorted(self._metrics.items()) if key[2] == scope]

    def evict_scope(self, scope: str) -> int:
        """Drop every metric attributed to ``scope``; returns the count.

        The detach path calls this (via ``ObsBus.release_scope``) when
        a tenant's last flow goes away, so per-tenant counters stop
        accumulating O(ever-attached) registry entries.  Next use of
        the scope lazily re-creates its metrics from zero — callers
        that need the final values must snapshot first.
        """
        keys = [key for key in self._metrics if key[2] == scope]
        for key in keys:
            del self._metrics[key]
        return len(keys)

    def snapshot(self) -> list[dict]:
        """Deterministically ordered schema records for export."""
        return [self._metrics[key].record() for key in sorted(self._metrics)]

    def __len__(self) -> int:
        return len(self._metrics)
