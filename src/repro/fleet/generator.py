"""The fleet run: one kernel + per-tenant domains + deterministic reporting."""

from __future__ import annotations

import hashlib
import json
from typing import Optional

from repro.fleet.arrivals import SessionPlan, build_plan
from repro.fleet.config import FleetConfig
from repro.fleet.domain import FleetDomain
from repro.obs.metrics import MetricsRegistry, percentile
from repro.sim import Simulator
from repro.sim.rng import SeededRNG


class FleetRunError(RuntimeError):
    pass


class FleetRun:
    """Build the kernel and domains, place tenants, dispatch the plan.

    Tenant ``k`` lives in domain ``k % shards`` — all of a tenant's
    sessions land in one domain, so no simulation object is ever
    touched from two domains.  Every domain runs on the one
    :class:`Simulator` in ``kernel``; the event order, the session
    trace, and every reported figure are pure functions of the
    :class:`FleetConfig`.
    """

    def __init__(self, config: FleetConfig) -> None:
        config.validate()
        self.config = config
        self.kernel = Simulator()
        #: shared passive registry (streaming counters and histograms)
        self.metrics = MetricsRegistry()
        #: session records appended in event order — the
        #: deterministic byte stream the benchmarks digest, and the
        #: attach latencies the reported percentiles are read from
        self.trace: list[dict] = []
        self.plan: list[SessionPlan] = build_plan(
            config, SeededRNG(config.seed, name="fleet")
        )
        self.active = 0
        self.peak_concurrent = 0
        self.completed = 0

        per_domain: list[list[SessionPlan]] = [[] for _ in range(config.shards)]
        for plan in self.plan:
            per_domain[plan.tenant % config.shards].append(plan)
        self._per_domain = per_domain
        self.domains = [
            FleetDomain(self.kernel, i, config, self.metrics, self.trace, run=self)
            for i in range(config.shards)
        ]

    # -- concurrency accounting (called by the domains) --------------------

    def session_started(self) -> None:
        self.active += 1
        if self.active > self.peak_concurrent:
            self.peak_concurrent = self.active

    def session_finished(self) -> None:
        self.active -= 1
        self.completed += 1

    # -- execution ----------------------------------------------------------

    def run(self) -> dict:
        for domain, plans in zip(self.domains, self._per_domain):
            domain.start(plans)
        self.kernel.run()
        if self.completed != len(self.plan):
            raise FleetRunError(
                f"kernel drained with {self.completed}/{len(self.plan)} "
                "sessions completed"
            )
        return self.report()

    # -- reporting -----------------------------------------------------------

    def trace_jsonl(self) -> str:
        return "\n".join(
            json.dumps(record, sort_keys=True) for record in self.trace
        ) + "\n"

    def trace_digest(self) -> str:
        return hashlib.blake2s(self.trace_jsonl().encode("utf-8")).hexdigest()

    def report(self) -> dict:
        latencies = [record["lat"] for record in self.trace]
        return {
            "sessions": self.completed,
            "tenants": self.config.tenants,
            "shards": self.config.shards,
            "events": self.kernel.events,
            "sim_elapsed": round(self.kernel.now, 9),
            "attach_p50": round(percentile(latencies, 50), 9),
            "attach_p99": round(percentile(latencies, 99), 9),
            "peak_concurrent": self.peak_concurrent,
            "io_ops": self.metrics.counter("fleet.io.ops").value,
            "trace_digest": self.trace_digest(),
        }


def run_fleet(config: Optional[FleetConfig] = None, **overrides) -> dict:
    """One-call convenience: ``run_fleet(sessions=1000, shards=4)``."""
    if config is None:
        config = FleetConfig(**overrides)
    elif overrides:
        raise TypeError("pass either a config or keyword overrides, not both")
    return FleetRun(config).run()
