"""Fleet-scale open-loop workload generation (DESIGN.md §15).

``repro.fleet`` drives the StorM control plane at cloud-operator
scale: thousands of tenants, hundreds of thousands of attach /
detach sessions, partitioned across per-tenant domains that all run
on one :class:`repro.sim.Simulator`.

- :class:`FleetConfig` — every knob (seed, shards, arrival process,
  Zipf tenant skew, diurnal curve, churn storms, HA);
- :func:`build_plan` — the precomputed, seed-deterministic arrival
  schedule;
- :class:`FleetDomain` — one self-contained mini-cloud + StorM
  platform per domain;
- :class:`FleetRun` — builds the simulator and domains, dispatches the plan,
  and reports events/s, attach-latency percentiles, and a
  byte-reproducible session trace digest.
"""

from repro.fleet.arrivals import SessionPlan, build_plan
from repro.fleet.config import FleetConfig
from repro.fleet.domain import FleetDomain
from repro.fleet.generator import FleetRun

__all__ = [
    "FleetConfig",
    "FleetDomain",
    "FleetRun",
    "SessionPlan",
    "build_plan",
]
