"""StorM reproduction: tenant-defined cloud storage middle-box services.

This package reproduces the system described in *StorM: Enabling
Tenant-Defined Cloud Storage Middle-Box Services* (DSN 2016) on top of
a from-scratch discrete-event simulation of an IaaS cloud.

Layering (bottom to top):

- :mod:`repro.sim` — discrete-event kernel.
- :mod:`repro.net` — links, switches, NAT, SDN, TCP.
- :mod:`repro.blockdev` / :mod:`repro.iscsi` / :mod:`repro.fs` —
  storage substrates.
- :mod:`repro.cloud` — the OpenStack-like cloud (hosts, VMs, Cinder).
- :mod:`repro.core` — StorM itself (splicing, steering, relays,
  semantics reconstruction, policies, platform).
- :mod:`repro.services` — the three case-study middle-box services.
- :mod:`repro.workloads` — evaluation drivers; :mod:`repro.obs` —
  tracing, metrics and latency statistics.
"""

__version__ = "1.0.0"
