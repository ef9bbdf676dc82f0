"""Discrete-event simulation kernel.

A small, dependency-free engine in the style of SimPy: simulations are
built from generator *processes* that ``yield`` events (timeouts, other
processes, resource requests, store gets).  The :class:`~repro.sim.core.
Simulator` owns the virtual clock and the event heap.

Everything in :mod:`repro` that has a notion of time (links, disks,
CPUs, TCP connections, workloads) runs on this kernel, which keeps the
whole reproduction deterministic and laptop-scale.
"""

from repro.sim.core import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)
from repro.sim.resources import Resource, Store
from repro.sim.rng import SeededRNG

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "Interrupt",
    "Process",
    "Resource",
    "SeededRNG",
    "SimulationError",
    "Simulator",
    "Store",
    "Timeout",
]
