"""The transactional control plane: intent log, sagas, and the
controller node.

PR 2 made the *data plane* survive faults; this module does the same
for the *control plane*.  Every multi-step control operation — the
atomic volume attach (paper §III-A), object-session splicing, detach,
chain reconfiguration, middle-box (de)provisioning — is recorded in a
write-ahead **intent log** as a :class:`Saga`: an ordered list of
idempotent :class:`SagaStep`\\ s, each with a compensating ``undo``.

Crash semantics mirror the active relay's NVM journal: the log object
lives on the :class:`ControlPlaneNode` and *survives* a crash (it
models journaled controller state), while the in-flight orchestration
process dies — :class:`ControllerCrashed` is raised at the next step
boundary once :meth:`repro.faults.FaultInjector.crash` marks the node
down.  On :meth:`~repro.faults.FaultInjector.restart` the node's
``on_restart`` hook calls :meth:`repro.core.platform.StorM.recover`,
which resolves every in-flight saga to exactly one of two audited
states:

- the **pivot** step (commit barrier) completed → *roll forward*:
  re-run the remaining steps (all idempotent and synchronous by
  construction);
- otherwise → *roll back*: run the compensations of every started
  step in reverse order.

Either way no wildcard steering rule, transient NAT entry, or
half-spliced flow outlives recovery — the invariant the
:class:`repro.core.reconcile.Reconciler` audits.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.net.link import Interface
from repro.net.packet import Packet
from repro.net.stack import Node
from repro.sim import Simulator

#: Saga lifecycle states.
IN_FLIGHT = "in-flight"
COMMITTED = "committed"
ABORTED = "aborted"

#: Resolved sagas an intent log accumulates before it is compacted
#: (single-node platform and HA cluster alike).
COMPACT_THRESHOLD = 64


class SagaError(Exception):
    """Misuse of the saga machinery (e.g. replaying a yielding step)."""


class ControllerCrashed(Exception):
    """The control-plane node died mid-operation; recovery will finish
    or compensate the saga when the controller restarts."""

    def __init__(self, op: str, step: str = "") -> None:
        super().__init__(f"controller crashed during {op!r} (step {step or '<pre>'})")
        self.op = op
        self.step = step


class QuorumLost(ControllerCrashed):
    """The HA leader could not replicate a journal entry to a quorum
    of control-plane replicas (or lost its leadership): the entry does
    not commit and the saga is left in-flight for the next leader's
    takeover.  A subclass of :class:`ControllerCrashed` so the saga
    executors' crash handling applies unchanged."""


@dataclass
class SagaStep:
    """One idempotent unit of a control operation.

    ``do`` either returns a value (synchronous step) or a generator
    (the executor runs it as a child process — only allowed *before*
    the pivot, so crash recovery never needs to resume a yield).
    ``undo`` compensates a started-but-unfinished or rolled-back step
    and must tolerate the step having only partially applied.
    """

    name: str
    do: Callable[[], Any]
    undo: Optional[Callable[[], None]] = None
    #: commit barrier: once this step's completion is journaled, crash
    #: recovery rolls the saga *forward* instead of compensating.
    pivot: bool = False
    #: run while holding the platform attach mutex (the executor
    #: releases the mutex before the first non-locked step).
    locked: bool = True
    #: stash the step result under this key in the saga's shared state.
    store: Optional[str] = None
    #: declares that this step intentionally has no compensator: it is
    #: idempotent teardown that recovery re-drives forward rather than
    #: undoing.  Purely declarative (an absent ``undo`` already runs
    #: nothing) — but stormlint's ``saga-compensated`` contract rule
    #: requires every pre-pivot step to carry either an ``undo`` or
    #: this marker, so the "no compensator" decision is always explicit
    #: and reviewable at the call site.
    forward_only: bool = False


class Saga:
    """A journaled control operation: steps + append-only journal."""

    def __init__(
        self,
        saga_id: int,
        op: str,
        cookie: str,
        steps: list[SagaStep],
        detail: Optional[dict[str, Any]] = None,
    ) -> None:
        self.saga_id = saga_id
        self.op = op
        self.cookie = cookie
        self.steps = steps
        self.detail = detail or {}
        self.status = IN_FLIGHT
        self.pivoted = False
        #: append-only journal: "begin", "start:<step>", "done:<step>",
        #: "pivot", "commit", "abort"
        self.journal: list[str] = ["begin"]
        #: per-step results (survive the crash alongside the journal,
        #: like the relay's NVM payloads)
        self.results: dict[str, Any] = {}
        #: shared mutable state the step closures read/write
        self.state: dict[str, Any] = {}
        #: HA provenance (:mod:`repro.core.ha`): the leadership term
        #: and leader node that began (or adopted) this saga.  Zero /
        #: empty on the single-node platform.
        self.term = 0
        self.origin = ""
        #: HA hook: when set, :meth:`mark` forwards every journal
        #: entry through it (``shipper(saga, entry)``) so the entry is
        #: quorum-replicated *before* the step it records executes.
        #: The hook may raise :class:`QuorumLost`; the entry stays in
        #: the local journal either way (append-then-ship — exactly
        #: what compensation closures must tolerate).
        self.shipper: Optional[Callable[["Saga", str], None]] = None
        #: cumulative replication round-trip time this saga's journal
        #: entries spent on the HA shipping mesh (seconds of simulated
        #: link latency; the slowest acked peer per entry).  Zero on
        #: the single-node platform.  The fleet harness charges this
        #: into the ``fleet.attach.latency`` histogram so attach p99
        #: reflects quorum shipping, not just data-plane connect time.
        self.ship_rtt = 0.0
        #: called once the saga is rolled back — by the executor on an
        #: ordinary failure, or by crash recovery / HA takeover.  Not
        #: journaled: it releases state no step created (the attach's
        #: gateway pair).
        self.on_abort: Optional[Callable[[], None]] = None

    def mark(self, entry: str) -> None:
        self.journal.append(entry)
        if self.shipper is not None:
            self.shipper(self, entry)

    def started(self, step_name: str) -> bool:
        return f"start:{step_name}" in self.journal

    def done(self, step_name: str) -> bool:
        return f"done:{step_name}" in self.journal

    @property
    def incomplete(self) -> bool:
        return self.status == IN_FLIGHT

    def __repr__(self) -> str:
        return f"Saga#{self.saga_id}({self.op}, {self.cookie}, {self.status})"


class IntentLog:
    """Write-ahead journal of control operations (controller NVM).

    Purely passive storage: the executor in
    :class:`~repro.core.platform.StorM` appends sagas and journal
    entries; recovery and the reconciler read them back.
    """

    def __init__(self) -> None:
        self.sagas: list[Saga] = []
        self._ids = itertools.count(1)
        #: HA hook (:class:`repro.core.ha.HaCluster`): when set, every
        #: new saga is quorum-replicated at creation (``ship_begin``)
        #: and its journal entries ship through :attr:`Saga.shipper`.
        self.shipper: Optional[Any] = None
        #: sagas snapshotted away by :meth:`compact`, by final status
        self.compacted_committed = 0
        self.compacted_aborted = 0

    def begin(
        self,
        op: str,
        cookie: str,
        steps: list[SagaStep],
        detail: Optional[dict[str, Any]] = None,
    ) -> Saga:
        saga = Saga(next(self._ids), op, cookie, steps, detail)
        self.sagas.append(saga)
        if self.shipper is not None:
            self.shipper.ship_begin(saga)  # may raise QuorumLost
        return saga

    def incomplete(self) -> list[Saga]:
        """Sagas with neither a commit nor an abort record."""
        return [s for s in self.sagas if s.incomplete]

    def in_flight_cookies(self) -> set[str]:
        """Cookies of live operations — the reconciler must not treat
        their transient rules as drift.  Assumes :meth:`recover` has
        already resolved any crash-orphaned sagas."""
        return {s.cookie for s in self.sagas if s.incomplete}

    def by_op(self, op: str) -> list[Saga]:
        return [s for s in self.sagas if s.op == op]

    def compact(self) -> int:
        """Snapshot resolved sagas out of the log, so crash replay
        (:meth:`~repro.core.platform.StorM.recover` iterates
        :meth:`incomplete`) and HA log-shipping catch-up stay
        O(active sagas) instead of O(all history).  Only counters
        remain for the dropped sagas; in-flight sagas — the only ones
        recovery can act on — are untouched, so replay after
        compaction resolves exactly what replay without it would."""
        resolved = [s for s in self.sagas if not s.incomplete]
        if not resolved:
            return 0
        for saga in resolved:
            if saga.status == COMMITTED:
                self.compacted_committed += 1
            else:
                self.compacted_aborted += 1
        self.sagas = [s for s in self.sagas if s.incomplete]
        return len(resolved)

    @property
    def compacted(self) -> int:
        return self.compacted_committed + self.compacted_aborted

    def __len__(self) -> int:
        return len(self.sagas)


class ControlPlaneNode(Node):
    """The StorM controller as a crashable node.

    On the single-node platform it has no NICs (the simulated control
    channel is direct method calls), but being a
    :class:`~repro.net.stack.Node` means
    :meth:`repro.faults.FaultInjector.crash` /
    :meth:`~repro.faults.FaultInjector.restart` treat it exactly like
    any other machine.  The saga executor checks :attr:`crashed` at
    every step boundary; the injector invokes :attr:`on_restart`
    (wired to ``StorM.recover``, or to the HA cluster's rejoin) when
    the node comes back.

    With :mod:`repro.core.ha` the replicas additionally get real NICs
    on real replication links; :attr:`on_message` intercepts their
    election/heartbeat traffic before the TCP stack (which would drop
    the non-TCP payloads).
    """

    def __init__(self, sim: Simulator, name: str = "storm-controller") -> None:
        super().__init__(sim, name)
        #: called by the fault injector after a restart re-plugs the
        #: node; StorM points this at its crash-recovery routine (the
        #: HA cluster points it at the replica's rejoin handler).
        self.on_restart: Optional[Callable[[], Any]] = None
        #: HA control-message handler; when set, every frame addressed
        #: to this node's NICs is delivered here instead of the stack.
        self.on_message: Optional[Callable[[Any], None]] = None

    def receive(self, packet: Packet, iface: Interface) -> None:
        handler = self.on_message
        if handler is None:
            super().receive(packet, iface)
            return
        if self.crashed or packet.dst_mac != iface.mac:
            return
        packet.record_hop(self.name)
        handler(packet.payload)
