"""The observability bus: spans, events, metrics, sinks.

One :class:`ObsBus` per :class:`~repro.sim.Simulator` carries every
trace span, point event, and metric the instrumented layers emit.  It
is **purely passive**: it never schedules simulation events, never
touches ``sim.rng``, and draws timestamps straight off the sim clock —
so attaching a bus cannot perturb the event stream, and a run with the
bus detached (every component's ``obs`` hook left ``None``) is
bit-identical to one that never imported this module.

The bus keeps no records itself: it fans each one out to its sinks.
A bus with no sink (the default) still counts spans and keeps its
metrics registry, but builds no span/event records, so its memory
stays bounded.  :meth:`ObsBus.collect` adds the in-memory collector
that :attr:`ObsBus.records` and the exports read.

Determinism contract:

- span/trace ids come from plain ``itertools`` counters private to the
  bus — independent of ``sim.rng``, of wall time, and of each other;
- record timestamps are ``sim.now`` (monotone within a run);
- records are sequenced by a bus-level emission counter, so an
  exported stream from two identical runs is byte-identical.

Record schema (what sinks receive, and what the JSONL export writes):

- ``{"type": "span", "seq", "ts", "trace", "span", "parent", "name",
  "start", "end", "status", "attrs"}`` — emitted when a span finishes;
- ``{"type": "event", "seq", "ts", "kind", "target", "trace", "span",
  "attrs"}`` — emitted immediately;
- ``{"type": "counter"|"gauge"|"histogram", ...}`` — appended by the
  exports from the metrics registry snapshot.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any, Optional

from repro.obs.context import TraceContext
from repro.obs.metrics import MetricsRegistry
from repro.obs.sinks import CollectorSink, Sink, to_chrome_trace, to_jsonl_lines

if TYPE_CHECKING:
    from repro.sim import Simulator


class Span:
    """One timed operation in a trace tree.

    Created by :meth:`ObsBus.span`; carries deterministic ids and the
    sim-clock start time.  :meth:`context` yields the
    :class:`TraceContext` to stamp onto in-flight objects (packets,
    PDUs) so downstream hops join this tree; :meth:`finish` closes the
    span and emits its record.
    """

    __slots__ = ("bus", "name", "trace_id", "span_id", "parent_id", "start", "end", "status", "attrs")

    def __init__(self, bus: "ObsBus", name: str, trace_id: int, span_id: int,
                 parent_id: Optional[int], attrs: dict):
        self.bus = bus
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = bus.now
        self.end: Optional[float] = None
        self.status = "ok"
        self.attrs = attrs

    def context(self) -> TraceContext:
        return TraceContext(self.bus, self.trace_id, self.span_id)

    def event(self, kind: str, target: str = "", **attrs: Any) -> None:
        """A point event attached to this span."""
        self.bus.event(kind, target=target, trace_id=self.trace_id,
                       span_id=self.span_id, **attrs)

    def finish(self, status: str = "ok", **attrs: Any) -> None:
        if self.end is not None:
            return  # idempotent: double-finish keeps the first record
        self.end = self.bus.now
        self.status = status
        if attrs:
            self.attrs.update(attrs)
        self.bus._emit_span(self)


class ObsBus:
    """Per-simulator trace/metrics bus: a fan-out to its sinks."""

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self._trace_ids = itertools.count(1)
        self._span_ids = itertools.count(1)
        self._seq = itertools.count(1)
        self.metrics = MetricsRegistry()
        #: fan-out targets; none by default, so a bus nobody collects
        #: from builds no records and retains nothing
        self.sinks: list[Sink] = []
        self._collector: Optional[CollectorSink] = None
        self.spans_started = 0
        self.events_emitted = 0

    # -- clock -------------------------------------------------------

    @property
    def now(self) -> float:
        return self.sim.now

    # -- sinks -------------------------------------------------------

    def add_sink(self, sink: Sink) -> Sink:
        self.sinks.append(sink)
        return sink

    @property
    def enabled(self) -> bool:
        """True while the bus has a sink.  Every emission site (and the
        TCP per-packet context copy) checks this first, so a sinkless
        bus still counts spans and keeps metrics but builds no records."""
        return bool(self.sinks)

    def collect(self) -> CollectorSink:
        """Keep every record in memory, for :attr:`records` and the
        exports.  Idempotent: the first call adds one
        :class:`CollectorSink`; later calls return the same one."""
        if self._collector is None:
            self._collector = CollectorSink()
            self.add_sink(self._collector)
        return self._collector

    @property
    def records(self) -> list[dict]:
        """Records collected so far; ``[]`` when nothing collects."""
        return self._collector.records if self._collector is not None else []

    def release_scope(self, scope: str) -> int:
        """Evict every metric attributed to ``scope`` (a detached
        tenant) from the registry.  Plain dict surgery — no events, no
        RNG — so the bus stays passive; already-exported records are
        untouched."""
        return self.metrics.evict_scope(scope)

    # -- spans & events ----------------------------------------------

    def span(self, name: str, parent: Any = None, **attrs: Any) -> Span:
        """Open a span.  ``parent`` may be a :class:`Span`, a
        :class:`TraceContext`, or None (which starts a new trace)."""
        if parent is None:
            trace_id = next(self._trace_ids)
            parent_id: Optional[int] = None
        else:
            trace_id = parent.trace_id
            parent_id = parent.span_id
        self.spans_started += 1
        return Span(self, name, trace_id, next(self._span_ids), parent_id, attrs)

    def event(
        self,
        kind: str,
        target: str = "",
        when: Optional[float] = None,
        trace_id: Optional[int] = None,
        span_id: Optional[int] = None,
        ctx: Optional[TraceContext] = None,
        **attrs: Any,
    ) -> None:
        """Emit one point event.  ``ctx`` (if given) attaches the event
        to that context's trace/span; ``when`` overrides the timestamp
        (used by the :class:`~repro.obs.eventlog.EventLog` façade,
        whose callers pass explicit times)."""
        if not self.enabled:
            return
        if ctx is not None:
            trace_id = ctx.trace_id
            span_id = ctx.span_id
        record = {
            "type": "event",
            "seq": next(self._seq),
            "ts": self.now if when is None else when,
            "kind": kind,
            "target": target,
            "trace": trace_id,
            "span": span_id,
            "attrs": attrs,
        }
        self.events_emitted += 1
        for sink in self.sinks:
            sink.emit(record)

    def _emit_span(self, span: Span) -> None:
        if not self.enabled:
            return
        record = {
            "type": "span",
            "seq": next(self._seq),
            "ts": span.start,
            "trace": span.trace_id,
            "span": span.span_id,
            "parent": span.parent_id,
            "name": span.name,
            "start": span.start,
            "end": span.end,
            "status": span.status,
            "attrs": span.attrs,
        }
        for sink in self.sinks:
            sink.emit(record)

    # -- exports ------------------------------------------------------

    def _collected(self) -> list[dict]:
        if self._collector is None:
            raise RuntimeError(
                "ObsBus has no collector: call bus.collect() before the run "
                "to export its records"
            )
        return self._collector.records

    def export_records(self) -> list[dict]:
        """All collected records plus the metrics snapshot."""
        return list(self._collected()) + self.metrics.snapshot()

    def export_jsonl(self, path: Optional[str] = None) -> str:
        """Serialize the stream as JSON Lines (deterministic bytes).
        Writes to ``path`` when given; always returns the text."""
        text = "\n".join(to_jsonl_lines(self.export_records())) + "\n"
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text)
        return text

    def export_chrome(self, path: Optional[str] = None) -> dict:
        """Serialize spans/events as a chrome://tracing JSON object."""
        trace = to_chrome_trace(self._collected())
        if path is not None:
            import json

            with open(path, "w") as fh:
                json.dump(trace, fh, sort_keys=True)
        return trace
