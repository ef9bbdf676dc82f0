"""`repro.obs` — the unified, deterministic observability spine.

One :class:`ObsBus` per simulation carries trace spans, point events,
and metrics from every instrumented layer (net, iscsi, relay,
platform, services, blockdev, faults).  See DESIGN.md §11 for the
span model and context-propagation story; the short version:

- ``bus.span(name)`` opens a root span; ``span.context()`` yields a
  :class:`TraceContext` stamped on in-flight objects (packets, PDUs)
  so downstream layers join the same trace;
- metrics live in ``bus.metrics`` keyed by ``(kind, name, scope)``;
  histograms are streaming (count / sum / min / max);
- sinks receive every record; a bus has none until one is added, and
  ``bus.collect()`` adds the collector the exports read (deterministic
  bytes);
- :func:`percentile`, :class:`LatencyStats` and :class:`Timeline` are
  the evaluation harness's latency and throughput statistics.

With no bus attached every instrumented component's ``obs`` hook is
``None`` and the simulation is bit-identical to an uninstrumented one.
"""

from repro.obs.bus import ObsBus, Span
from repro.obs.context import TraceContext
from repro.obs.eventlog import EventLog, EventRecord, make_event_log
from repro.obs.instrument import instrument
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    LatencyStats,
    MetricsRegistry,
    Timeline,
    percentile,
)
from repro.obs.sinks import (
    CollectorSink,
    JsonlSink,
    RingSink,
    Sink,
    to_chrome_trace,
    to_jsonl_lines,
)
from repro.obs.trace_tools import (
    events_of,
    first_trace,
    format_hop_table,
    spans_of,
    trace_rows,
)
from repro.obs.validate import validate_file, validate_lines, validate_record

__all__ = [
    "ObsBus",
    "Span",
    "TraceContext",
    "EventLog",
    "EventRecord",
    "make_event_log",
    "instrument",
    "Counter",
    "Gauge",
    "Histogram",
    "LatencyStats",
    "MetricsRegistry",
    "Timeline",
    "percentile",
    "CollectorSink",
    "JsonlSink",
    "RingSink",
    "Sink",
    "to_chrome_trace",
    "to_jsonl_lines",
    "events_of",
    "first_trace",
    "format_hop_table",
    "spans_of",
    "trace_rows",
    "validate_file",
    "validate_lines",
    "validate_record",
]
