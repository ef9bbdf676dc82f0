"""Pluggable record sinks and the export serializers.

Every record the bus emits is a plain dict (see
:mod:`repro.obs.bus` for the schema); a sink is anything with an
``emit(record)`` method.  A bus starts with none; three are provided:

- :class:`CollectorSink` — unbounded in-memory list, added by
  ``ObsBus.collect()``; ``ObsBus.records`` and the exports read it;
- :class:`RingSink` — bounded ring for long chaos runs where only the
  recent window matters;
- :class:`JsonlSink` — streams each record to an open file as one JSON
  line (tail-able mid-run).

The serializers are deterministic: ``sort_keys`` + fixed separators,
so identical runs produce byte-identical exports.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Optional, Protocol, TextIO


class Sink(Protocol):
    """Anything the bus can emit records into."""

    def emit(self, record: dict) -> None: ...


def record_to_json(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def to_jsonl_lines(records: list[dict]) -> list[str]:
    return [record_to_json(r) for r in records]


def to_chrome_trace(records: list[dict]) -> dict:
    """Render span/event records as a chrome://tracing object.

    Spans become complete (``"X"``) events, point events become
    instants (``"i"``); traces map to chrome *threads* so one request's
    tree renders as one row.  Times are microseconds, as the format
    requires.
    """
    trace_events: list[dict] = []
    for record in records:
        if record["type"] == "span":
            trace_events.append(
                {
                    "name": record["name"],
                    "cat": "span",
                    "ph": "X",
                    "ts": record["start"] * 1e6,
                    "dur": (record["end"] - record["start"]) * 1e6,
                    "pid": 1,
                    "tid": record["trace"],
                    "args": dict(record["attrs"], status=record["status"]),
                }
            )
        elif record["type"] == "event":
            trace_events.append(
                {
                    "name": record["kind"],
                    "cat": "event",
                    "ph": "i",
                    "s": "t",
                    "ts": record["ts"] * 1e6,
                    "pid": 1,
                    "tid": record["trace"] if record["trace"] is not None else 0,
                    "args": dict(record["attrs"], target=record["target"]),
                }
            )
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


class CollectorSink:
    """Keeps every record, in emission order."""

    def __init__(self) -> None:
        self.records: list[dict] = []

    def emit(self, record: dict) -> None:
        self.records.append(record)


class RingSink:
    """Keeps only the most recent ``capacity`` records."""

    def __init__(self, capacity: int = 4096):
        self.capacity = capacity
        self._ring: deque[dict] = deque(maxlen=capacity)

    def emit(self, record: dict) -> None:
        self._ring.append(record)

    @property
    def records(self) -> list[dict]:
        return list(self._ring)

    def __len__(self) -> int:
        return len(self._ring)


class JsonlSink:
    """Streams records to a file handle as they are emitted."""

    def __init__(self, path: str):
        self.path = path
        self._fh: Optional[TextIO] = open(path, "w")
        self.lines_written = 0

    def emit(self, record: dict) -> None:
        if self._fh is not None:
            self._fh.write(record_to_json(record) + "\n")
            self.lines_written += 1

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None
