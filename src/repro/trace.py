"""Structured execution tracing.

A :class:`TraceLog` attached to a machine records the interesting
kernel events — forks, page faults, copy-on-* breaks, relocations,
syscalls — with their simulated timestamps.  Tracing is off by default
(a ``None`` tracer costs one attribute check per event) and is the tool
for answering "why did this fork cost what it did?": see
``TraceLog.summarize`` and the trace tests.

Events arrive through ``machine.emit`` (:meth:`repro.machine.EventSink.emit`),
which records an entry of the event table :mod:`repro.events` under the
entry's ``trace`` name, so attaching a tracer never changes which code
runs: a batch (fork's page copy, a write-run CoW break) hands it the
``(entry, fields)`` records of its pages in page order, stamped with
the batch's clock reading.

Usage::

    machine = Machine()
    trace = attach_tracer(machine)
    ... run a workload ...
    print(trace.summarize())
    for event in trace.query("page_copy"):
        ...
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional


@dataclass(frozen=True)
class TraceEvent:
    """One recorded event."""

    timestamp_ns: int
    event: str
    fields: tuple  # sorted (key, value) pairs; hashable & immutable

    def get(self, key: str, default=None):
        for name, value in self.fields:
            if name == key:
                return value
        return default

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        details = " ".join(f"{k}={v}" for k, v in self.fields)
        return f"[{self.timestamp_ns:>12}ns] {self.event} {details}"


class TraceLog:
    """A bounded in-memory event log."""

    def __init__(self, machine: Any, capacity: int = 100_000) -> None:
        # the clock, not the machine: the machine holds its tracer
        self.clock = machine.clock
        self.capacity = capacity
        self.events: List[TraceEvent] = []
        self.dropped = 0

    def record(self, event: str, **fields: Any) -> None:
        if len(self.events) >= self.capacity:
            self.dropped += 1
            return
        self.events.append(TraceEvent(
            timestamp_ns=self.clock.now_ns,
            event=event,
            fields=tuple(sorted(fields.items())),
        ))

    # -- querying -----------------------------------------------------------

    def query(self, event: Optional[str] = None,
              **field_filters: Any) -> Iterator[TraceEvent]:
        for entry in self.events:
            if event is not None and entry.event != event:
                continue
            if all(entry.get(key) == value
                   for key, value in field_filters.items()):
                yield entry

    def count(self, event: str, **field_filters: Any) -> int:
        return sum(1 for _ in self.query(event, **field_filters))

    def between(self, start_ns: int, end_ns: int) -> List[TraceEvent]:
        return [e for e in self.events
                if start_ns <= e.timestamp_ns < end_ns]

    def summarize(self) -> Dict[str, int]:
        """Event name → occurrence count."""
        return dict(Counter(entry.event for entry in self.events))

    def clear(self) -> None:
        self.events.clear()
        self.dropped = 0


def attach_tracer(machine: Any, capacity: int = 100_000) -> TraceLog:
    """Create and attach a tracer to a machine; returns it."""
    tracer = TraceLog(machine, capacity)
    machine.tracer = tracer
    return tracer


def detach_tracer(machine: Any) -> None:
    machine.tracer = None
