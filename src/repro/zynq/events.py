"""Discrete-event simulation kernel.

A minimal, deterministic event kernel: events are ``(time, sequence,
event)`` tuples in a heap, so the heap orders them with C tuple
comparisons; ties in time break by scheduling order, so runs are fully
reproducible.  Components schedule work with :meth:`Simulator.schedule` and
communicate through plain Python calls at event time.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import SimulationError
from repro.telemetry.spans import NullTracer, Tracer


class EventHandle:
    """One scheduled event, and the handle that allows its cancellation."""

    __slots__ = ("time", "callback", "cancelled")

    def __init__(self, time: float, callback: Callable[[], None]):
        #: Scheduled firing time (simulator seconds).
        self.time = time
        self.callback = callback
        #: True once :meth:`cancel` was called.
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event so the kernel skips it."""
        self.cancelled = True


class Simulator:
    """Deterministic discrete-event simulator; time unit is the second."""

    def __init__(self) -> None:
        self._queue: list[tuple[float, int, EventHandle]] = []
        self._sequence = 0
        self.now = 0.0
        self._running = False
        self.events_processed = 0

    def schedule(self, delay_s: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` at ``now + delay_s`` (delay_s >= 0 seconds)."""
        if delay_s < 0:
            raise SimulationError(f"cannot schedule into the past (delay_s={delay_s})")
        time = self.now + delay_s
        event = EventHandle(time, callback)
        heapq.heappush(self._queue, (time, self._sequence, event))
        self._sequence += 1
        return event

    @property
    def pending(self) -> int:
        """Scheduled, not-yet-fired, not-cancelled events."""
        return sum(1 for _, _, e in self._queue if not e.cancelled)

    def step(self) -> bool:
        """Process one event; returns False when the queue is empty."""
        while self._queue:
            time, _, event = heapq.heappop(self._queue)
            if event.cancelled:
                continue
            if time < self.now - 1e-15:
                raise SimulationError("event queue corrupted: time went backwards")
            self.now = max(self.now, time)
            event.callback()
            self.events_processed += 1
            return True
        return False

    def run(self, max_events: int = 10_000_000) -> None:
        """Run until the queue drains (or the safety cap trips)."""
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run())")
        self._running = True
        try:
            count = 0
            while self.step():
                count += 1
                if count > max_events:
                    raise SimulationError(f"exceeded {max_events} events; runaway simulation?")
        finally:
            self._running = False

    def run_until(self, time: float, max_events: int = 10_000_000) -> None:
        """Run events with timestamps <= ``time``; advances now to ``time``.

        Cancelled events reaching the head of the queue are discarded
        whatever their time.  The loop is :meth:`step`'s body inlined.
        """
        if time < self.now:
            raise SimulationError(f"cannot run backwards to {time} (now={self.now})")
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run_until())")
        self._running = True
        queue = self._queue
        heappop = heapq.heappop
        try:
            count = 0
            while queue:
                head_time, _, event = queue[0]
                if event.cancelled:
                    heappop(queue)
                    continue
                if head_time > time:
                    break
                heappop(queue)
                now = self.now
                if head_time < now - 1e-15:
                    raise SimulationError("event queue corrupted: time went backwards")
                if head_time > now:
                    self.now = head_time
                event.callback()
                self.events_processed += 1
                count += 1
                if count > max_events:
                    raise SimulationError(f"exceeded {max_events} events; runaway simulation?")
            self.now = max(self.now, time)
        finally:
            self._running = False


@dataclass(slots=True)
class TraceRecord:
    """One timestamped trace entry."""

    time: float
    source: str
    message: str


#: The declared vocabulary of typed trace events.  ``Trace.emit`` rejects
#: kinds outside this set and the ``event-vocabulary`` lint rule (through
#: ``LintConfig.event_vocabularies``) enforces it statically, so every
#: consumer (summaries, exporter filters, acceptance tests) can rely on the
#: names below being exhaustive.
EVENT_KINDS: frozenset[str] = frozenset(
    {
        "dma.start",
        "dma.done",
        "dma.stall",
        "dma.error",
        "pr.start",
        "pr.done",
        "pr.stall",
        "pr.timeout",
        "soc.degrade",
        "frame.dropped",
        "partition.down",
        "partition.up",
        "model.swap",
    }
)


class Trace:
    """An event trace shared by SoC components.

    Two capture modes:

    * unbounded (default) — every record is kept, as the figure renderers
      expect for short runs;
    * ring buffer (``max_records``) — only the newest ``max_records``
      survive, with ``dropped`` counting evictions.  Long drives attach
      their simulator traces in this mode so a multi-hour drive cannot
      grow the trace without bound.

    A :class:`~repro.telemetry.spans.Tracer` may ride along: components
    that call :meth:`emit` then produce *typed* telemetry events (kind +
    attributes) alongside the human-readable record, so the same call site
    feeds both ``python -m repro fig7`` and a Perfetto dump.

    :attr:`listeners` receive every typed event as ``(time, source, kind,
    attrs)``; the runtime monitor subscribes here to fold SoC events into
    frame snapshots.  The list is empty by default, so unobserved traces
    pay one truthiness check per emit and nothing else.
    """

    def __init__(
        self,
        max_records: int | None = None,
        tracer: Tracer | NullTracer | None = None,
    ) -> None:
        if max_records is not None and max_records < 1:
            raise SimulationError(f"max_records must be >= 1, got {max_records}")
        self.max_records = max_records
        self.records: deque[TraceRecord] | list[TraceRecord]
        if max_records is not None:
            self.records = deque(maxlen=max_records)
        else:
            self.records = []
        self.dropped = 0
        self.logged = 0
        self.tracer = tracer if tracer is not None else NullTracer()
        self.listeners: list[Callable[[float, str, str, dict[str, Any]], None]] = []

    def log(self, time: float, source: str, message: str) -> None:
        """Append one human-readable record (evicting under ring-buffer mode)."""
        if self.max_records is not None and len(self.records) == self.max_records:
            self.dropped += 1
        self.records.append(TraceRecord(time=time, source=source, message=message))
        self.logged += 1

    def emit(self, time: float, source: str, kind: str, message: str, **attrs: Any) -> None:
        """Typed event: a human-readable record plus a telemetry event.

        ``kind`` is the structured event name ("dma.start", "pr.done",
        ...) and must come from :data:`EVENT_KINDS`; ``attrs`` are its
        typed attributes.  With the default no-op tracer this is exactly
        :meth:`log`.
        """
        if kind not in EVENT_KINDS:
            raise SimulationError(
                f"emit kind {kind!r} is not in the declared event vocabulary; "
                "add it to repro.zynq.events.EVENT_KINDS first"
            )
        self.log(time, source, message)
        if self.tracer.enabled:
            self.tracer.event(kind, time_s=time, source=source, **attrs)
        if self.listeners:
            for listener in list(self.listeners):
                listener(time, source, kind, attrs)

    def from_source(self, source: str) -> list[TraceRecord]:
        """Records logged by one component."""
        return [r for r in self.records if r.source == source]

    def __len__(self) -> int:
        return len(self.records)
