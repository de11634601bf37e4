"""Discrete-event simulation kernel.

A minimal, deterministic event kernel: events are ``(time, sequence,
event)`` tuples in a heap, so the heap orders them with C tuple
comparisons; ties in time break by scheduling order, so runs are fully
reproducible.  Components schedule work with :meth:`Simulator.schedule` and
communicate through plain Python calls at event time.
"""

from __future__ import annotations

import heapq
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
    """One timestamped, human-readable trace entry (:meth:`Trace.record`)."""

    time: float
    source: str
    message: str


#: Each typed trace event's human-readable wording, built from its
#: attributes.  Declaring a kind here declares it in :data:`EVENT_KINDS`.
EVENT_WORDING: dict[str, Callable[[dict[str, Any]], str]] = {
    "dma.start": lambda a: f"start {a['label']} ({a['bytes']} B)",
    "dma.done": lambda a: f"done {a['label']}",
    "dma.stall": lambda a: f"stall {a['stall_ms']:.1f} ms on {a['label']}",
    "dma.error": lambda a: f"ERROR on {a['label']}",
    "pr.start": lambda a: f"reconfigure -> {a['bitstream']} start",
    "pr.done": lambda a: (
        f"reconfigure -> {a['bitstream']} done ({a['throughput_mb_s']:.0f} MB/s)"
    ),
    "pr.stall": lambda a: f"ICAP stream stalled {a['stall_ms']:.1f} ms",
    "pr.timeout": lambda a: f"reconfigure -> {a['bitstream']} TIMED OUT",
    "soc.degrade": lambda a: (
        f"degrade {a['action']}: {a['detail']}" if a["detail"] else f"degrade {a['action']}"
    ),
    "frame.dropped": lambda a: "frame dropped",
    "partition.down": lambda a: f"vehicle partition down for PR -> {a['configuration']}",
    "partition.up": lambda a: f"vehicle partition up ({a['configuration']})",
    "model.swap": lambda a: f"vehicle model swap -> {a['model']}",
}

#: The declared vocabulary of typed trace events.  ``Trace.emit`` rejects
#: kinds outside this set and the ``event-vocabulary`` lint rule (through
#: ``LintConfig.event_vocabularies``) enforces it statically, so every
#: consumer (summaries, exporter filters, acceptance tests) can rely on the
#: table's names being exhaustive.
EVENT_KINDS: frozenset[str] = frozenset(EVENT_WORDING)


class Trace:
    """The event bus shared by SoC components; it keeps nothing.

    :meth:`emit` forwards each typed event to the
    :class:`~repro.telemetry.spans.Tracer` (for a Perfetto dump) and calls
    the :attr:`listeners` with ``(time, source, kind, attrs)``; the runtime
    monitor subscribes there to fold SoC events into frame snapshots.  A
    reader of the human-readable log (``python -m repro fig7``) subscribes
    :meth:`record` before the run.  With the default no-op tracer and no
    listeners, an emit is one vocabulary check and two truthiness checks.
    """

    def __init__(self, tracer: Tracer | NullTracer | None = None) -> None:
        self.tracer = tracer if tracer is not None else NullTracer()
        self.listeners: list[Callable[[float, str, str, dict[str, Any]], None]] = []

    def emit(self, time: float, source: str, kind: str, **attrs: Any) -> None:
        """Publish one typed event.

        ``kind`` is the structured event name ("dma.start", "pr.done",
        ...) and must come from :data:`EVENT_KINDS`; ``attrs`` are its
        typed attributes.
        """
        if kind not in EVENT_KINDS:
            raise SimulationError(
                f"emit kind {kind!r} is not in the declared event vocabulary; "
                "add it to repro.zynq.events.EVENT_WORDING first"
            )
        if self.tracer.enabled:
            self.tracer.event(kind, time_s=time, source=source, **attrs)
        # Listeners change only between emits, so no copy of the list.
        for listener in self.listeners:
            listener(time, source, kind, attrs)

    def record(self) -> list[TraceRecord]:
        """Subscribe a log of every later event; returns the list it fills."""
        log: list[TraceRecord] = []

        def append(time: float, source: str, kind: str, attrs: dict[str, Any]) -> None:
            log.append(TraceRecord(time, source, EVENT_WORDING[kind](attrs)))

        self.listeners.append(append)
        return log
