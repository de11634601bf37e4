"""Structured tracing: spans, span events, and the tracer.

The model is a small subset of OpenTelemetry, adapted to a discrete-event
simulation: every span carries *two* clocks — the simulator clock (what the
paper's measurements are about) and the host wall clock (what profiling the
reproduction itself is about).  Spans form a tree through ``parent_id``;
point-in-time occurrences (faults, interrupts, degradations) attach to
their enclosing span as :class:`SpanEvent` s.

The default tracer is :class:`NullTracer` — a shared, allocation-free no-op
so instrumented hot paths cost one attribute check and nothing else when
telemetry is off.  :class:`Tracer` records.  Both expose the same surface:

* ``span(name, **attrs)`` — context manager for lexically scoped work;
* ``begin(name, **attrs)`` / ``end(span)`` — for event-driven code whose
  spans open and close in different callbacks (DMA transfers, partial
  reconfigurations);
* ``event(name, **attrs)`` — a free-standing instant event, attached to
  the innermost open lexical span when there is one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass(slots=True)
class SpanEvent:
    """A point-in-time occurrence inside (or outside) a span."""

    time_s: float
    name: str
    attrs: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"time_s": self.time_s, "name": self.name, "attrs": dict(self.attrs)}


@dataclass(slots=True)
class Span:
    """One timed operation on the simulator and wall clocks.

    Attributes:
        name: Operation name ("drive.frame", "pr.reconfigure", ...).
        span_id: Unique id within one tracer.
        parent_id: Enclosing span's id, or ``None`` for a root span.
        start_s / end_s: Simulator-clock bounds (seconds).
        wall_start_s / wall_end_s: Host-clock bounds (``perf_counter``).
        attrs: Typed attributes (labels, byte counts, outcomes, ...).
        events: Instant events tagged onto this span.
    """

    name: str
    span_id: int
    parent_id: int | None = None
    start_s: float = 0.0
    end_s: float | None = None
    wall_start_s: float = 0.0
    wall_end_s: float | None = None
    attrs: dict[str, Any] = field(default_factory=dict)
    events: list[SpanEvent] = field(default_factory=list)

    @property
    def finished(self) -> bool:
        return self.end_s is not None

    @property
    def duration_s(self) -> float:
        """Simulator-clock duration (0.0 while the span is open)."""
        if self.end_s is None:
            return 0.0
        return self.end_s - self.start_s

    @property
    def wall_duration_s(self) -> float:
        """Wall-clock duration (0.0 while the span is open)."""
        if self.wall_end_s is None:
            return 0.0
        return self.wall_end_s - self.wall_start_s

    def set_attr(self, key: str, value: Any) -> None:
        self.attrs[key] = value

    def add_event(self, name: str, time_s: float, **attrs: Any) -> SpanEvent:
        event = SpanEvent(time_s=time_s, name=name, attrs=attrs)
        self.events.append(event)
        return event

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "wall_start_s": self.wall_start_s,
            "wall_end_s": self.wall_end_s,
            "attrs": dict(self.attrs),
            "events": [e.to_dict() for e in self.events],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        span = cls(
            name=data["name"],
            span_id=data["span_id"],
            parent_id=data.get("parent_id"),
            start_s=data.get("start_s", 0.0),
            end_s=data.get("end_s"),
            wall_start_s=data.get("wall_start_s", 0.0),
            wall_end_s=data.get("wall_end_s"),
            attrs=dict(data.get("attrs", {})),
        )
        for event in data.get("events", ()):
            span.events.append(
                SpanEvent(
                    time_s=event["time_s"], name=event["name"], attrs=dict(event.get("attrs", {}))
                )
            )
        return span


class _NullSpan:
    """The shared do-nothing span; also its own context manager."""

    __slots__ = ()

    name = ""
    span_id = -1
    parent_id = None
    finished = True
    duration_s = 0.0
    wall_duration_s = 0.0
    attrs: dict[str, Any] = {}
    events: list[SpanEvent] = []

    def set_attr(self, key: str, value: Any) -> None:
        pass

    def add_event(self, name: str, time_s: float, **attrs: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


#: Module-level singleton handed out by the no-op tracer.
NULL_SPAN = _NullSpan()


class NullTracer:
    """The zero-cost default: every call returns immediately.

    ``enabled`` is False so hot paths can skip even attribute preparation
    with a single check; calling through anyway is safe and allocation-free.
    """

    enabled = False
    spans: tuple[Span, ...] = ()
    #: The host clock, as on :class:`Tracer`: a metrics-only session times
    #: its frames by it.
    wall_clock = staticmethod(time.perf_counter)

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return NULL_SPAN

    def begin(self, name: str, **attrs: Any) -> _NullSpan:
        return NULL_SPAN

    def end(self, span: Any, **attrs: Any) -> None:
        pass

    def event(self, name: str, time_s: float | None = None, **attrs: Any) -> None:
        pass


class _SpanContext:
    """Context manager pushing/popping one span on the lexical stack."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._tracer._stack.append(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        stack = self._tracer._stack
        if stack and stack[-1] is self._span:
            stack.pop()
        if exc_type is not None:
            self._span.attrs.setdefault("error", f"{exc_type.__name__}: {exc}")
        self._tracer.end(self._span)


class Tracer:
    """A recording tracer over a simulator clock.

    Args:
        clock: Returns the current simulator time in seconds (e.g.
            ``lambda: soc.sim.now``).  Defaults to a constant 0.0 clock so
            pure-software pipelines can still be profiled on wall time.
        wall_clock: Host clock; ``time.perf_counter`` unless overridden
            (tests inject deterministic clocks).
    """

    enabled = True

    def __init__(
        self,
        clock: Callable[[], float] | None = None,
        wall_clock: Callable[[], float] | None = None,
    ):
        self.clock = clock or (lambda: 0.0)
        self.wall_clock = wall_clock or time.perf_counter
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._next_id = 0

    # Span lifecycle ---------------------------------------------------------

    def _new_span(self, name: str, parent_id: int | None, attrs: dict[str, Any]) -> Span:
        span = Span(
            name=name,
            span_id=self._next_id,
            parent_id=parent_id,
            start_s=self.clock(),
            wall_start_s=self.wall_clock(),
            attrs=attrs,
        )
        self._next_id += 1
        return span

    def span(self, name: str, **attrs: Any) -> _SpanContext:
        """Lexically scoped span; parent = the innermost open ``span()``."""
        parent = self._stack[-1].span_id if self._stack else None
        return _SpanContext(self, self._new_span(name, parent, attrs))

    def begin(self, name: str, parent: Span | None = None, **attrs: Any) -> Span:
        """Open a span that will be closed later with :meth:`end`.

        For callback-driven work: the span is *not* pushed on the lexical
        stack (its closing callback runs in a different scope).  Its parent
        is ``parent`` if given, else the innermost open lexical span.
        """
        if parent is not None:
            parent_id = parent.span_id
        else:
            parent_id = self._stack[-1].span_id if self._stack else None
        return self._new_span(name, parent_id, attrs)

    def end(self, span: Span, **attrs: Any) -> None:
        """Close a span (idempotent) and record it."""
        if isinstance(span, _NullSpan) or span.finished:
            return
        span.attrs.update(attrs)
        span.end_s = self.clock()
        span.wall_end_s = self.wall_clock()
        self.spans.append(span)

    def event(self, name: str, time_s: float | None = None, **attrs: Any) -> SpanEvent:
        """Instant event, tagged onto the innermost open lexical span.

        With no open span the event becomes a zero-length span of its own,
        so nothing observed is ever silently lost.
        """
        at = self.clock() if time_s is None else time_s
        if self._stack:
            event = SpanEvent(at, name, attrs)
            self._stack[-1].events.append(event)
            return event
        span = self._new_span(name, None, dict(attrs))
        span.start_s = at
        span.end_s = at
        span.wall_end_s = span.wall_start_s
        self.spans.append(span)
        return SpanEvent(time_s=at, name=name, attrs=attrs)

    @property
    def current_span(self) -> Span | None:
        """The innermost open lexical span, if any."""
        return self._stack[-1] if self._stack else None

    def finished_spans(self, name: str | None = None) -> list[Span]:
        """Recorded spans, optionally filtered by name."""
        if name is None:
            return list(self.spans)
        return [s for s in self.spans if s.name == name]
