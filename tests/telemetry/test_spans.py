"""Tests for repro.telemetry.spans: the tracing core."""

from __future__ import annotations

import pytest

from repro.telemetry.spans import NULL_SPAN, NullTracer, Span, Tracer

pytestmark = pytest.mark.telemetry


class FakeClock:
    """A settable clock so span bounds are exact in tests."""

    def __init__(self, start: float = 0.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


@pytest.fixture()
def clock() -> FakeClock:
    return FakeClock()


@pytest.fixture()
def tracer(clock) -> Tracer:
    wall = FakeClock(100.0)
    t = Tracer(clock=clock, wall_clock=wall)
    t.wall = wall  # type: ignore[attr-defined]
    return t


class TestLexicalSpans:
    def test_span_records_both_clocks(self, tracer, clock):
        with tracer.span("work", label="a") as span:
            clock.advance(2.0)
            tracer.wall.advance(0.5)
        assert span.finished
        assert span.duration_s == pytest.approx(2.0)
        assert span.wall_duration_s == pytest.approx(0.5)
        assert span.attrs["label"] == "a"
        assert tracer.finished_spans("work") == [span]

    def test_nesting_builds_a_parent_tree(self, tracer):
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert tracer.current_span is inner
            assert tracer.current_span is outer
        assert outer.parent_id is None
        assert inner.parent_id == outer.span_id
        assert tracer.current_span is None

    def test_exception_is_recorded_and_span_closed(self, tracer):
        with pytest.raises(ValueError):
            with tracer.span("risky") as span:
                raise ValueError("boom")
        assert span.finished
        assert span.attrs["error"] == "ValueError: boom"
        assert tracer.current_span is None

    def test_event_attaches_to_innermost_open_span(self, tracer, clock):
        with tracer.span("frame") as span:
            clock.advance(1.0)
            tracer.event("fault", site="dma-error")
        assert [e.name for e in span.events] == ["fault"]
        assert span.events[0].time_s == pytest.approx(1.0)
        assert span.events[0].attrs == {"site": "dma-error"}

    def test_event_without_open_span_becomes_zero_length_span(self, tracer, clock):
        clock.advance(3.0)
        tracer.event("irq.delivered", line="dma.done")
        (span,) = tracer.finished_spans("irq.delivered")
        assert span.start_s == span.end_s == pytest.approx(3.0)
        assert span.attrs == {"line": "dma.done"}


class TestCallbackSpans:
    def test_begin_end_outside_the_lexical_stack(self, tracer, clock):
        span = tracer.begin("dma.transfer", engine="veh")
        assert tracer.current_span is None  # not lexically scoped
        clock.advance(0.25)
        tracer.end(span, outcome="ok")
        assert span.duration_s == pytest.approx(0.25)
        assert span.attrs == {"engine": "veh", "outcome": "ok"}

    def test_begin_inherits_lexical_parent(self, tracer):
        with tracer.span("frame") as frame:
            child = tracer.begin("dma.transfer")
        assert child.parent_id == frame.span_id

    def test_end_is_idempotent(self, tracer, clock):
        span = tracer.begin("op")
        tracer.end(span)
        first_end = span.end_s
        clock.advance(5.0)
        tracer.end(span)
        assert span.end_s == first_end
        assert len(tracer.spans) == 1

    def test_end_of_null_span_is_a_noop(self, tracer):
        tracer.end(NULL_SPAN)
        assert tracer.spans == []


class TestNullTracer:
    def test_disabled_and_allocation_free(self):
        null = NullTracer()
        assert not null.enabled
        assert null.span("x") is NULL_SPAN
        assert null.begin("x") is NULL_SPAN
        null.end(NULL_SPAN)
        null.event("x")
        assert null.spans == ()

    def test_null_span_is_its_own_context_manager(self):
        with NullTracer().span("x") as span:
            span.set_attr("k", 1)
            span.add_event("e", 0.0)
        assert span is NULL_SPAN
        assert span.attrs == {}


class TestSerialization:
    def test_to_dict_from_dict_round_trip(self, tracer, clock):
        with tracer.span("op", bytes=64) as span:
            clock.advance(1.5)
            tracer.event("mark", note="mid")
        loaded = Span.from_dict(span.to_dict())
        assert loaded.name == span.name
        assert loaded.span_id == span.span_id
        assert loaded.duration_s == pytest.approx(span.duration_s)
        assert loaded.attrs == span.attrs
        assert [e.name for e in loaded.events] == ["mark"]
        assert loaded.events[0].attrs == {"note": "mid"}
