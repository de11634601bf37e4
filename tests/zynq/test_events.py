"""Tests for repro.zynq.events: the discrete-event kernel."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.zynq.events import EVENT_KINDS, EVENT_WORDING, Simulator, Trace, TraceRecord


class TestScheduling:
    def test_events_fire_in_time_order(self, simulator):
        order = []
        simulator.schedule(2.0, lambda: order.append("b"))
        simulator.schedule(1.0, lambda: order.append("a"))
        simulator.schedule(3.0, lambda: order.append("c"))
        simulator.run()
        assert order == ["a", "b", "c"]

    def test_ties_break_by_schedule_order(self, simulator):
        order = []
        simulator.schedule(1.0, lambda: order.append("first"))
        simulator.schedule(1.0, lambda: order.append("second"))
        simulator.run()
        assert order == ["first", "second"]

    def test_now_advances(self, simulator):
        times = []
        simulator.schedule(0.5, lambda: times.append(simulator.now))
        simulator.schedule(1.5, lambda: times.append(simulator.now))
        simulator.run()
        assert times == [0.5, 1.5]

    def test_nested_scheduling(self, simulator):
        seen = []

        def outer():
            seen.append(simulator.now)
            simulator.schedule(1.0, lambda: seen.append(simulator.now))

        simulator.schedule(1.0, outer)
        simulator.run()
        assert seen == [1.0, 2.0]

    def test_rejects_negative_delay(self, simulator):
        with pytest.raises(SimulationError):
            simulator.schedule(-0.1, lambda: None)

    def test_cancel(self, simulator):
        fired = []
        handle = simulator.schedule(1.0, lambda: fired.append(1))
        handle.cancel()
        simulator.run()
        assert fired == []
        assert handle.cancelled

    def test_run_until_stops_at_time(self, simulator):
        seen = []
        simulator.schedule(1.0, lambda: seen.append(1))
        simulator.schedule(5.0, lambda: seen.append(5))
        simulator.run_until(2.0)
        assert seen == [1]
        assert simulator.now == 2.0
        simulator.run()
        assert seen == [1, 5]

    def test_run_until_rejects_backwards(self, simulator):
        simulator.run_until(3.0)
        with pytest.raises(SimulationError):
            simulator.run_until(1.0)

    def test_runaway_guard(self, simulator):
        def rearm():
            simulator.schedule(0.001, rearm)

        simulator.schedule(0.0, rearm)
        with pytest.raises(SimulationError):
            simulator.run(max_events=1000)

    @settings(max_examples=30)
    @given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=30))
    def test_arbitrary_delays_processed_in_order(self, delays):
        sim = Simulator()
        fired = []
        for d in delays:
            sim.schedule(d, lambda d=d: fired.append(d))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)


class TestKernelContract:
    """The ordering and bookkeeping rules every SoC component relies on."""

    def test_equal_times_run_in_scheduling_order_including_zero_delay(self, simulator):
        order = []

        def first():
            order.append("first")
            # Scheduled at the current time from inside a callback: runs
            # after everything already queued for this instant.
            simulator.schedule(0.0, lambda: order.append("nested"))

        simulator.schedule(1.0, first)
        simulator.schedule(1.0, lambda: order.append("second"))
        simulator.schedule(1.0, lambda: order.append("third"))
        simulator.run_until(1.0)
        assert order == ["first", "second", "third", "nested"]
        assert simulator.now == 1.0

    def test_run_until_runs_events_stamped_exactly_at_the_boundary(self, simulator):
        seen = []
        simulator.schedule(0.5, lambda: seen.append(simulator.now))
        simulator.schedule(0.5 + 1e-12, lambda: seen.append("late"))
        simulator.run_until(0.5)
        assert seen == [0.5]
        assert simulator.pending == 1

    def test_cancelled_head_on_the_boundary_is_skipped(self, simulator):
        seen = []
        head = simulator.schedule(1.0, lambda: seen.append("cancelled"))
        simulator.schedule(1.0, lambda: seen.append("kept"))
        head.cancel()
        simulator.run_until(1.0)
        assert seen == ["kept"]
        assert simulator.events_processed == 1
        assert simulator.now == 1.0

    def test_pending_excludes_cancelled_events(self, simulator):
        handles = [simulator.schedule(float(i), lambda: None) for i in range(4)]
        handles[1].cancel()
        handles[3].cancel()
        assert simulator.pending == 2
        simulator.run_until(0.0)
        assert simulator.pending == 1

    def test_handle_reports_time_and_cancellation(self, simulator):
        simulator.run_until(2.0)
        handle = simulator.schedule(0.25, lambda: None)
        assert handle.time == 2.25
        assert not handle.cancelled
        handle.cancel()
        assert handle.cancelled

    def test_reentrant_run_until_raises(self, simulator):
        errors = []

        def nested():
            try:
                simulator.run_until(simulator.now + 1.0)
            except SimulationError as exc:
                errors.append(exc)

        simulator.schedule(1.0, nested)
        simulator.run_until(5.0)
        assert len(errors) == 1
        assert "re-entrant" in str(errors[0])
        # The guard is released once the outer call returns.
        simulator.run_until(6.0)
        assert simulator.now == 6.0

    def test_run_until_max_events_cap_trips(self, simulator):
        def rearm():
            simulator.schedule(0.0, rearm)

        simulator.schedule(0.0, rearm)
        with pytest.raises(SimulationError, match="exceeded 50 events"):
            simulator.run_until(1.0, max_events=50)
        # The trip releases the re-entrancy guard: a second call trips the
        # cap again rather than reporting a re-entrant run.
        with pytest.raises(SimulationError, match="exceeded 50 events"):
            simulator.run_until(1.0, max_events=50)


class TestTrace:
    def test_log_and_filter(self):
        trace = Trace()
        log = trace.record()
        trace.emit(0.0, "dma", "dma.start", label="x", bytes=8)
        trace.emit(1.0, "soc", "model.swap", model="dusk")
        trace.emit(2.0, "dma", "dma.done", label="x", bytes=8)
        assert log == [
            TraceRecord(0.0, "dma", "start x (8 B)"),
            TraceRecord(1.0, "soc", "vehicle model swap -> dusk"),
            TraceRecord(2.0, "dma", "done x"),
        ]
        assert [r.message for r in log if r.source == "dma"] == ["start x (8 B)", "done x"]

    def test_unbounded_by_default(self):
        trace = Trace()
        log = trace.record()
        for i in range(1000):
            trace.emit(float(i), "src", "model.swap", model=f"m{i}")
        assert len(log) == 1000
        assert log[0].message == "vehicle model swap -> m0"

    def test_log_sees_only_events_after_it_subscribes(self):
        trace = Trace()
        trace.emit(0.0, "soc", "frame.dropped", detector="vehicle", reason="reconfiguring")
        log = trace.record()
        assert log == []
        trace.emit(1.0, "soc", "frame.dropped", detector="vehicle", reason="reconfiguring")
        assert log == [TraceRecord(1.0, "soc", "frame dropped")]

    def test_emit_logs_human_record_without_tracer(self):
        trace = Trace()
        log = trace.record()
        trace.emit(1.0, "pr", "pr.done", bitstream="dark", throughput_mb_s=389.6)
        assert [r.message for r in log] == ["reconfigure -> dark done (390 MB/s)"]

    @pytest.mark.parametrize(
        ("attrs", "message"),
        [
            ({"action": "dma-reset", "detail": "dma0 after aborted frame"},
             "degrade dma-reset: dma0 after aborted frame"),
            ({"action": "pr-rejected", "detail": ""}, "degrade pr-rejected"),
        ],
    )
    def test_degrade_wording_drops_an_empty_detail(self, attrs, message):
        trace = Trace()
        log = trace.record()
        trace.emit(0.0, "soc", "soc.degrade", **attrs)
        assert [r.message for r in log] == [message]

    def test_wording_table_declares_the_vocabulary(self):
        assert EVENT_KINDS == frozenset(EVENT_WORDING)

    def test_unknown_kind_is_rejected(self):
        with pytest.raises(SimulationError, match="soc.mystery"):
            Trace().emit(0.0, "soc", "soc.mystery")

    def test_emit_forwards_typed_event_to_tracer(self):
        from repro.telemetry.spans import Tracer

        tracer = Tracer()
        trace = Trace(tracer=tracer)
        trace.emit(2.0, "pr", "pr.done", bitstream="dark")
        (span,) = tracer.finished_spans("pr.done")
        assert span.start_s == 2.0
        assert span.attrs == {"source": "pr", "bitstream": "dark"}
