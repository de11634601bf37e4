"""Monitor session wiring: events, triggers, metrics, and the null default."""

from __future__ import annotations

import pytest

from repro.adaptive.sensor import LightSensor, sunset_trace
from repro.core.system import AdaptiveDetectionSystem
from repro.errors import MonitoringError
from repro.faults.scenarios import get_scenario
from repro.monitor.events import MONITOR_EVENT_KINDS
from repro.monitor.session import NULL_MONITOR, Monitor, MonitorConfig, NullMonitor
from repro.telemetry.session import Telemetry

pytestmark = pytest.mark.monitor

DURATION_S = 12.0


def run_monitored(monitor: Monitor, scenario: str | None = "flaky_dma", **system_kw):
    trace = sunset_trace(duration_s=DURATION_S)
    plan = get_scenario(scenario, DURATION_S) if scenario else None
    system = AdaptiveDetectionSystem(fault_plan=plan, monitor=monitor, **system_kw)
    sensor = LightSensor(trace, noise_rel=0.03, seed=7, faults=plan)
    return system.run_drive(trace, duration_s=DURATION_S, sensor=sensor)


class TestNullMonitor:
    def test_null_monitor_is_disabled_and_inert(self):
        assert NULL_MONITOR.enabled is False
        assert isinstance(NULL_MONITOR, NullMonitor)
        NULL_MONITOR.observe_frame(None, "day_dusk")
        NULL_MONITOR.emit_event("anything-goes", 0.0)  # reprolint: skip=event-vocabulary
        NULL_MONITOR.finish_drive()
        assert NULL_MONITOR.summary() == {}

    def test_unmonitored_system_uses_the_shared_null(self):
        system = AdaptiveDetectionSystem()
        assert system.monitor is NULL_MONITOR
        assert system.report.monitor is None


class TestEvents:
    def test_emit_event_rejects_unknown_kinds(self):
        monitor = Monitor()
        with pytest.raises(MonitoringError, match="vocabulary"):
            monitor.emit_event("monitor.bogus", 0.0)  # reprolint: skip=event-vocabulary

    def test_every_declared_kind_is_accepted(self):
        monitor = Monitor()
        for kind in MONITOR_EVENT_KINDS:
            monitor.emit_event(kind, 0.0)  # reprolint: skip=event-vocabulary
        assert {e["kind"] for e in monitor.events} == set(MONITOR_EVENT_KINDS)

    def test_observe_frame_requires_begin_drive(self):
        with pytest.raises(MonitoringError, match="begin_drive"):
            Monitor().observe_frame(None, "day_dusk")

    def test_double_begin_drive_is_rejected(self):
        monitor = Monitor()
        run_monitored(monitor, scenario=None)
        # finish_drive() detached cleanly; a second drive is fine...
        run_monitored(monitor, scenario=None)
        # ...but attaching while attached is not.
        system = AdaptiveDetectionSystem(monitor=monitor)
        trace = sunset_trace(duration_s=1.0)
        sensor = LightSensor(trace, noise_rel=0.03, seed=1)
        monitor.begin_drive(system, trace, sensor, 1.0, 50)
        with pytest.raises(MonitoringError, match="already attached"):
            monitor.begin_drive(system, trace, sensor, 1.0, 50)


class TestTriggers:
    def test_faults_trigger_incidents(self):
        monitor = Monitor()
        run_monitored(monitor)
        assert monitor.triggers, "flaky_dma should fire at least one trigger"
        assert all(t.kind == "fault" for t in monitor.triggers)
        assert monitor.recorder.incidents
        summary = monitor.summary()
        assert summary["incidents"] == len(monitor.recorder.incidents)
        assert summary["bundles"] == []  # in-memory monitor writes nothing

    def test_trigger_on_fault_can_be_disabled(self):
        monitor = Monitor(MonitorConfig(trigger_on_fault=False))
        run_monitored(monitor)
        assert monitor.triggers == []
        assert monitor.recorder.incidents == []

    @pytest.mark.parametrize("post_roll", [0, 16, 100_000], ids=["trigger", "push", "flush"])
    def test_every_closed_window_is_reported_once(self, post_roll):
        # A window closes in trigger() (no post-roll), in push() (post-roll
        # complete) or in flush() (drive over first); each one reaches the
        # monitor's incident event exactly once, right where it closed.
        monitor = Monitor(MonitorConfig(post_roll=post_roll, cooldown_frames=0))
        run_monitored(monitor)
        kinds = [e["kind"] for e in monitor.events]
        assert monitor.recorder.incidents
        assert kinds.count("monitor.incident") == len(monitor.recorder.incidents)
        if post_roll == 0:
            first = kinds.index("monitor.incident")
            assert kinds[first + 1] == "monitor.trigger"
        if post_roll == 100_000:
            assert len(monitor.recorder.incidents) == 1
            assert kinds[-1] == "monitor.incident"

    def test_listeners_detach_after_the_drive(self):
        monitor = Monitor()
        trace = sunset_trace(duration_s=DURATION_S)
        plan = get_scenario("flaky_dma", DURATION_S)
        system = AdaptiveDetectionSystem(fault_plan=plan, monitor=monitor)
        system.run_drive(trace, duration_s=DURATION_S)
        assert plan.listeners == []
        assert system.soc.trace.listeners == []


class TestDriveLoopMetrics:
    def test_frame_deadline_misses_counted_with_slow_wall_clock(self):
        # Every injected wall tick is 50 ms, so every 20 ms frame misses.
        wall = {"now": 0.0}

        def wall_clock() -> float:
            wall["now"] += 0.05
            return wall["now"]

        telemetry = Telemetry.recording(wall_clock=wall_clock)
        monitor = Monitor(telemetry=telemetry)
        report = run_monitored(monitor, scenario=None, telemetry=telemetry)
        n_frames = len(report.frames)
        assert telemetry.counter("frame_deadline_misses_total").value == n_frames
        assert telemetry.histogram("frame_wall_ms").count == n_frames
        # The health monitor saw the same overruns.
        assert monitor.health.summary()["violations_by_slo"]["frame-deadline"] == n_frames

    def test_metrics_only_drive_times_frames_without_spans(self):
        wall = {"now": 0.0}

        def wall_clock() -> float:
            wall["now"] += 0.05
            return wall["now"]

        telemetry = Telemetry.metrics_only()
        telemetry.tracer.wall_clock = wall_clock
        monitor = Monitor(telemetry=telemetry)
        report = run_monitored(monitor, scenario=None, telemetry=telemetry)
        n_frames = len(report.frames)
        assert telemetry.counter("frame_deadline_misses_total").value == n_frames
        assert telemetry.histogram("frame_wall_ms").mean == pytest.approx(50.0)
        assert {frame.span_id for frame in report.frames} == {None}
        assert monitor.health.summary()["violations_by_slo"]["frame-deadline"] == n_frames

    def test_fast_wall_clock_misses_nothing(self):
        telemetry = Telemetry.recording(wall_clock=lambda: 0.0)
        system = AdaptiveDetectionSystem(telemetry=telemetry)
        trace = sunset_trace(duration_s=2.0)
        system.run_drive(trace, duration_s=2.0)
        assert telemetry.counter("frame_deadline_misses_total").value == 0
        assert telemetry.histogram("frame_wall_ms").count == len(system.report.frames)

    def test_monitor_rides_the_drives_telemetry_session(self):
        telemetry = Telemetry.recording(wall_clock=lambda: 0.0)
        monitor = Monitor()
        run_monitored(monitor, telemetry=telemetry)
        assert monitor.telemetry is telemetry
        assert telemetry.counter("monitor_triggers_total", kind="fault").value > 0
