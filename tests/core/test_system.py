"""Tests for repro.core.system: the end-to-end adaptive system."""

from __future__ import annotations

import pytest

from repro.adaptive.controller import ControllerConfig
from repro.adaptive.sensor import LightSensor, LuxTrace, sunset_trace, tunnel_trace, urban_evening_trace
from repro.core.system import AdaptiveDetectionSystem, SystemConfig
from repro.datasets.lighting import LightingCondition
from repro.errors import ConfigurationError
from repro.telemetry.session import Telemetry


class TestConfig:
    def test_rejects_bad_fps(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(fps=0.0)

    def test_rejects_bad_sensor_period(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(sensor_period_s=0.0)


class TestSunsetDrive:
    @pytest.fixture(scope="class")
    def report(self):
        system = AdaptiveDetectionSystem()
        return system.run_drive(sunset_trace(duration_s=60.0))

    def test_frame_count(self, report):
        assert report.n_frames == 3000

    def test_one_model_swap_one_reconfig(self, report):
        # day -> dusk (model swap), dusk -> dark (PR).
        assert len(report.model_swaps) == 1
        assert len(report.reconfigurations) == 1

    def test_one_dropped_frame_per_reconfig(self, report):
        # The paper's claim: 20 ms PR = one missed frame at 50 fps.
        assert report.vehicle_dropped == 1
        assert report.drops_per_reconfiguration() == pytest.approx(1.0)

    def test_pedestrian_never_drops(self, report):
        assert report.pedestrian_dropped == 0

    def test_reconfig_time_near_20ms(self, report):
        assert report.reconfigurations[0].duration_s * 1e3 == pytest.approx(20.5, abs=0.5)

    def test_frames_annotated_with_condition(self, report):
        conditions = {f.condition for f in report.frames}
        assert conditions == {
            LightingCondition.DAY,
            LightingCondition.DUSK,
            LightingCondition.DARK,
        }

    def test_reconfiguring_flag_matches_drops(self, report):
        for frame in report.frames:
            if not frame.vehicle_accepted:
                assert frame.reconfiguring


class TestTunnelDrive:
    def test_tunnel_needs_no_reconfiguration(self):
        # "entering the tunnel is simply handled by the transition between
        # day and dusk" — two model swaps, zero PRs, zero drops.
        system = AdaptiveDetectionSystem()
        report = system.run_drive(tunnel_trace(duration_s=40.0))
        assert len(report.reconfigurations) == 0
        assert len(report.model_swaps) == 2
        assert report.vehicle_dropped == 0


class TestUrbanDrive:
    def test_multiple_reconfigurations(self):
        system = AdaptiveDetectionSystem()
        report = system.run_drive(urban_evening_trace(duration_s=120.0))
        assert len(report.reconfigurations) >= 2
        assert report.vehicle_dropped == len(report.reconfigurations)
        assert report.pedestrian_dropped == 0

    def test_summary_structure(self):
        system = AdaptiveDetectionSystem()
        report = system.run_drive(urban_evening_trace(duration_s=30.0))
        summary = report.summary()
        assert summary["frames"] == 1500
        assert "drops_per_reconfiguration" in summary


class TestInitialCondition:
    """The vehicle partition boots in the image and model its condition needs."""

    def _drive(
        self, initial: LightingCondition, points, duration_s: float = 1.0, telemetry=None
    ):
        system = AdaptiveDetectionSystem(
            SystemConfig(initial_condition=initial), telemetry=telemetry
        )
        trace = LuxTrace(points=points)
        sensor = LightSensor(trace, noise_rel=0.0)
        report = system.run_drive(trace, duration_s=duration_s, sensor=sensor)
        return system, report

    def test_dark_start_runs_dark_without_a_switch(self):
        system, report = self._drive(LightingCondition.DARK, ((0.0, 0.8), (1.0, 0.8)))
        assert report.n_frames == 50
        assert report.frames_degraded == 0
        assert report.reconfigurations == [] and report.condition_changes == []
        assert {f.vehicle_configuration for f in report.frames} == {"dark"}
        assert report.vehicle_dropped == 0

    def test_dusk_start_selects_the_dusk_model(self):
        system, report = self._drive(LightingCondition.DUSK, ((0.0, 100.0), (1.0, 100.0)))
        assert system.soc.vehicle_model == "dusk"
        assert report.frames_degraded == 0 and report.model_swaps == []
        assert {f.vehicle_configuration for f in report.frames} == {"day_dusk"}

    def test_dark_start_into_dusk_selects_the_dusk_model_untraced(self):
        # The tracer records from construction on, power-on included.
        telemetry = Telemetry.recording()
        system, report = self._drive(
            LightingCondition.DARK,
            ((0.0, 0.8), (0.5, 0.8), (0.52, 100.0), (2.0, 100.0)),
            2.0,
            telemetry,
        )
        assert [r.bitstream for r in report.reconfigurations if r.ok] == ["day_dusk"]
        assert system.soc.vehicle_model == "dusk"
        assert report.model_swaps == [] and report.frames_degraded == 0
        names = {span.name for span in telemetry.tracer.spans}
        names.update(event.name for span in telemetry.tracer.spans for event in span.events)
        assert "pr.done" in names and "model.swap" not in names


class TestChangeDuringReconfiguration:
    """A switch that lands while the partition reconfigures is not lost."""

    def test_dip_shorter_than_a_reconfiguration_ends_on_day_dusk(self):
        # No dwell and a 10 ms sensor: dusk -> dark starts the 20.5 ms load
        # of the dark image, and dark -> dusk arrives 10 ms into it.
        config = SystemConfig(
            controller=ControllerConfig(min_dwell_s=0.0),
            sensor_period_s=0.01,
            initial_condition=LightingCondition.DUSK,
        )
        system = AdaptiveDetectionSystem(config)
        trace = LuxTrace(
            points=((0.0, 20.0), (0.1, 20.0), (0.101, 0.8), (0.11, 0.8), (0.111, 20.0), (2.0, 20.0))
        )
        report = system.run_drive(trace, duration_s=2.0, sensor=LightSensor(trace, noise_rel=0.0))
        assert [c.new for c in report.condition_changes] == [
            LightingCondition.DARK,
            LightingCondition.DUSK,
        ]
        assert [r.bitstream for r in report.reconfigurations if r.ok] == ["dark", "day_dusk"]
        assert system.controller.condition is LightingCondition.DUSK
        assert system.soc.vehicle.configuration == "day_dusk"
        assert system.soc.vehicle_model == "dusk"
        assert report.frames[-1].vehicle_configuration == "day_dusk"


class TestEdgeCases:
    def test_rejects_zero_duration(self):
        system = AdaptiveDetectionSystem()
        with pytest.raises(ConfigurationError):
            system.run_drive(sunset_trace(10.0), duration_s=0.0)

    def test_constant_lux_no_changes(self):
        system = AdaptiveDetectionSystem()
        trace = LuxTrace(points=((0.0, 20000.0), (10.0, 20000.0)))
        report = system.run_drive(trace, duration_s=5.0)
        assert report.condition_changes == []
        assert report.vehicle_dropped == 0

    def test_noisy_sensor_near_boundary_no_storm(self):
        # Hysteresis + dwell keep PR count low even with a noisy sensor
        # hugging the dusk/dark boundary.
        system = AdaptiveDetectionSystem(
            SystemConfig(initial_condition=LightingCondition.DUSK)
        )
        trace = LuxTrace(points=((0.0, 5.2), (30.0, 4.8)))
        sensor = LightSensor(trace, noise_rel=0.1, seed=5)
        report = system.run_drive(trace, duration_s=30.0, sensor=sensor)
        assert len(report.reconfigurations) <= 2
