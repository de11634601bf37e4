"""DriveSpec: plain-data drives, derived seeds, and frame-core digests."""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.core.spec import (
    CHAOS_MODES,
    NONDETERMINISTIC_KEYS,
    PLANE_KEYS,
    TRACE_FACTORIES,
    WALL_KEYS,
    DriveSpec,
    derive_drive_seed,
    frame_core_bytes,
    frame_core_dict,
    frames_digest,
)
from repro.core.system import AdaptiveDetectionSystem, SystemConfig, run_drive_spec
from repro.datasets.lighting import LightingCondition
from repro.errors import ConfigurationError


class TestValidation:
    def test_defaults_are_valid(self):
        spec = DriveSpec()
        assert spec.trace in TRACE_FACTORIES
        assert spec.chaos is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"name": ""},
            {"trace": "motorway"},
            {"duration_s": 0.0},
            {"fps": -1.0},
            {"fault_scenario": "nope"},
            {"initial_condition": "noon"},
            {"sensor_noise_rel": -0.1},
            {"sensor_dropout": 1.0},
            {"chaos": "explode"},
        ],
    )
    def test_bad_fields_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            DriveSpec(**kwargs)

    def test_chaos_modes_are_legal(self):
        for mode in CHAOS_MODES:
            assert DriveSpec(chaos=mode).chaos == mode


class TestWireFormat:
    def test_round_trip(self):
        spec = DriveSpec(name="d1", trace="tunnel", seed=42, fault_scenario="flaky_dma")
        assert DriveSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_keys_rejected(self):
        data = DriveSpec().to_dict()
        data["warp_factor"] = 9
        with pytest.raises(ConfigurationError, match="warp_factor"):
            DriveSpec.from_dict(data)

    def test_picklable(self):
        spec = DriveSpec(name="d2", seed=7)
        assert pickle.loads(pickle.dumps(spec)) == spec


class TestSeeds:
    def test_sensor_seed_is_derived_not_the_root(self):
        spec = DriveSpec(seed=5)
        assert spec.sensor_seed != 5
        assert spec.sensor_seed == DriveSpec(trace="urban", seed=5).sensor_seed

    def test_drive_seeds_distinct_and_stable_under_growth(self):
        seeds_small = [derive_drive_seed(0, i) for i in range(8)]
        seeds_large = [derive_drive_seed(0, i) for i in range(16)]
        assert len(set(seeds_large)) == 16
        assert seeds_large[:8] == seeds_small  # adding drives never reseeds

    def test_fleet_seed_decorrelates(self):
        assert derive_drive_seed(0, 3) != derive_drive_seed(1, 3)


class TestFrameCores:
    def test_core_excludes_span_id(self):
        report = run_drive_spec(DriveSpec(duration_s=1.0))
        core = frame_core_dict(report.frames[0])
        assert "span_id" not in core
        assert core["index"] == 0

    def test_digest_is_order_sensitive(self):
        report = run_drive_spec(DriveSpec(duration_s=1.0))
        assert frames_digest(report.frames) != frames_digest(reversed(report.frames))

    def test_core_bytes_are_canonical(self):
        report = run_drive_spec(DriveSpec(duration_s=1.0))
        raw = frame_core_bytes(report.frames[0])
        assert raw == frame_core_bytes(report.frames[0])
        assert b'"index"' in raw


class TestRunDriveSpec:
    def test_spec_run_matches_hand_built_system(self):
        spec = DriveSpec(
            name="ref", trace="sunset", duration_s=2.0, seed=11, fault_scenario="flaky_dma"
        )
        via_spec = run_drive_spec(spec)

        system = AdaptiveDetectionSystem(
            config=SystemConfig(
                fps=spec.fps,
                initial_condition=LightingCondition(spec.initial_condition),
            ),
            fault_plan=spec.build_fault_plan(),
        )
        trace = spec.build_trace()
        sensor = spec.build_sensor(trace, system.fault_plan)
        by_hand = system.run_drive(trace, duration_s=spec.duration_s, sensor=sensor)

        assert frames_digest(via_spec.frames) == frames_digest(by_hand.frames)
        assert via_spec.summary() == by_hand.summary()

    def test_same_spec_twice_is_byte_identical(self):
        spec = DriveSpec(duration_s=2.0, seed=3, fault_scenario="sensor_blackout")
        first = run_drive_spec(spec)
        second = run_drive_spec(spec)
        assert frames_digest(first.frames) == frames_digest(second.frames)

    def test_observation_does_not_perturb_frames(self):
        # The fleet's non-perturbation pin: telemetry + monitor attached,
        # frame cores stay byte-identical to the bare drive.
        from repro.monitor.session import Monitor, MonitorConfig
        from repro.monitor.slo import SloBudgets
        from repro.telemetry.session import Telemetry

        spec = DriveSpec(duration_s=2.0, seed=9, fault_scenario="flaky_dma")
        bare = run_drive_spec(spec)
        telemetry = Telemetry.recording()
        monitor = Monitor(
            MonitorConfig(budgets=SloBudgets.for_fps(spec.fps), wall_clock_slos=False),
            telemetry=telemetry,
        )
        observed = run_drive_spec(spec, telemetry=telemetry, monitor=monitor)
        assert frames_digest(observed.frames) == frames_digest(bare.frames)

    def test_distinct_seeds_diverge(self):
        base = dict(trace="flicker", duration_s=2.0, sensor_noise_rel=0.2)
        a = run_drive_spec(DriveSpec(seed=1, **base))
        b = run_drive_spec(DriveSpec(seed=2, **base))
        assert frames_digest(a.frames) != frames_digest(b.frames)

    def test_specs_are_immutable(self):
        spec = DriveSpec()
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.seed = 1  # type: ignore[misc]


class TestNonDeterministicFields:
    def test_registry_declares_the_strip_lists_it_replaced(self):
        from repro.analysis.config import LintConfig

        # The names of the eight per-module lists (and the inline
        # scheduling pair) this registry replaced.
        wall_outcome = {"latency_ms", "wall_s", "worker_id", "hang_verdict",
                        "last_heartbeat_age_s"}
        wall_metrics = {"frame_wall_ms", "stage_wall_ms", "frame_deadline_misses_total"}
        wall_rollup = {"latency_ms", "wall"}
        wall_status = {"elapsed_s", "heartbeat_age_s", "last_heartbeat_age_s",
                       "drive_age_s", "drives_per_s", "hang_verdict", "beats", "wall_s"}
        wall_quality = {"suite_wall_s"}
        quality_outcome = quality_rollup = {"quality"}
        quality_metrics = {"quality_frames_scored_total", "quality_tp_total",
                           "quality_fp_total", "quality_fn_total", "detection_iou"}
        scheduling = {"config", "events_by_kind"}
        wall = wall_outcome | wall_metrics | wall_rollup | wall_status | wall_quality
        plane = quality_outcome | quality_metrics | quality_rollup | scheduling
        assert (len(wall), len(plane)) == (15, 8)
        assert WALL_KEYS == wall
        assert PLANE_KEYS == plane
        assert NONDETERMINISTIC_KEYS == wall | plane
        assert LintConfig().wall_strip_keys == WALL_KEYS
