"""Tests for repro.pipelines.hog_svm: one HOG+SVM detector for both partitions."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.lighting import DAY_LIGHTING
from repro.datasets.scene import SceneConfig, render_scene
from repro.errors import ConfigurationError, PipelineError
from repro.features.hog import HogConfig
from repro.ml.linear import LinearModel
from repro.pipelines.day_dusk import DayDuskConfig, HogSvmVehicleDetector
from repro.pipelines.hog_svm import VEHICLE_LEVELS, HogSvmConfig, HogSvmDetector
from repro.pipelines.pedestrian import PedestrianDetector
from repro.telemetry import Telemetry


@pytest.fixture(scope="module")
def day_frame():
    config = SceneConfig(
        height=160, width=256, n_vehicles=2, n_pedestrians=1, vehicle_fill=(0.2, 0.3), seed=3
    )
    return render_scene(config, DAY_LIGHTING).rgb


def pyramid_vehicle(condition_models, telemetry=None) -> HogSvmVehicleDetector:
    config = DayDuskConfig(decision_threshold=-0.5, levels=VEHICLE_LEVELS)
    return HogSvmVehicleDetector(config, condition_models["day"], telemetry=telemetry)


def random_pedestrian(telemetry=None) -> PedestrianDetector:
    rng = np.random.default_rng(5)
    model = LinearModel(weights=rng.normal(size=HogConfig(window=(64, 32)).feature_length), bias=0.0)
    config = HogSvmConfig(kind="pedestrian", decision_threshold=-0.5)
    return PedestrianDetector(config, model, telemetry=telemetry)


def detection_bytes(detections) -> list[tuple]:
    return [(d.kind, d.rect, np.float64(d.score).tobytes()) for d in detections]


def detections_histograms(telemetry: Telemetry) -> dict[str, int]:
    return {
        series.labels["detector"]: series.count
        for series in telemetry.metrics.series()
        if series.name == "detections_per_frame"
    }


class TestConfig:
    def test_kinds_set_window_name_and_label(self):
        vehicle, walker = HogSvmDetector(), PedestrianDetector()
        assert (vehicle.config.kind, vehicle.name) == ("vehicle", "vehicle-day-dusk")
        assert vehicle.config.hog.window == (64, 64)
        assert (walker.config.kind, walker.name) == ("pedestrian", "pedestrian")
        assert walker.config.hog.window == (64, 32)

    def test_day_dusk_config_is_the_vehicle_config(self):
        assert DayDuskConfig(decision_threshold=1.0) == HogSvmConfig(decision_threshold=1.0)

    @pytest.mark.parametrize("kwargs", [{"kind": "cyclist"}, {"levels": 0}])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigurationError):
            HogSvmConfig(**kwargs)

    def test_with_model_keeps_the_class(self):
        walker = random_pedestrian()
        other = walker.with_model(walker.model)
        assert type(other) is PedestrianDetector and other.config is walker.config


class TestPyramid:
    def test_rejects_a_frame_smaller_than_the_window(self, condition_models):
        with pytest.raises(PipelineError):
            pyramid_vehicle(condition_models).detect(np.zeros((48, 200, 3)))


class TestTelemetry:
    def test_pyramid_call_emits_stages_and_histogram(self, condition_models, day_frame):
        telemetry = Telemetry.recording()
        pyramid_vehicle(condition_models, telemetry).detect_multiscale(day_frame)
        for stage in ("day_dusk.hog_scan", "day_dusk.nms"):
            assert len(telemetry.tracer.finished_spans(stage)) == 1
        assert detections_histograms(telemetry) == {"vehicle-day-dusk": 1}

    def test_pedestrian_call_emits_its_own_stages(self, day_frame):
        telemetry = Telemetry.recording()
        random_pedestrian(telemetry).detect(day_frame)
        for stage in ("pedestrian.hog_scan", "pedestrian.nms"):
            assert len(telemetry.tracer.finished_spans(stage)) == 1
        assert detections_histograms(telemetry) == {"pedestrian": 1}

    def test_detections_byte_equal_with_telemetry_on_and_off(self, condition_models, day_frame):
        for build in (lambda t: pyramid_vehicle(condition_models, t), random_pedestrian):
            off = build(None).detect(day_frame)
            on = build(Telemetry.recording()).detect(day_frame)
            assert off and detection_bytes(on) == detection_bytes(off)
