"""Tests for repro.pipelines.day_dusk: HOG+SVM vehicle detection."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.lighting import DAY_LIGHTING
from repro.datasets.scene import SceneConfig, render_scene
from repro.errors import NotTrainedError, PipelineError
from repro.pipelines.day_dusk import DayDuskConfig, HogSvmVehicleDetector
from repro.pipelines.hog_svm import VEHICLE_LEVELS, HogSvmDetector
from repro.pipelines.evaluation import evaluate_crop_classifier


class TestTraining:
    def test_models_have_names(self, condition_models):
        assert condition_models["day"].meta["name"] == "day"
        assert condition_models["dusk"].meta["name"] == "dusk"
        assert condition_models["combined"].meta["name"] == "combined"

    def test_day_model_separates_day_corpus(self, condition_corpora, condition_models):
        detector = HogSvmVehicleDetector().with_model(condition_models["day"])
        counts = evaluate_crop_classifier(detector, condition_corpora.day_test)
        assert counts.accuracy > 0.9

    def test_condition_gap(self, condition_corpora, condition_models):
        """The paper's core premise: models do not transfer across
        conditions — each model is best in its own regime."""
        day_det = HogSvmVehicleDetector().with_model(condition_models["day"])
        dusk_det = HogSvmVehicleDetector().with_model(condition_models["dusk"])
        day_on_day = evaluate_crop_classifier(day_det, condition_corpora.day_test).accuracy
        dusk_on_day = evaluate_crop_classifier(dusk_det, condition_corpora.day_test).accuracy
        assert day_on_day > dusk_on_day + 0.1
        day_on_dusk = evaluate_crop_classifier(day_det, condition_corpora.dusk_test).accuracy
        dusk_on_dusk = evaluate_crop_classifier(dusk_det, condition_corpora.dusk_test).accuracy
        assert dusk_on_dusk > day_on_dusk + 0.1


class TestInference:
    def test_classify_before_train_raises(self):
        detector = HogSvmVehicleDetector()
        with pytest.raises(NotTrainedError):
            detector.classify_crop(np.zeros((64, 64, 3)))

    def test_classify_resizes_foreign_crop(self, condition_models):
        detector = HogSvmVehicleDetector().with_model(condition_models["day"])
        verdict, score = detector.classify_crop(np.random.default_rng(0).random((48, 48, 3)))
        assert isinstance(verdict, bool)
        assert np.isfinite(score)

    def test_detect_rejects_small_frame(self, condition_models):
        detector = HogSvmVehicleDetector().with_model(condition_models["day"])
        with pytest.raises(PipelineError):
            detector.detect(np.zeros((32, 32, 3)))

    def test_detect_finds_vehicle_in_day_scene(self, condition_models):
        detector = HogSvmVehicleDetector().with_model(condition_models["combined"])
        config = SceneConfig(
            height=128, width=192, n_vehicles=1, vehicle_fill=(0.25, 0.3), seed=21
        )
        frame = render_scene(config, DAY_LIGHTING)
        detections = detector.detect(frame.rgb)
        # The dense single-scale scan at least proposes something near the
        # truth when the vehicle matches the window scale.
        assert isinstance(detections, list)
        for det in detections:
            assert det.kind == "vehicle"
            assert det.rect.x2 <= 192 and det.rect.y2 <= 128

    def test_with_model_shares_config(self, condition_models):
        config = DayDuskConfig(decision_threshold=0.5)
        base = HogSvmVehicleDetector(config)
        other = base.with_model(condition_models["day"])
        assert other.config is config
        assert other.model is condition_models["day"]

    def test_decision_threshold_monotone(self, condition_corpora, condition_models):
        """Raising the threshold can only trade TPs for TNs."""
        loose = HogSvmVehicleDetector(DayDuskConfig(decision_threshold=-1.0)).with_model(
            condition_models["day"]
        )
        strict = HogSvmVehicleDetector(DayDuskConfig(decision_threshold=1.0)).with_model(
            condition_models["day"]
        )
        ds = condition_corpora.day_test
        c_loose = evaluate_crop_classifier(loose, ds)
        c_strict = evaluate_crop_classifier(strict, ds)
        assert c_strict.tp <= c_loose.tp
        assert c_strict.tn >= c_loose.tn


class TestMultiscale:
    def test_multiscale_finds_near_vehicle(self, condition_models):
        from repro.datasets.lighting import DAY_LIGHTING
        from repro.datasets.scene import SceneConfig, render_scene

        detector = HogSvmVehicleDetector(DayDuskConfig(levels=VEHICLE_LEVELS))
        detector = detector.with_model(condition_models["day"])
        frame = render_scene(
            SceneConfig(height=240, width=360, n_vehicles=1, vehicle_fill=(0.33, 0.38), seed=77),
            DAY_LIGHTING,
        )
        truth = frame.vehicle_boxes[0]
        multi = detector.detect_multiscale(frame.rgb)
        assert any(d.rect.iou(truth) > 0.4 for d in multi)
        # The single-scale 64x64 window cannot cover the ~130 px vehicle.
        single = HogSvmDetector(model=condition_models["day"]).detect(frame.rgb)
        assert all(d.rect.w == 64 for d in single)

    def test_multiscale_boxes_within_frame(self, condition_models):
        from repro.datasets.lighting import DAY_LIGHTING
        from repro.datasets.scene import SceneConfig, render_scene

        detector = HogSvmVehicleDetector(DayDuskConfig(levels=3), condition_models["day"])
        frame = render_scene(
            SceneConfig(height=160, width=240, n_vehicles=1, seed=5), DAY_LIGHTING
        )
        for det in detector.detect_multiscale(frame.rgb):
            assert det.rect.x >= -1 and det.rect.y >= -1
            assert det.rect.x2 <= 241 and det.rect.y2 <= 161

    def test_max_levels_one_equals_single_scale(self, condition_models):
        from repro.datasets.lighting import DAY_LIGHTING
        from repro.datasets.scene import SceneConfig, render_scene

        frame = render_scene(
            SceneConfig(height=128, width=192, n_vehicles=1, seed=6), DAY_LIGHTING
        )
        single = HogSvmDetector(model=condition_models["day"]).detect(frame.rgb)
        multi1 = HogSvmVehicleDetector(DayDuskConfig(levels=1), condition_models["day"])
        multi1 = multi1.detect_multiscale(frame.rgb)
        assert len(single) == len(multi1)
        for a, b in zip(single, multi1):
            assert a.rect.iou(b.rect) > 0.99
