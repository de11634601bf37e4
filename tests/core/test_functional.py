"""Tests for repro.core.functional: the algorithmic adaptive detector."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.functional import AdaptiveVehicleDetector, FunctionalConfig
from repro.pipelines import base
from repro.datasets.lighting import (
    DARK_LIGHTING,
    DAY_LIGHTING,
    LightingCondition,
    lighting_for_condition,
)
from repro.datasets.scene import SceneConfig, render_scene
from repro.errors import ConfigurationError, PipelineError
from repro.faults.plan import FaultPlan, FaultSite, FaultSpec
from repro.pipelines.dark import DarkVehicleDetector


@pytest.fixture(scope="module")
def adaptive(condition_models, dark_detector):
    return AdaptiveVehicleDetector(condition_models, dark_detector)


def _frame(condition: LightingCondition, seed: int = 5):
    config = SceneConfig(
        height=120, width=210, n_vehicles=1, vehicle_fill=(0.1, 0.16), seed=seed
    )
    return render_scene(config, lighting_for_condition(condition))


class TestConstruction:
    def test_requires_day_and_dusk_models(self, condition_models, dark_detector):
        with pytest.raises(ConfigurationError):
            AdaptiveVehicleDetector({"day": condition_models["day"]}, dark_detector)

    def test_requires_trained_dark(self, condition_models):
        with pytest.raises(PipelineError):
            AdaptiveVehicleDetector(condition_models, DarkVehicleDetector())


class TestRouting:
    def test_day_routes_to_hog(self, adaptive):
        result = adaptive.process(0.0, 30000.0, _frame(LightingCondition.DAY).rgb)
        assert result.condition is LightingCondition.DAY
        assert "day-dusk" in result.active_pipeline

    def test_dark_routes_to_dbn_pipeline(self, condition_models, dark_detector):
        detector = AdaptiveVehicleDetector(
            condition_models, dark_detector, initial=LightingCondition.DUSK
        )
        # Darkness arrives; after the blind window the dark pipeline runs.
        detector.process(0.0, 1.0, _frame(LightingCondition.DARK).rgb)
        result = detector.process(1.0, 1.0, _frame(LightingCondition.DARK).rgb)
        assert result.condition is LightingCondition.DARK
        assert result.active_pipeline == "vehicle-dark"


class TestSwitching:
    def test_dusk_to_dark_has_blind_window(self, condition_models, dark_detector):
        detector = AdaptiveVehicleDetector(
            condition_models, dark_detector, initial=LightingCondition.DUSK
        )
        dark_rgb = _frame(LightingCondition.DARK).rgb
        # The frame whose lux triggers the PR is served by the outgoing image.
        switch = detector.process(10.0, 1.0, dark_rgb)
        assert switch.condition is LightingCondition.DUSK
        assert not switch.reconfiguring and not switch.degraded
        assert switch.active_pipeline.endswith(":dusk")
        # 20.51 ms of PR is longer than one 20 ms period: the next is blind.
        blind = detector.process(10.02, 1.0, dark_rgb)
        assert blind.condition is LightingCondition.DARK
        assert blind.reconfiguring and blind.detections == []
        assert not blind.degraded
        after = detector.process(10.04, 1.0, dark_rgb)
        assert not after.reconfiguring
        assert after.active_pipeline == "vehicle-dark"
        assert [r.reconfiguring for r in detector.results] == [False, True, False]

    def test_day_dusk_swap_is_free(self, condition_models, dark_detector):
        detector = AdaptiveVehicleDetector(
            condition_models, dark_detector, initial=LightingCondition.DAY
        )
        dusk_rgb = _frame(LightingCondition.DUSK).rgb
        switch = detector.process(5.0, 100.0, dusk_rgb)  # day -> dusk
        assert switch.condition is LightingCondition.DAY
        assert switch.active_pipeline.endswith(":day")
        result = detector.process(5.02, 100.0, dusk_rgb)
        assert result.condition is LightingCondition.DUSK
        assert result.active_pipeline.endswith(":dusk")
        assert not switch.reconfiguring and not result.reconfiguring

    def test_abandoned_reconfiguration_keeps_the_last_good_image(
        self, condition_models, dark_detector
    ):
        # Every dark load stalls past the PR watchdog: once its retries run
        # out the partition stays on day_dusk, and the pixel path with it.
        plan = FaultPlan([FaultSpec(site=FaultSite.PR_STALL, target="dark", magnitude=5.0)])
        detector = AdaptiveVehicleDetector(
            condition_models, dark_detector, initial=LightingCondition.DUSK, fault_plan=plan
        )
        dark_rgb = _frame(LightingCondition.DARK).rgb
        for i in range(75):
            result = detector.process(10.0 + i * 0.02, 1.0, dark_rgb)
        report = detector.system.report
        assert len(report.reconfigurations) == 4
        assert not any(r.ok for r in report.reconfigurations)
        assert report.degradations[-1].kind == "reconfig-abandoned"
        assert result.condition is LightingCondition.DARK
        assert result.active_pipeline.endswith(":dusk")
        assert not result.reconfiguring and not result.degraded

    def test_results_history_accumulates(self, condition_models, dark_detector):
        detector = AdaptiveVehicleDetector(condition_models, dark_detector)
        rgb = _frame(LightingCondition.DAY).rgb
        for i in range(3):
            detector.process(float(i), 30000.0, rgb)
        assert len(detector.results) == 3


class TestEndToEnd:
    def test_dark_frame_detected_by_routed_pipeline(self, condition_models, dark_detector):
        detector = AdaptiveVehicleDetector(
            condition_models, dark_detector, initial=LightingCondition.DARK
        )
        frame = render_scene(
            SceneConfig(height=180, width=330, n_vehicles=1, vehicle_fill=(0.1, 0.16), seed=9),
            DARK_LIGHTING,
        )
        result = detector.process(0.0, 1.0, frame.rgb)
        assert result.condition is LightingCondition.DARK
        assert result.detections
        assert any(d.rect.iou(frame.vehicle_boxes[0]) > 0.2 for d in result.detections)


class TestNonFinitePixels:
    """One NaN or infinite pixel: day/dusk frames degrade, dark frames run."""

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("condition", [LightingCondition.DAY, LightingCondition.DUSK])
    @pytest.mark.parametrize("multiscale", [False, True])
    def test_hog_frame_degrades(
        self, condition_models, dark_detector, monkeypatch, condition, value, multiscale
    ):
        monkeypatch.setattr(base, "_frame_slot", None)
        detector = AdaptiveVehicleDetector(
            condition_models,
            dark_detector,
            config=FunctionalConfig(multiscale=multiscale),
            initial=condition,
        )
        rgb = _frame(condition).rgb.copy()
        rgb[40, 60, 1] = value
        lux = 30000.0 if condition is LightingCondition.DAY else 100.0
        result = detector.process(0.0, lux, rgb)
        assert result.degraded and result.detections == []
        assert sum(r.degraded for r in detector.results) == 1
        clean = detector.process(0.02, lux, _frame(condition).rgb)
        assert not clean.degraded
        assert sum(r.degraded for r in detector.results) == 1

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_dark_frame_runs(self, condition_models, dark_detector, value):
        detector = AdaptiveVehicleDetector(
            condition_models, dark_detector, initial=LightingCondition.DARK
        )
        clean = _frame(LightingCondition.DARK).rgb
        rgb = clean.copy()
        rgb[40, 60, 1] = value
        result = detector.process(0.0, 1.0, rgb)
        assert result.active_pipeline == "vehicle-dark"
        assert not result.degraded
        # The lone pixel sits far from every lamp: the detections stand.
        assert result.detections == dark_detector.detect(clean)
