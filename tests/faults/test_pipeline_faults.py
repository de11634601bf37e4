"""Pipeline injection site: detector exceptions and fail-safe degradation."""

from __future__ import annotations

import pytest

from repro.core.functional import AdaptiveVehicleDetector
from repro.datasets.lighting import LightingCondition, lighting_for_condition
from repro.datasets.scene import SceneConfig, render_scene
from repro.errors import PipelineError
from repro.faults.plan import FaultPlan, FaultSite, FaultSpec

pytestmark = pytest.mark.faults


def _frame(condition: LightingCondition, seed: int = 5):
    config = SceneConfig(
        height=120, width=210, n_vehicles=1, vehicle_fill=(0.1, 0.16), seed=seed
    )
    return render_scene(config, lighting_for_condition(condition)).rgb


def _burst_plan(start_s: float, end_s: float, firings: int | None = None) -> FaultPlan:
    return FaultPlan(
        [FaultSpec(
            site=FaultSite.PIPELINE_EXCEPTION,
            target="vehicle",
            start_s=start_s,
            end_s=end_s,
            max_firings=firings,
        )]
    )


class TestFunctionalDegradation:
    def test_injected_exception_degrades_not_crashes(self, condition_models, dark_detector):
        plan = _burst_plan(0.1, 0.3, firings=1)
        detector = AdaptiveVehicleDetector(condition_models, dark_detector, fault_plan=plan)
        frame = _frame(LightingCondition.DAY)
        ok = detector.process(0.0, 30000.0, frame)
        hit = detector.process(0.2, 30000.0, frame)
        recovered = detector.process(0.4, 30000.0, frame)
        assert not ok.degraded
        assert hit.degraded and hit.detections == []
        assert not recovered.degraded
        assert detector.degraded_frames == 1

    def test_real_pipeline_error_also_degrades(self, condition_models, dark_detector):
        detector = AdaptiveVehicleDetector(condition_models, dark_detector)
        # Feed garbage that makes the pipeline raise internally.
        class Boom:
            name = "boom"

            def detect(self, frame):
                raise PipelineError("synthetic crash")

            def classify_crop(self, crop):
                raise PipelineError("synthetic crash")

        detector._hog["day"] = Boom()
        result = detector.process(0.0, 30000.0, _frame(LightingCondition.DAY))
        assert result.degraded
        assert result.detections == []
