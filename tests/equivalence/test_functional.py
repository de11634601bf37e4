"""Differential tests: the full adaptive detector, batched vs reference.

A seeded drive crosses day -> dusk -> dark; two identical
AdaptiveVehicleDetector instances share the same trained models, and one
drives under :func:`~tests.equivalence.references.reference_scans`.  Every
FrameResult — condition, active pipeline, reconfiguration state, and each
detection down to its score bits — must be identical.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.functional import AdaptiveVehicleDetector, FunctionalConfig
from repro.datasets.lighting import LightingCondition, lighting_for_condition
from repro.datasets.scene import SceneConfig, render_scene

from tests.equivalence.references import reference_scans
from tests.equivalence.test_pipelines import assert_detections_identical

pytestmark = pytest.mark.equivalence

# (time_s, lux, lighting) samples walking the controller through all three
# conditions, including the dusk<->dark partial-reconfiguration windows.
DRIVE = [
    (0.0, 30000.0, LightingCondition.DAY),
    (1.0, 30000.0, LightingCondition.DAY),
    (2.0, 400.0, LightingCondition.DUSK),
    (5.0, 400.0, LightingCondition.DUSK),
    (8.0, 1.0, LightingCondition.DARK),
    (11.0, 1.0, LightingCondition.DARK),
    (14.0, 1.0, LightingCondition.DARK),
    (17.0, 400.0, LightingCondition.DUSK),
    (20.0, 30000.0, LightingCondition.DAY),
]


def drive_frames(seed: int):
    frames = []
    for i, (time_s, lux, condition) in enumerate(DRIVE):
        config = SceneConfig(
            height=120,
            width=210,
            n_vehicles=2,
            n_oncoming=1,
            vehicle_fill=(0.1, 0.2),
            seed=seed * 100 + i,
        )
        frames.append((time_s, lux, render_scene(config, lighting_for_condition(condition)).rgb))
    return frames


def drive_both_paths(make_detector, frames):
    """Two fresh detectors after one drive: on the hot path, on the reference scans."""
    hot, reference = make_detector(), make_detector()
    for time_s, lux, frame in frames:
        hot.process(time_s, lux, frame)
    with reference_scans():
        for time_s, lux, frame in frames:
            reference.process(time_s, lux, frame)
    return hot, reference


def assert_frame_results_identical(a, b):
    assert a.time_s == b.time_s
    assert a.condition is b.condition
    assert a.active_pipeline == b.active_pipeline
    assert a.reconfiguring == b.reconfiguring
    assert a.degraded == b.degraded
    assert_detections_identical(a.detections, b.detections)


class TestAdaptiveDrive:
    @pytest.mark.parametrize("seed", [0, 5])
    def test_frame_records_identical_across_conditions(
        self, condition_models, dark_detector, seed
    ):
        hot, reference = drive_both_paths(
            lambda: AdaptiveVehicleDetector(condition_models, dark_detector), drive_frames(seed)
        )
        assert len(hot.results) == len(reference.results) == len(DRIVE)
        for result_b, result_r in zip(hot.results, reference.results):
            assert_frame_results_identical(result_b, result_r)

    def test_multiscale_drive_identical(self, condition_models, dark_detector):
        config = FunctionalConfig(multiscale=True)
        hot, reference = drive_both_paths(
            lambda: AdaptiveVehicleDetector(condition_models, dark_detector, config=config),
            drive_frames(3)[:4],  # day + dusk levels
        )
        assert len(hot.results) == len(reference.results) == 4
        for result_b, result_r in zip(hot.results, reference.results):
            assert_frame_results_identical(result_b, result_r)
