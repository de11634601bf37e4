"""Differential tests: batched pipeline scans vs per-window references.

For every sliding-window pipeline (day/dusk HOG+SVM, pedestrian HOG+SVM,
dark DBN) one detector is run on the same frames — rendered scenes across
lighting conditions and seeds plus randomised planes — once on its hot
path and once under :func:`~tests.equivalence.references.reference_scans`,
and the detections, scores, and class grids are asserted byte-identical,
not merely close.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets.lighting import LightingCondition, lighting_for_condition
from repro.datasets.scene import SceneConfig, render_scene
from repro.features.hog import HogConfig
from repro.ml.linear import LinearModel
from repro.pipelines import dark, day_dusk, pedestrian
from repro.pipelines.base import scan_windows
from repro.pipelines.dark import DarkStageTrace, DarkVehicleDetector
from repro.pipelines.day_dusk import DayDuskConfig, HogSvmVehicleDetector
from repro.pipelines.pedestrian import PedestrianConfig, PedestrianDetector

from tests.equivalence.references import (
    dbn_grid_reference,
    reference_scans,
    scan_windows_reference,
)

pytestmark = pytest.mark.equivalence


def assert_detections_identical(batched, reference):
    """Detections must match in count, geometry, payload, and score bits."""
    assert len(batched) == len(reference)
    for a, b in zip(batched, reference):
        assert a.rect == b.rect
        assert a.kind == b.kind
        assert a.extra == b.extra
        assert np.float64(a.score).tobytes() == np.float64(b.score).tobytes()


def scene_frame(condition: LightingCondition, seed: int):
    config = SceneConfig(
        height=120, width=210, n_vehicles=2, n_oncoming=1, vehicle_fill=(0.1, 0.2), seed=seed
    )
    return render_scene(config, lighting_for_condition(condition)).rgb


def on_both_paths(obj, method: str, *args, **kwargs):
    """``obj.method(...)`` on the hot path, then under the reference scans.

    The method is looked up at each call, so a patched class attribute
    (``DarkVehicleDetector.dbn_grid``) takes effect.
    """
    hot = getattr(obj, method)(*args, **kwargs)
    with reference_scans():
        return hot, getattr(obj, method)(*args, **kwargs)


def detector(model, threshold: float = 0.0) -> HogSvmVehicleDetector:
    return HogSvmVehicleDetector(DayDuskConfig(decision_threshold=threshold), model)


class TestDayDusk:
    @pytest.mark.parametrize("condition", [LightingCondition.DAY, LightingCondition.DUSK])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_detect_identical_on_scenes(self, condition_models, condition, seed):
        hog = detector(condition_models[condition.value], threshold=-0.25)
        frame = scene_frame(condition, seed)
        assert_detections_identical(*on_both_paths(hog, "detect", frame))

    @pytest.mark.parametrize("seed", [1, 9])
    def test_multiscale_identical(self, condition_models, seed):
        hog = detector(condition_models["day"], threshold=-0.25)
        frame = scene_frame(LightingCondition.DAY, seed)
        assert_detections_identical(*on_both_paths(hog, "detect_multiscale", frame, max_levels=3))

    def test_scan_scores_bitwise(self, condition_models):
        # Below the detection API: the raw scan must agree score by score
        # even for windows no detection survives from.
        from repro.imaging.color import luminance

        hog = detector(condition_models["dusk"], threshold=-np.inf)
        plane = luminance(scene_frame(LightingCondition.DUSK, 3))
        (rects_b, scores_b), (rects_r, scores_r) = on_both_paths(hog, "_scan_plane", plane)
        assert rects_b == rects_r
        assert np.asarray(scores_b).tobytes() == np.asarray(scores_r).tobytes()

    @given(
        h=st.integers(min_value=64, max_value=120),
        w=st.integers(min_value=64, max_value=120),
        seed=st.integers(min_value=0, max_value=99),
    )
    @settings(max_examples=10, deadline=None)
    def test_detect_identical_on_arbitrary_frames(self, h, w, seed):
        rng = np.random.default_rng(seed)
        dim = HogConfig(window=(64, 64)).feature_length
        model = LinearModel(weights=rng.normal(size=dim), bias=0.0)
        hog = detector(model, threshold=-0.5)
        frame = rng.random((h, w, 3))
        assert_detections_identical(*on_both_paths(hog, "detect", frame))

    def test_repeated_frames_give_identical_detections(self, condition_models):
        # A detector carries no state from frame to frame: revisiting a
        # frame after another must reproduce the reference detections.
        hog = detector(condition_models["day"], threshold=-0.25)
        for seed in (0, 1, 0):
            frame = scene_frame(LightingCondition.DAY, seed)
            assert_detections_identical(*on_both_paths(hog, "detect", frame))


class TestPedestrian:
    @pytest.fixture(scope="class")
    def pedestrian_detector(self):
        rng = np.random.default_rng(5)
        dim = HogConfig(window=(64, 32)).feature_length
        model = LinearModel(weights=rng.normal(size=dim), bias=0.05)
        return PedestrianDetector(PedestrianConfig(decision_threshold=-0.3), model)

    @pytest.mark.parametrize("seed", [2, 11, 23])
    def test_detect_identical(self, pedestrian_detector, seed):
        frame = np.random.default_rng(seed).random((96, 160, 3))
        assert_detections_identical(*on_both_paths(pedestrian_detector, "detect", frame))

    def test_detect_identical_on_scene(self, pedestrian_detector):
        frame = scene_frame(LightingCondition.DAY, 4)
        assert_detections_identical(*on_both_paths(pedestrian_detector, "detect", frame))


class TestDark:
    def test_dbn_grid_identical_on_scene(self, dark_detector, dark_frame):
        mask = dark_detector.preprocess(dark_frame.rgb)
        grid_b, grid_r = on_both_paths(dark_detector, "dbn_grid", mask)
        assert grid_b.shape == grid_r.shape
        assert np.array_equal(grid_b, grid_r)

    @pytest.mark.parametrize("seed", [0, 13])
    def test_dbn_grid_identical_on_random_masks(self, dark_detector, seed):
        mask = np.random.default_rng(seed).random((40, 70)) < 0.12
        assert np.array_equal(*on_both_paths(dark_detector, "dbn_grid", mask))

    def test_dbn_grid_chunk_size_irrelevant(self, dark_detector, dark_frame, monkeypatch):
        # The chunked hot path must not depend on DBN_BATCH, only on bytes.
        mask = dark_detector.preprocess(dark_frame.rgb)
        whole = dark_detector.dbn_grid(mask)
        assert np.count_nonzero(whole) > 7  # so chunks of 7 are several
        monkeypatch.setattr(dark, "DBN_BATCH", 7)
        assert np.array_equal(whole, dark_detector.dbn_grid(mask))

    @pytest.mark.parametrize("seed", [99, 101])
    def test_detect_identical_on_scenes(self, dark_detector, seed):
        frame = scene_frame(LightingCondition.DARK, seed)
        assert_detections_identical(*on_both_paths(dark_detector, "detect", frame))

    def test_trace_class_grids_identical(self, dark_detector, dark_frame):
        trace_b, trace_r = DarkStageTrace(), DarkStageTrace()
        dark_detector.detect(dark_frame.rgb, trace=trace_b)
        with reference_scans():
            dark_detector.detect(dark_frame.rgb, trace=trace_r)
        assert np.array_equal(trace_b.class_grid, trace_r.class_grid)
        assert trace_b.pairs == trace_r.pairs


class TestReferenceScans:
    def test_swaps_in_the_oracles_and_restores_the_hot_path(self):
        with reference_scans():
            assert day_dusk.scan_windows is scan_windows_reference
            assert pedestrian.scan_windows is scan_windows_reference
            assert DarkVehicleDetector.dbn_grid is dbn_grid_reference
        assert day_dusk.scan_windows is scan_windows
        assert pedestrian.scan_windows is scan_windows
        assert DarkVehicleDetector.dbn_grid is not dbn_grid_reference
