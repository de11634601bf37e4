"""Differential tests for the pruned HOG+SVM window scan.

``scan_windows`` gathers and scores only the windows whose approximate
margin (summed per-block partial margins) comes within an error bound of
the threshold.  It is pinned here against the full-gather scan kept as the
oracle: every window's descriptor gathered into one matrix, every window
scored, then thresholded.  Rects and score bits must match exactly, with
thresholds placed on and one ulp either side of real window scores, on
hypothesis-drawn models, planes and strides, at thresholds of +-inf, and on
NaN/inf planes, where the scan must fall back to scoring every window.
Spies then hold both learned scans to one batched kernel call per plane
(``decision_batch``) and per chunk (``predict_batch``), never per window.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.features.hog import HogConfig, HogDescriptor
from repro.ml.dbn import DeepBeliefNetwork
from repro.ml.linear import LinearModel
from repro.pipelines import dark
from repro.pipelines.base import scan_windows

pytestmark = pytest.mark.equivalence

CONFIGS = [
    HogConfig(window=(64, 64)),
    HogConfig(window=(64, 32)),
    HogConfig(window=(48, 48), cell_size=6, n_bins=7),
    HogConfig(window=(64, 64), block_size=3, block_stride=2),
]


def oracle_scan(hog, plane, model, stride, threshold):
    """The full-gather scan: gather every window, score every window."""
    blocks, layout = hog.extract_dense(plane)
    grid = layout.window_index_grid(stride)
    if grid.shape[0] == 0:
        return [], []
    scores = model.decision_batch(layout.window_feature_matrix(blocks, stride))
    rects, kept = [], []
    for i in np.flatnonzero(scores > threshold):
        rects.append(layout.window_rect(int(grid[i, 0]), int(grid[i, 1])))
        kept.append(float(scores[i]))
    return rects, kept


def all_scores(hog, plane, model, stride) -> np.ndarray:
    blocks, layout = hog.extract_dense(plane)
    return model.decision_batch(layout.window_feature_matrix(blocks, stride))


def assert_scan_matches(hog, plane, model, stride, threshold):
    rects, scores = scan_windows(hog, plane, model, stride, threshold)
    want_rects, want_scores = oracle_scan(hog, plane, model, stride, threshold)
    assert rects == want_rects
    assert np.asarray(scores, dtype=np.float64).tobytes() == np.asarray(
        want_scores, dtype=np.float64
    ).tobytes()
    return rects


def random_model(config: HogConfig, seed: int, scale: float = 1.0, bias: float = 0.0):
    rng = np.random.default_rng(seed)
    return LinearModel(weights=scale * rng.normal(size=config.feature_length), bias=bias)


def textured_plane(shape, seed: int) -> np.ndarray:
    """Smooth blobs plus noise: HOG blocks with real structure, not white noise."""
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0 : shape[0], 0 : shape[1]]
    plane = 0.5 + 0.2 * np.sin(xx / 7.0 + seed) * np.cos(yy / 5.0)
    return np.clip(plane + 0.1 * rng.random(shape), 0.0, 1.0)


class TestThresholdEdges:
    @pytest.mark.parametrize(
        "config", CONFIGS, ids=lambda c: f"{c.window}-c{c.cell_size}-b{c.block_size}"
    )
    @pytest.mark.parametrize("stride", [1, 2])
    def test_thresholds_on_and_beside_every_score(self, config, stride):
        hog = HogDescriptor(config)
        plane = textured_plane((config.window[0] + 24, config.window[1] + 40), seed=3)
        model = random_model(config, seed=8, bias=0.1)
        scores = all_scores(hog, plane, model, stride)
        assert scores.size > 1
        for score in scores:
            for threshold in (np.nextafter(score, -np.inf), score, np.nextafter(score, np.inf)):
                rects = assert_scan_matches(hog, plane, model, stride, float(threshold))
                # The window scoring exactly ``score`` is kept only strictly above.
                assert len(rects) == int((scores > threshold).sum())

    @pytest.mark.parametrize("threshold", [-np.inf, np.inf])
    def test_infinite_thresholds(self, threshold):
        hog = HogDescriptor()
        plane = textured_plane((100, 150), seed=1)
        model = random_model(hog.config, seed=2)
        rects = assert_scan_matches(hog, plane, model, 2, threshold)
        blocks, layout = hog.extract_dense(plane)
        expected = len(layout.window_positions(2)) if threshold < 0 else 0
        assert len(rects) == expected

    def test_prunes_most_windows_at_a_typical_threshold(self):
        hog = HogDescriptor()
        plane = textured_plane((200, 300), seed=4)
        model = random_model(hog.config, seed=5)
        scores = all_scores(hog, plane, model, 2)
        threshold = float(np.quantile(scores, 0.9))
        blocks, layout = hog.extract_dense(plane)
        picked = layout.candidate_windows(blocks, model.weights, model.bias, threshold, 2)
        assert int((scores > threshold).sum()) <= picked.size < scores.size // 4
        assert_scan_matches(hog, plane, model, 2, threshold)


class TestArbitrary:
    @given(
        config_index=st.integers(min_value=0, max_value=len(CONFIGS) - 1),
        extra_h=st.integers(min_value=0, max_value=70),
        extra_w=st.integers(min_value=0, max_value=70),
        stride=st.integers(min_value=1, max_value=4),
        scale=st.sampled_from([1e-3, 1.0, 1e3]),
        bias=st.floats(min_value=-5.0, max_value=5.0),
        quantile=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_full_gather(
        self, config_index, extra_h, extra_w, stride, scale, bias, quantile, seed
    ):
        config = CONFIGS[config_index]
        hog = HogDescriptor(config)
        rng = np.random.default_rng(seed)
        plane = rng.random((config.window[0] + extra_h, config.window[1] + extra_w))
        if seed % 3 == 0:
            plane = textured_plane(plane.shape, seed)
        model = random_model(config, seed + 1, scale=scale, bias=bias * scale)
        scores = all_scores(hog, plane, model, stride)
        threshold = float(np.quantile(scores, quantile))
        assert_scan_matches(hog, plane, model, stride, threshold)


class TestNonFinite:
    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_infinite_pixel_falls_back_to_every_window(self, value):
        # An infinite pixel gives infinite magnitudes around it, so the
        # blocks it reaches normalise to NaN: every window is scored.
        hog = HogDescriptor()
        plane = textured_plane((120, 180), seed=6)
        plane[50, 70] = value
        model = random_model(hog.config, seed=7)
        blocks, layout = hog.extract_dense(plane)
        assert np.isnan(blocks).any() and not np.isnan(blocks).all()
        picked = layout.candidate_windows(blocks, model.weights, model.bias, 0.0, 1)
        assert picked.tolist() == list(range(len(layout.window_positions(1))))
        for threshold in (-np.inf, -1.0, 0.0, 1.0):
            assert_scan_matches(hog, plane, model, 1, threshold)

    def test_nan_blocks_fall_back_to_every_window(self):
        hog = HogDescriptor()
        blocks, layout = hog.extract_dense(textured_plane((96, 128), seed=2))
        blocks[3, 4, 5] = np.nan
        model = random_model(hog.config, seed=3)
        for stride in (1, 2):
            picked = layout.candidate_windows(blocks, model.weights, model.bias, 0.0, stride)
            assert picked.tolist() == list(range(len(layout.window_positions(stride))))

    def test_nan_weight_scores_every_window_and_keeps_none(self):
        hog = HogDescriptor()
        plane = textured_plane((96, 128), seed=4)
        model = random_model(hog.config, seed=5)
        model.weights[17] = np.nan
        assert assert_scan_matches(hog, plane, model, 1, -np.inf) == []


def spy(monkeypatch, cls, name: str) -> list[int]:
    """Record the row count of every call to ``cls.name``."""
    calls: list[int] = []
    real = getattr(cls, name)

    def recorded(self, data, *args, **kwargs):
        calls.append(len(np.atleast_2d(data)))
        return real(self, data, *args, **kwargs)

    monkeypatch.setattr(cls, name, recorded)
    return calls


class TestStaysBatched:
    """Un-batching a scan keeps every byte, so only a spy sees it."""

    @pytest.mark.parametrize("threshold", [-np.inf, 0.0])
    def test_scan_windows_scores_each_plane_in_one_batch(self, monkeypatch, threshold):
        batches = spy(monkeypatch, LinearModel, "decision_batch")
        singles = spy(monkeypatch, LinearModel, "decision_values")
        hog = HogDescriptor()
        model = random_model(hog.config, seed=8)
        shapes = [(360, 640), (180, 320), (96, 128)]
        for seed, shape in enumerate(shapes):
            scan_windows(hog, textured_plane(shape, seed), model, 2, threshold)
        assert len(batches) == len(shapes)
        assert singles == []

    def test_dbn_grid_classifies_a_frame_in_one_batch(self, dark_detector, monkeypatch):
        batches = spy(monkeypatch, DeepBeliefNetwork, "predict_batch")
        singles = spy(monkeypatch, DeepBeliefNetwork, "predict")
        # A 360x640 frame decimates by 2 to a 180x320 mask: an 86x156 grid.
        # All lit is the worst case, every one of its 13,416 windows occupied.
        dark_detector.dbn_grid(np.ones((180, 320)))
        assert batches == [86 * 156]
        assert singles == []

    def test_dbn_grid_calls_once_per_chunk(self, dark_detector, monkeypatch):
        monkeypatch.setattr(dark, "DBN_BATCH", 7)
        batches = spy(monkeypatch, DeepBeliefNetwork, "predict_batch")
        singles = spy(monkeypatch, DeepBeliefNetwork, "predict")
        dark_detector.dbn_grid(np.ones((40, 70)))  # a 16x31 grid
        assert batches == [7] * (16 * 31 // 7) + [16 * 31 % 7]
        assert singles == []
