"""Tests for repro.features.hog: config, histograms, normalisation, dense."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import FeatureError
from repro.features.hog import (
    DenseHogLayout,
    HogConfig,
    HogDescriptor,
    cell_histograms,
    normalize_block,
    normalize_blocks,
)


class TestHogConfig:
    def test_default_shapes(self):
        cfg = HogConfig()
        assert cfg.cells_shape == (8, 8)
        assert cfg.blocks_shape == (7, 7)
        assert cfg.block_length == 36
        assert cfg.feature_length == 7 * 7 * 36

    def test_pedestrian_window(self):
        cfg = HogConfig(window=(64, 32))
        assert cfg.cells_shape == (8, 4)
        assert cfg.blocks_shape == (7, 3)
        assert cfg.feature_length == 7 * 3 * 36

    def test_rejects_misaligned_window(self):
        with pytest.raises(FeatureError):
            HogConfig(window=(60, 64))

    def test_rejects_block_larger_than_window(self):
        with pytest.raises(FeatureError):
            HogConfig(window=(16, 16), cell_size=8, block_size=3)

    def test_rejects_bad_bins(self):
        with pytest.raises(FeatureError):
            HogConfig(n_bins=1)


class TestCellHistograms:
    def test_shape(self):
        cfg = HogConfig()
        hist = cell_histograms(np.random.default_rng(0).random((64, 64)), cfg)
        assert hist.shape == (8, 8, 9)

    def test_rejects_wrong_size(self):
        cfg = HogConfig()
        with pytest.raises(FeatureError):
            cell_histograms(np.zeros((32, 32)), cfg)

    def test_total_mass_equals_gradient_mass(self):
        from repro.features.gradients import gradient_field

        cfg = HogConfig()
        img = np.random.default_rng(1).random((64, 64))
        hist = cell_histograms(img, cfg)
        field = gradient_field(img)
        assert hist.sum() == pytest.approx(field.magnitude.sum())

    def test_constant_image_empty_histograms(self):
        hist = cell_histograms(np.full((64, 64), 0.3), HogConfig())
        assert np.allclose(hist, 0.0)


class TestNormalize:
    def test_unit_norm_output(self):
        rng = np.random.default_rng(2)
        vec = normalize_block(rng.random(36))
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-3)

    def test_clipping_applied(self):
        block = np.zeros(36)
        block[0] = 100.0
        vec = normalize_block(block, clip=0.2)
        assert vec.max() <= 0.2 / 0.2 + 1e-9  # renormalised after clip
        # a one-hot block clips then renormalises to exactly 1 at that slot
        assert vec[0] == pytest.approx(1.0, abs=1e-3)

    def test_zero_block_stays_finite(self):
        vec = normalize_block(np.zeros(36))
        assert np.all(np.isfinite(vec))

    @settings(max_examples=30)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_scale_invariance(self, seed):
        rng = np.random.default_rng(seed)
        block = rng.random(36) + 0.01
        a = normalize_block(block)
        b = normalize_block(block * 7.3)
        assert np.allclose(a, b, atol=1e-4)

    def test_blocks_shape(self):
        cfg = HogConfig()
        cells = np.random.default_rng(3).random((8, 8, 9))
        blocks = normalize_blocks(cells, cfg)
        assert blocks.shape == (7, 7, 36)

    def test_blocks_rejects_wrong_bins(self):
        with pytest.raises(FeatureError):
            normalize_blocks(np.zeros((8, 8, 5)), HogConfig())


class TestDescriptor:
    def test_feature_length(self):
        hog = HogDescriptor()
        feat = hog.extract(np.random.default_rng(4).random((64, 64)))
        assert feat.shape == (hog.feature_length,)

    def test_deterministic(self):
        hog = HogDescriptor()
        img = np.random.default_rng(5).random((64, 64))
        assert np.array_equal(hog.extract(img), hog.extract(img))

    def test_brightness_shift_invariance(self):
        # Gradients ignore constant offsets entirely.
        hog = HogDescriptor()
        img = np.random.default_rng(6).random((64, 64)) * 0.5
        shifted = img + 0.3
        assert np.allclose(hog.extract(img), hog.extract(shifted), atol=1e-9)

    def test_contrast_scale_near_invariance(self):
        hog = HogDescriptor()
        img = np.random.default_rng(7).random((64, 64))
        a = hog.extract(img)
        b = hog.extract(img * 0.5)
        assert np.allclose(a, b, atol=1e-3)

    def test_dense_of_one_window_matches_extract_exactly(self):
        # The dense path over a window-sized plane must be bitwise equal to
        # the per-window descriptor — exact, not approx (the equivalence
        # suite's byte-identity claim starts here).
        hog = HogDescriptor()
        window = np.random.default_rng(8).random((64, 64))
        blocks, _ = hog.extract_dense(window)
        assert blocks.tobytes() == hog.extract(window).tobytes()

    def test_dense_of_one_pedestrian_window_matches_extract(self):
        hog = HogDescriptor(HogConfig(window=(64, 32)))
        window = np.random.default_rng(18).random((64, 32))
        blocks, _ = hog.extract_dense(window)
        assert blocks.tobytes() == hog.extract(window).tobytes()


class TestDense:
    def test_dense_window_matches_direct_extraction(self):
        hog = HogDescriptor()
        rng = np.random.default_rng(9)
        frame = rng.random((96, 128))
        blocks, layout = hog.extract_dense(frame)
        # Window at block origin (0, 0) covers pixels [0:64, 0:64]; its
        # cell histograms match the per-window path, though border-pixel
        # gradients differ (dense sees neighbours).  Compare interior-safe
        # windows via detection scores instead: both paths produce the same
        # feature for the same content away from borders.
        feat_dense = layout.window_feature(blocks, 0, 0)
        assert feat_dense.shape == (hog.feature_length,)

    def test_dense_positions_cover_frame(self):
        hog = HogDescriptor()
        frame = np.zeros((96, 128))
        blocks, layout = hog.extract_dense(frame)
        positions = layout.window_positions(1)
        # frame blocks: rows (96/8 - 1) = 11, cols 15; window blocks 7x7
        assert blocks.shape[:2] == (11, 15)
        assert len(positions) == (11 - 7 + 1) * (15 - 7 + 1)

    def test_dense_rejects_small_frame(self):
        with pytest.raises(FeatureError):
            HogDescriptor().extract_dense(np.zeros((32, 32)))

    def test_window_rect_geometry(self):
        layout = DenseHogLayout(HogConfig(), 11, 15)
        rect = layout.window_rect(2, 3)
        assert (rect.x, rect.y, rect.w, rect.h) == (24.0, 16.0, 64.0, 64.0)

    def test_window_feature_out_of_range(self):
        hog = HogDescriptor()
        blocks, layout = hog.extract_dense(np.zeros((96, 128)))
        with pytest.raises(FeatureError):
            layout.window_feature(blocks, 10, 10)

    @pytest.mark.parametrize("stride", [1, 2, 3])
    def test_feature_matrix_matches_per_window_slices(self, stride):
        hog = HogDescriptor()
        rng = np.random.default_rng(21)
        blocks, layout = hog.extract_dense(rng.random((96, 128)))
        matrix = layout.window_feature_matrix(blocks, cell_stride=stride)
        positions = layout.window_positions(stride)
        assert matrix.shape == (len(positions), hog.feature_length)
        for i, (r, c) in enumerate(positions):
            assert matrix[i].tobytes() == layout.window_feature(blocks, r, c).tobytes()

    def test_index_grid_matches_positions(self):
        layout = DenseHogLayout(HogConfig(), 11, 15)
        for stride in (1, 2, 4):
            grid = layout.window_index_grid(stride)
            assert [tuple(row) for row in grid] == layout.window_positions(stride)

    def test_feature_matrix_reuses_out_buffer(self):
        hog = HogDescriptor()
        blocks, layout = hog.extract_dense(np.random.default_rng(22).random((96, 128)))
        n = len(layout.window_positions(2))
        buf = np.empty((n, hog.feature_length))
        result = layout.window_feature_matrix(blocks, cell_stride=2, out=buf)
        assert result is buf

    def test_feature_matrix_rejects_bad_out_buffer(self):
        hog = HogDescriptor()
        blocks, layout = hog.extract_dense(np.zeros((96, 128)))
        with pytest.raises(FeatureError):
            layout.window_feature_matrix(blocks, out=np.empty((1, 1)))

    def test_feature_matrix_rejects_mismatched_blocks(self):
        layout = DenseHogLayout(HogConfig(), 11, 15)
        with pytest.raises(FeatureError):
            layout.window_feature_matrix(np.zeros((3, 3, 36)))
