"""Differential tests for the HOG feature paths.

The dense front end — gradient field, orientation binning, cell-histogram
scatter — is pinned against a straightforward oracle kept here: replicate
padding, ``np.hypot``, ``np.mod`` folds and ``np.add.at``.  Orientation and
histograms must match it bit for bit; the magnitude, computed as
``sqrt(gx*gx + gy*gy)`` like the paper's gradient unit, within one ulp.
Every stacked or batched stage of the descriptor — gradient stack,
histogram scatter, block normalisation, dense gather — is compared byte for
byte against the single-window code, across window shapes and HOG layouts.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.features.gradients import GradientField, gradient_field, orientation_bins
from repro.features.hog import (
    HogConfig,
    HogDescriptor,
    cell_histograms,
    cell_histograms_from_field,
    normalize_block,
    normalize_block_rows,
)
from repro.imaging.filters import central_gradient

pytestmark = pytest.mark.equivalence

CONFIGS = [
    HogConfig(window=(64, 64)),
    HogConfig(window=(64, 32)),
    HogConfig(window=(48, 48), cell_size=6, n_bins=7),
    HogConfig(window=(64, 64), block_size=3, block_stride=2),
]


def oracle_gradients(plane: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Replicate-padded central differences (gx, gy)."""
    padded = np.pad(np.asarray(plane, dtype=np.float64), 1, mode="edge")
    gx = 0.5 * (padded[1:-1, 2:] - padded[1:-1, :-2])
    gy = 0.5 * (padded[2:, 1:-1] - padded[:-2, 1:-1])
    return gx, gy


def oracle_field(plane: np.ndarray) -> GradientField:
    gx, gy = oracle_gradients(plane)
    return GradientField(
        magnitude=np.hypot(gx, gy), orientation=np.mod(np.arctan2(gy, gx), np.pi)
    )


def oracle_bins(field: GradientField, n_bins: int):
    position = field.orientation / (np.pi / n_bins) - 0.5
    bin_lo = np.floor(position).astype(int)
    frac = position - bin_lo
    return np.mod(bin_lo, n_bins), 1.0 - frac, frac


def oracle_histograms(field: GradientField, cell_size: int, n_bins: int) -> np.ndarray:
    height, width = field.shape
    bin_lo, w_lo, w_hi = oracle_bins(field, n_bins)
    bin_hi = (bin_lo + 1) % n_bins
    rows, cols = height // cell_size, width // cell_size
    cell_row = np.repeat(np.arange(rows), cell_size)
    cell_col = np.repeat(np.arange(cols), cell_size)
    flat_cell = (cell_row[:, None] * cols + cell_col[None, :]).ravel()
    flat_hist = np.zeros(rows * cols * n_bins)
    mag = field.magnitude
    np.add.at(flat_hist, flat_cell * n_bins + bin_lo.ravel(), (mag * w_lo).ravel())
    np.add.at(flat_hist, flat_cell * n_bins + bin_hi.ravel(), (mag * w_hi).ravel())
    return flat_hist.reshape(rows, cols, n_bins)


def assert_matches_oracle(plane: np.ndarray, cell_size: int = 4, n_bins: int = 9) -> None:
    """Gradients, field, bins and (for whole cells) histograms."""
    for got, want in zip(central_gradient(plane), oracle_gradients(plane)):
        assert got.tobytes() == want.tobytes()
    field = gradient_field(plane)
    expected = oracle_field(plane)
    assert field.orientation.tobytes() == expected.orientation.tobytes()
    np.testing.assert_array_max_ulp(field.magnitude, expected.magnitude, maxulp=1)
    for got, want in zip(orientation_bins(field, n_bins), oracle_bins(field, n_bins)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    height, width = field.shape
    if height % cell_size == 0 and width % cell_size == 0:
        hist = cell_histograms_from_field(field, cell_size, n_bins)
        assert hist.tobytes() == oracle_histograms(field, cell_size, n_bins).tobytes()


def _raw_angles(plane: np.ndarray) -> np.ndarray:
    gx, gy = oracle_gradients(plane)
    return np.arctan2(gy, gx)


class TestFrontEndOracle:
    def test_flat_rows_give_exact_pi(self):
        # A falling ramp along x: gy = +0 and gx < 0, so atan2 returns pi.
        plane = np.tile(np.linspace(1.0, 0.0, 16), (8, 1))
        assert (_raw_angles(plane) == np.pi).any()
        assert_matches_oracle(plane)

    def test_flat_regions(self):
        plane = np.round(np.random.default_rng(5).random((32, 48)) * 3) / 3
        assert_matches_oracle(plane)

    def test_negative_zero(self):
        plane = np.zeros((8, 8))
        plane[2::4] = -0.0  # rows 1, 5: gy = 0.5 * (-0.0 - +0.0) = -0.0
        raw = _raw_angles(plane)
        assert (np.signbit(raw) & (raw == 0)).any()  # atan2 gives -0.0 here
        assert_matches_oracle(plane)

    def test_tiny_negative_angle_folds_to_pi(self):
        plane = np.zeros((3, 3))
        plane[:, 2] = 1.0  # gx = 0.5 at the centre
        plane[0, 1] = 1e-18  # gy = -5e-19 at the centre
        raw = _raw_angles(plane)
        assert -1e-17 < raw[1, 1] < 0.0
        assert oracle_field(plane).orientation[1, 1] == np.pi
        assert_matches_oracle(plane)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 12), (12, 1), (2, 2), (1, 8), (8, 1)])
    def test_one_pixel_wide_planes(self, shape):
        assert_matches_oracle(np.random.default_rng(6).random(shape))

    def test_non_contiguous_crop(self):
        # extract_dense hands the front end a view cropped to whole cells.
        frame = np.random.default_rng(7).random((45, 70))
        crop = frame[:40, :64]
        assert not crop.flags.c_contiguous
        assert_matches_oracle(crop, cell_size=8)

    @given(
        h=st.integers(min_value=1, max_value=40),
        w=st.integers(min_value=1, max_value=40),
        levels=st.sampled_from([0, 2, 5]),
        signed_zeros=st.booleans(),
        seed=st.integers(min_value=0, max_value=999),
    )
    @settings(max_examples=80, deadline=None)
    def test_random_planes(self, h, w, levels, signed_zeros, seed):
        rng = np.random.default_rng(seed)
        plane = rng.random((h, w))
        if levels:  # quantised planes have flat regions
            plane = np.round(plane * levels) / levels
        if signed_zeros:
            plane[rng.random((h, w)) < 0.3] = -0.0
        assert_matches_oracle(plane, cell_size=2)


class TestGradients:
    @pytest.mark.parametrize("shape", [(9, 9), (17, 33), (64, 64)])
    def test_batch_planes_match_single(self, shape):
        rng = np.random.default_rng(1)
        stack = rng.random((6, *shape))
        batch = gradient_field(stack)
        for i in range(6):
            single = gradient_field(stack[i])
            assert batch.magnitude[i].tobytes() == single.magnitude.tobytes()
            assert batch.orientation[i].tobytes() == single.orientation.tobytes()


class TestHistograms:
    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"{c.window}-c{c.cell_size}")
    def test_batch_matches_per_window(self, config):
        rng = np.random.default_rng(2)
        stack = rng.random((5, *config.window))
        batch = cell_histograms_from_field(gradient_field(stack), config.cell_size, config.n_bins)
        for i in range(5):
            single = cell_histograms(stack[i], config)
            assert batch[i].tobytes() == single.tobytes()


class TestNormalization:
    @given(
        n=st.integers(min_value=1, max_value=12),
        length=st.integers(min_value=1, max_value=64),
        seed=st.integers(min_value=0, max_value=999),
    )
    @settings(max_examples=60, deadline=None)
    def test_rows_match_single_block(self, n, length, seed):
        rows = np.random.default_rng(seed).random((n, length)) * 10.0
        batch = normalize_block_rows(rows)
        for i in range(n):
            assert batch[i].tobytes() == normalize_block(rows[i]).tobytes()

    def test_zero_rows_match(self):
        rows = np.zeros((3, 36))
        batch = normalize_block_rows(rows)
        assert batch[0].tobytes() == normalize_block(rows[0]).tobytes()


class TestDescriptor:
    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"{c.window}-c{c.cell_size}")
    def test_dense_window_matches_extract(self, config):
        hog = HogDescriptor(config)
        for window in np.random.default_rng(3).random((4, *config.window)):
            blocks, _ = hog.extract_dense(window)
            assert blocks.tobytes() == hog.extract(window).tobytes()


class TestDenseGather:
    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("frame", [(96, 128), (80, 200), (64, 64)])
    def test_matrix_rows_match_slices(self, frame, stride):
        hog = HogDescriptor()
        rng = np.random.default_rng(4)
        blocks, layout = hog.extract_dense(rng.random(frame))
        matrix = layout.window_feature_matrix(blocks, cell_stride=stride)
        positions = layout.window_positions(stride)
        assert matrix.shape[0] == len(positions)
        for i, (r, c) in enumerate(positions):
            assert matrix[i].tobytes() == layout.window_feature(blocks, r, c).tobytes()

    @given(
        h=st.integers(min_value=64, max_value=150),
        w=st.integers(min_value=64, max_value=150),
        stride=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=99),
    )
    @settings(max_examples=25, deadline=None)
    def test_matrix_matches_slices_arbitrary_frames(self, h, w, stride, seed):
        hog = HogDescriptor()
        blocks, layout = hog.extract_dense(np.random.default_rng(seed).random((h, w)))
        matrix = layout.window_feature_matrix(blocks, cell_stride=stride)
        for i, (r, c) in enumerate(layout.window_positions(stride)):
            assert matrix[i].tobytes() == layout.window_feature(blocks, r, c).tobytes()
