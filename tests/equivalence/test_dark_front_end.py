"""Differential tests for the dark pipeline's front end (paper Fig. 4).

The split, threshold, decimate and DBN-occupancy stages are pinned bit for
bit against oracles kept here in their straightforward form: ``rgb_to_ycbcr``
stacked into an interleaved image and sliced back into planes, Otsu over
``np.histogram`` counts, full-plane luma and chroma masks ANDed, the binary
decimator as a float tile mean, and the occupied-window test as ``.any``
over a full flat copy of every 9x9 window.  The oracle calls none of the
production split, histogram or Otsu code, so a wrong count cannot pass
into it.  Split planes, ``preprocess`` masks and
``dbn_grid`` class grids must equal the oracle pipeline's byte for byte, on
rendered night frames and on edge-case masks.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import replace

import numpy as np
import pytest

from repro.datasets.lighting import DARK_LIGHTING
from repro.datasets.scene import SceneConfig, render_scene
from repro.imaging.color import rgb_to_ycbcr, split_channels
from repro.imaging.morphology import closing, square_element
from repro.imaging.resize import downsample_area, downsample_binary
from repro.pipelines import dark
from repro.pipelines.dark import (
    CLOSING_SIZE,
    CR_THRESHOLD,
    DBN_STRIDE,
    DBN_WINDOW,
    DOWNSAMPLE_VOTE,
    LUMA_MARGIN,
    DarkVehicleDetector,
)

from tests.equivalence.references import reference_scans

pytestmark = pytest.mark.equivalence

_KR, _KG, _KB = 0.299, 0.587, 0.114


def oracle_split(rgb: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Interleaved YCbCr sliced back into (stride-3) planes."""
    r, g, b = rgb[..., 0], rgb[..., 1], rgb[..., 2]
    y = _KR * r + _KG * g + _KB * b
    cb = (b - y) / (2.0 * (1.0 - _KB))
    cr = (r - y) / (2.0 * (1.0 - _KR))
    ycbcr = np.stack([y, cb, cr], axis=-1)
    return ycbcr[..., 0], ycbcr[..., 1], ycbcr[..., 2]


def oracle_otsu(plane: np.ndarray, bins: int = 256) -> float:
    """Otsu's threshold over [0, 1] from ``np.histogram`` counts."""
    counts = np.histogram(plane, bins=bins, range=(0.0, 1.0))[0].astype(np.float64)
    total = counts.sum()
    centers = (np.arange(bins) + 0.5) / bins
    weight_bg = np.cumsum(counts)
    weight_fg = total - weight_bg
    cum_mean = np.cumsum(counts * centers)
    grand_mean = cum_mean[-1]
    valid = (weight_bg > 0) & (weight_fg > 0)
    if not np.any(valid):
        return 0.5
    mean_bg = np.where(valid, cum_mean / np.maximum(weight_bg, 1e-12), 0.0)
    mean_fg = np.where(valid, (grand_mean - cum_mean) / np.maximum(weight_fg, 1e-12), 0.0)
    between = weight_bg * weight_fg * (mean_bg - mean_fg) ** 2
    between[~valid] = -1.0
    peak = between.max()
    plateau = np.flatnonzero(between >= peak - 1e-12 * max(peak, 1.0))
    best = int(round(plateau.mean()))
    return float((best + 1) * (1.0 / bins))


def oracle_downsample(mask: np.ndarray, factor: int, vote: float) -> np.ndarray:
    return downsample_area(np.asarray(mask).astype(np.float64), factor) >= vote


def oracle_masks(detector: DarkVehicleDetector, rgb: np.ndarray) -> dict[str, np.ndarray | None]:
    """Every mask ``preprocess`` records in a ``DarkStageTrace``, from full planes."""
    luma, _cb, cr = oracle_split(rgb)
    luma_mask = luma > oracle_otsu(luma) + LUMA_MARGIN
    chroma_mask = cr > CR_THRESHOLD if detector.config.use_chroma else None
    merged = luma_mask & chroma_mask if chroma_mask is not None else luma_mask
    factor = detector._effective_factor(rgb.shape[0], rgb.shape[1])
    small = oracle_downsample(merged, factor, DOWNSAMPLE_VOTE) if factor > 1 else merged
    return {
        "luma_mask": luma_mask,
        "chroma_mask": chroma_mask,
        "merged_mask": merged,
        "processed_mask": closing(small, square_element(CLOSING_SIZE)),
    }


def oracle_preprocess(detector: DarkVehicleDetector, rgb: np.ndarray) -> np.ndarray:
    return oracle_masks(detector, rgb)["processed_mask"]


def oracle_dbn_grid(detector: DarkVehicleDetector, mask: np.ndarray) -> np.ndarray:
    src = np.asarray(mask, dtype=np.float64)
    if src.shape[0] < DBN_WINDOW or src.shape[1] < DBN_WINDOW:
        return np.zeros((0, 0), dtype=np.int64)
    view = np.lib.stride_tricks.sliding_window_view(src, (DBN_WINDOW, DBN_WINDOW))
    view = view[::DBN_STRIDE, ::DBN_STRIDE]
    ny, nx = view.shape[:2]
    flat = view.reshape(ny * nx, DBN_WINDOW * DBN_WINDOW)
    grid = np.zeros(ny * nx, dtype=np.int64)
    occupied = np.flatnonzero(flat.any(axis=1))
    if occupied.size:
        grid[occupied] = detector.dbn.predict_batch(flat[occupied])
    return grid.reshape(ny, nx)


def night_frame(height: int, width: int, seed: int) -> np.ndarray:
    config = SceneConfig(
        height=height,
        width=width,
        n_vehicles=3,
        n_oncoming=1,
        vehicle_fill=(0.08, 0.16),
        seed=seed,
    )
    return render_scene(config, DARK_LIGHTING).rgb


# (height, width): decimation by 3 and by 2 (640 is not a multiple of 3).
FRAMES = [(180, 330, 99), (120, 210, 3), (90, 160, 5), (180, 320, 11)]


def assert_bytes_equal(got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


class TestSplitChannels:
    @pytest.mark.parametrize("height,width,seed", FRAMES)
    def test_planes_match_stacked_oracle(self, height, width, seed):
        rgb = night_frame(height, width, seed)
        for got, want in zip(split_channels(rgb), oracle_split(rgb)):
            assert_bytes_equal(got, want)
            assert got.flags.c_contiguous

    def test_rgb_to_ycbcr_matches_stacked_oracle(self):
        rgb = np.random.default_rng(0).random((37, 53, 3))
        assert_bytes_equal(rgb_to_ycbcr(rgb), np.stack(oracle_split(rgb), axis=-1))


class TestPreprocess:
    @pytest.mark.parametrize("height,width,seed", FRAMES)
    def test_masks_match_oracle(self, dark_detector, height, width, seed):
        rgb = night_frame(height, width, seed)
        assert_bytes_equal(dark_detector.preprocess(rgb), oracle_preprocess(dark_detector, rgb))

    def test_luma_only_ablation_matches_oracle(self, dark_detector):
        detector = DarkVehicleDetector(
            replace(dark_detector.config, use_chroma=False), dbn=dark_detector.dbn
        )
        rgb = night_frame(120, 210, 8)
        assert_bytes_equal(detector.preprocess(rgb), oracle_preprocess(detector, rgb))

    @pytest.mark.parametrize("factor", [1, 2, 3, 4])
    @pytest.mark.parametrize("vote", [0.25, 0.5, 1.0 / 9.0, 1.0])
    def test_downsample_matches_float_mean(self, factor, vote):
        mask = np.random.default_rng(factor).random((12 * factor, 20 * factor)) < 0.3
        assert_bytes_equal(
            downsample_binary(mask, factor, vote), oracle_downsample(mask, factor, vote)
        )


def edge_masks() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(21)
    last_row = np.zeros((29, 33))
    last_row[-1, 10] = 1.0
    last_col = np.zeros((29, 33))
    last_col[12, -1] = 1.0
    return {
        "empty": np.zeros((40, 70)),
        "all_lit": np.ones((40, 70)),
        "last_row_only": last_row,
        "last_col_only": last_col,
        "odd_h_minus_9": (rng.random((20, 31)) < 0.1).astype(np.float64),
        "exactly_9x9": (rng.random((9, 9)) < 0.3).astype(np.float64),
        "smaller_than_window": np.ones((8, 30)),
        "float_valued": (rng.random((40, 70)) < 0.1) * rng.uniform(-2.0, 3.0, (40, 70)),
        "bool": rng.random((33, 47)) < 0.08,
    }


class ProbeDbn:
    """Classifies a window by where its largest value sits.

    The trained DBN calls most sparse windows background, which would hide
    an occupancy test that drops a lit window; this probe gives every window
    it is fed a non-zero class that depends on the window's values and their
    order, so the grid shows exactly which windows were gathered and how.
    """

    def predict_batch(self, windows: np.ndarray) -> np.ndarray:
        return 1 + np.argmax(windows, axis=1) % 7

    def predict(self, window: np.ndarray) -> np.ndarray:
        return self.predict_batch(np.atleast_2d(window))


class TestDbnGrid:
    @pytest.mark.parametrize("name", sorted(edge_masks()))
    def test_edge_masks_match_oracle(self, dark_detector, name):
        mask = edge_masks()[name]
        assert_bytes_equal(dark_detector.dbn_grid(mask), oracle_dbn_grid(dark_detector, mask))

    @pytest.mark.parametrize("hot_path", [True, False])
    @pytest.mark.parametrize("name", sorted(edge_masks()))
    def test_edge_masks_gather_the_oracle_windows(self, monkeypatch, name, hot_path):
        monkeypatch.setattr(dark, "DBN_BATCH", 7)
        detector = DarkVehicleDetector(dbn=ProbeDbn())
        mask = edge_masks()[name]
        with nullcontext() if hot_path else reference_scans():
            grid = detector.dbn_grid(mask)
        assert_bytes_equal(grid, oracle_dbn_grid(detector, mask))

    @pytest.mark.parametrize("height,width,seed", FRAMES)
    def test_rendered_frames_match_oracle(self, dark_detector, height, width, seed):
        mask = dark_detector.preprocess(night_frame(height, width, seed))
        assert_bytes_equal(dark_detector.dbn_grid(mask), oracle_dbn_grid(dark_detector, mask))

    @pytest.mark.parametrize("name", ["all_lit", "float_valued", "odd_h_minus_9"])
    def test_small_batches_match_oracle(self, dark_detector, monkeypatch, name):
        monkeypatch.setattr(dark, "DBN_BATCH", 7)
        mask = edge_masks()[name]
        assert_bytes_equal(dark_detector.dbn_grid(mask), oracle_dbn_grid(dark_detector, mask))

    def test_reference_branch_matches_oracle(self, dark_detector):
        mask = edge_masks()["float_valued"]
        with reference_scans():
            grid = dark_detector.dbn_grid(mask)
        assert_bytes_equal(grid, oracle_dbn_grid(dark_detector, mask))
