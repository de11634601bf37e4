"""Differential tests for the HOG+SVM front end: pyramid resize and bands.

``resize_bilinear`` (cached taps, bands of output rows, row interpolations
shared between the output rows of a band) is pinned against the
straightforward gather-and-blend kept here as the oracle.
``HogDescriptor.extract_dense`` (gradient, orientation bins and histograms
in bands of ``BAND_CELLS`` cell rows, blocks gathered by cell offset and
normalised in place) is pinned against one unbanded pass over the whole
cropped plane: ``gradient_field`` on the plane, the ``np.add.at``
histogram scatter and a per-block ``normalize_block`` loop.  Both must
match byte for byte, including on upscales, 1-px outputs, same-size
copies, and planes whose height is not a whole number of bands, is less
than one band, or is exactly one cell row.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.features.gradients import gradient_field, orientation_bins
from repro.features.hog import HogConfig, HogDescriptor, normalize_block, normalize_blocks
from repro.imaging.resize import resize_bilinear

pytestmark = pytest.mark.equivalence


def oracle_resize(arr: np.ndarray, out_height: int, out_width: int) -> np.ndarray:
    in_h, in_w = arr.shape
    if in_h == out_height and in_w == out_width:
        return arr.copy()
    ys = (np.arange(out_height) + 0.5) * in_h / out_height - 0.5
    xs = (np.arange(out_width) + 0.5) * in_w / out_width - 0.5
    ys = np.clip(ys, 0.0, in_h - 1.0)
    xs = np.clip(xs, 0.0, in_w - 1.0)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, in_h - 1)
    x1 = np.minimum(x0 + 1, in_w - 1)
    wy = (ys - y0)[:, np.newaxis]
    wx = (xs - x0)[np.newaxis, :]
    r0 = arr[y0]
    r1 = arr[y1]
    top = r0[:, x0] * (1 - wx) + r0[:, x1] * wx
    bottom = r1[:, x0] * (1 - wx) + r1[:, x1] * wx
    return top * (1 - wy) + bottom * wy


def oracle_cells(plane: np.ndarray, cell_size: int, n_bins: int) -> np.ndarray:
    """Unbanded gradient field plus the two ``np.add.at`` scatters."""
    field = gradient_field(plane)
    height, width = field.shape
    rows, cols = height // cell_size, width // cell_size
    bin_lo, w_lo, w_hi = orientation_bins(field, n_bins)
    bin_hi = (bin_lo + 1) % n_bins
    cell_row = np.repeat(np.arange(rows), cell_size)
    cell_col = np.repeat(np.arange(cols), cell_size)
    slots = (cell_row[:, None] * cols + cell_col[None, :]) * n_bins
    flat = np.zeros(rows * cols * n_bins)
    np.add.at(flat, (slots + bin_lo).ravel(), (w_lo * field.magnitude).ravel())
    np.add.at(flat, (slots + bin_hi).ravel(), (w_hi * field.magnitude).ravel())
    return flat.reshape(rows, cols, n_bins)


def oracle_blocks(cells: np.ndarray, config: HogConfig) -> np.ndarray:
    """One ``normalize_block`` call per block of the whole cell grid."""
    bs, stride = config.block_size, config.block_stride
    rows = (cells.shape[0] - bs) // stride + 1
    cols = (cells.shape[1] - bs) // stride + 1
    out = np.empty((rows, cols, config.block_length))
    for r in range(rows):
        for c in range(cols):
            cell = cells[r * stride : r * stride + bs, c * stride : c * stride + bs]
            out[r, c] = normalize_block(cell, clip=config.clip)
    return out


def oracle_dense(plane: np.ndarray, config: HogConfig) -> np.ndarray:
    cs = config.cell_size
    rows = plane.shape[0] // cs * cs
    cols = plane.shape[1] // cs * cs
    cells = oracle_cells(plane[:rows, :cols], cs, config.n_bins)
    return oracle_blocks(cells, config)


def assert_bytes_equal(got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


class TestResize:
    @pytest.mark.parametrize(
        "shape, out",
        [
            ((360, 640), (288, 512)),  # the detection pyramid's levels
            ((360, 640), (230, 410)),
            ((360, 640), (184, 328)),
            ((40, 60), (97, 131)),  # upscale
            ((7, 9), (7, 30)),  # upscale one axis only
            ((50, 70), (1, 1)),  # 1-px outputs
            ((50, 70), (1, 33)),
            ((50, 70), (21, 1)),
            ((1, 1), (5, 4)),  # 1-px input
            ((1, 17), (3, 5)),
            ((33, 47), (12, 100)),
            ((100, 50), (32, 20)),  # one band of 32 output rows, then one row more
            ((100, 50), (33, 20)),
            ((100, 50), (65, 20)),
            ((20, 30), (64, 9)),  # bands of an upscale re-read their edge rows
        ],
    )
    def test_matches_oracle(self, shape, out):
        plane = np.random.default_rng(sum(shape) + sum(out)).random(shape)
        assert_bytes_equal(resize_bilinear(plane, *out), oracle_resize(plane, *out))

    def test_same_size_is_a_copy(self):
        plane = np.random.default_rng(0).random((12, 20))
        result = resize_bilinear(plane, 12, 20)
        assert_bytes_equal(result, plane)
        assert not np.shares_memory(result, plane)

    def test_repeated_shapes_reuse_cached_taps_without_drift(self):
        rng = np.random.default_rng(1)
        for _ in range(3):
            plane = rng.random((90, 160))
            for out in ((72, 128), (90, 160), (57, 102)):
                assert_bytes_equal(resize_bilinear(plane, *out), oracle_resize(plane, *out))

    @given(
        in_h=st.integers(min_value=1, max_value=60),
        in_w=st.integers(min_value=1, max_value=60),
        out_h=st.integers(min_value=1, max_value=80),
        out_w=st.integers(min_value=1, max_value=80),
        seed=st.integers(min_value=0, max_value=999),
    )
    @settings(max_examples=60, deadline=None)
    def test_arbitrary_shapes(self, in_h, in_w, out_h, out_w, seed):
        plane = np.random.default_rng(seed).random((in_h, in_w))
        assert_bytes_equal(resize_bilinear(plane, out_h, out_w), oracle_resize(plane, out_h, out_w))


#: (config, plane heights): with bands of 4 cell rows, heights that are
#: exactly one cell row, less than one band, a whole number of bands, and a
#: whole number plus a remainder (in cells and in pixels).
BAND_CASES = [
    (HogConfig(window=(8, 16), cell_size=8, block_size=1), [8, 9, 15]),
    (HogConfig(window=(16, 16), cell_size=8), [16, 24, 31]),
    (HogConfig(window=(64, 64)), [64, 96, 100, 128, 360, 367]),
    (HogConfig(window=(64, 32)), [64, 72, 200]),
    (HogConfig(window=(48, 48), cell_size=6, n_bins=7), [48, 53, 96, 121]),
    (HogConfig(window=(64, 64), block_size=3, block_stride=2), [64, 130]),
]


class TestBandedFrontEnd:
    @pytest.mark.parametrize(
        "config, height",
        [(config, h) for config, heights in BAND_CASES for h in heights],
        ids=lambda v: f"{v.window}-c{v.cell_size}" if isinstance(v, HogConfig) else str(v),
    )
    def test_blocks_match_unbanded_oracle(self, config, height):
        rng = np.random.default_rng(height)
        width = config.window[1] + 21
        plane = rng.random((height, width))
        blocks, layout = HogDescriptor(config).extract_dense(plane)
        assert_bytes_equal(blocks, oracle_dense(plane, config))
        assert (layout.frame_block_rows, layout.frame_block_cols) == blocks.shape[:2]

    @pytest.mark.parametrize("height", [8, 31, 32, 33, 40, 64, 65, 72])
    def test_cells_match_unbanded_oracle(self, height):
        # Cells directly: an 8x8 window with 1x1 blocks makes every cell
        # its own L2-Hys block, so any slot that differs shows up here too.
        config = HogConfig(window=(8, 8), cell_size=8, block_size=1)
        plane = np.random.default_rng(height).random((height, 50))
        assert_bytes_equal(
            HogDescriptor(config).extract_dense(plane)[0], oracle_dense(plane, config)
        )

    @pytest.mark.parametrize("config", [HogConfig(), HogConfig(block_size=3, block_stride=2)])
    @pytest.mark.parametrize("cell_rows", [3, 4, 9, 10, 46])
    def test_normalisation_matches_per_block_loop(self, config, cell_rows):
        # Odd and even grids, so a 2-cell stride leaves a cell row or
        # column over.
        cells = np.random.default_rng(cell_rows).random((cell_rows, 11, config.n_bins)) * 5.0
        assert_bytes_equal(normalize_blocks(cells, config), oracle_blocks(cells, config))

    def test_flat_rows_at_band_edges(self):
        # Flat rows hit atan2's exact +-pi and -0.0 cases at band edges.
        plane = np.zeros((100, 96))
        plane[:, 40:] = 1.0
        plane[31:34] = 0.5
        plane[64] = np.linspace(1.0, 0.0, 96)
        config = HogConfig()
        blocks, _ = HogDescriptor(config).extract_dense(plane)
        assert_bytes_equal(blocks, oracle_dense(plane, config))

    @given(
        h=st.integers(min_value=64, max_value=200),
        w=st.integers(min_value=64, max_value=120),
        levels=st.sampled_from([None, 2, 5]),
        seed=st.integers(min_value=0, max_value=999),
    )
    @settings(max_examples=30, deadline=None)
    def test_arbitrary_planes(self, h, w, levels, seed):
        plane = np.random.default_rng(seed).random((h, w))
        if levels is not None:
            plane = np.round(plane * (levels - 1)) / (levels - 1)
        config = HogConfig()
        blocks, _ = HogDescriptor(config).extract_dense(plane)
        assert_bytes_equal(blocks, oracle_dense(plane, config))
