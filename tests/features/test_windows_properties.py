"""Property tests for repro.features.windows: sliding and pyramid geometry.

Hypothesis sweeps arbitrary image sizes, window shapes, and strides to pin
the geometric contracts the batched scan relies on: windows stay in bounds,
counts match the closed form, pyramids shrink monotonically, and the dense
HOG layout's window grid agrees with ``slide`` over the cell grid.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import FeatureError
from repro.features.hog import HogConfig, HogDescriptor
from repro.features.windows import pyramid, slide

sizes = st.integers(min_value=8, max_value=64)
strides = st.integers(min_value=1, max_value=9)


def expected_count(length: int, window: int, step: int) -> int:
    if length < window:
        return 0
    return (length - window) // step + 1


class TestSlide:
    @given(h=sizes, w=sizes, win_h=sizes, win_w=sizes, sy=strides, sx=strides)
    @settings(max_examples=60, deadline=None)
    def test_windows_in_bounds_and_counted(self, h, w, win_h, win_w, sy, sx):
        image = np.zeros((h, w))
        windows = list(slide(image, (win_h, win_w), (sy, sx)))
        assert len(windows) == expected_count(h, win_h, sy) * expected_count(w, win_w, sx)
        for win in windows:
            assert win.patch.shape == (win_h, win_w)
            assert 0 <= win.rect.x and win.rect.x + win.rect.w <= w
            assert 0 <= win.rect.y and win.rect.y + win.rect.h <= h

    @given(h=sizes, w=sizes, sy=strides, sx=strides)
    @settings(max_examples=40, deadline=None)
    def test_origins_strictly_increase_row_major(self, h, w, sy, sx):
        image = np.zeros((h, w))
        origins = [(win.rect.y, win.rect.x) for win in slide(image, (8, 8), (sy, sx))]
        assert origins == sorted(origins)
        assert len(set(origins)) == len(origins)

    @given(sy=strides, sx=strides)
    @settings(max_examples=20, deadline=None)
    def test_patches_are_views_of_source(self, sy, sx):
        image = np.arange(24 * 32, dtype=np.float64).reshape(24, 32)
        for win in slide(image, (8, 8), (sy, sx)):
            y, x = int(win.rect.y), int(win.rect.x)
            assert np.array_equal(win.patch, image[y : y + 8, x : x + 8])

    def test_rejects_nonpositive_stride(self):
        with pytest.raises(FeatureError):
            list(slide(np.zeros((16, 16)), (8, 8), (0, 1)))


class TestPyramid:
    @given(
        h=st.integers(min_value=32, max_value=128),
        w=st.integers(min_value=32, max_value=128),
        step_milli=st.integers(min_value=1050, max_value=2000),
    )
    @settings(max_examples=40, deadline=None)
    def test_scales_decrease_and_levels_cover_window(self, h, w, step_milli):
        window = (32, 32)
        levels = list(pyramid(np.zeros((h, w)), window, scale_step=step_milli / 1000.0))
        scales = [factor for factor, _level in levels]
        assert scales[0] == 1.0
        assert all(a > b for a, b in zip(scales, scales[1:]))
        for factor, level in levels:
            assert level.shape[0] >= window[0] and level.shape[1] >= window[1]
            assert level.shape[0] <= h and level.shape[1] <= w

    @given(max_levels=st.integers(min_value=1, max_value=6))
    @settings(max_examples=12, deadline=None)
    def test_max_levels_truncates(self, max_levels):
        levels = list(pyramid(np.zeros((128, 128)), (32, 32), max_levels=max_levels))
        assert 1 <= len(levels) <= max_levels


class TestDenseLayoutAgreesWithSlide:
    @given(
        h=st.integers(min_value=64, max_value=160),
        w=st.integers(min_value=64, max_value=160),
        stride=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=30, deadline=None)
    def test_window_grid_matches_slide_geometry(self, h, w, stride):
        # The dense layout walks the *cell* grid; slide walks pixels.  With
        # the pixel stride set to cell_size * block_stride * grid stride the
        # two enumerate exactly the same window rectangles in the same
        # order — only over the frame region cropped to whole cells, which
        # is all extract_dense ever sees.
        hog = HogDescriptor(HogConfig(window=(64, 64)))
        cfg = hog.config
        _blocks, layout = hog.extract_dense(np.zeros((h, w)))
        rects = [
            layout.window_rect(r, c) for r, c in layout.window_positions(stride)
        ]
        cs = cfg.cell_size
        cropped = np.zeros(((h // cs) * cs, (w // cs) * cs))
        px = cs * cfg.block_stride * stride
        slid = [win.rect for win in slide(cropped, cfg.window, (px, px))]
        assert rects == slid

    @given(stride=st.integers(min_value=1, max_value=5))
    @settings(max_examples=10, deadline=None)
    def test_index_grid_matches_positions_list(self, stride):
        hog = HogDescriptor()
        _blocks, layout = hog.extract_dense(np.zeros((128, 160)))
        grid = layout.window_index_grid(stride)
        assert [tuple(row) for row in grid] == layout.window_positions(stride)
