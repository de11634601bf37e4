"""Tests for repro.features.windows: sliding windows and pyramids."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import FeatureError
from repro.features.windows import pyramid, slide


class TestSlide:
    def test_count_and_shapes(self):
        img = np.zeros((20, 30))
        wins = list(slide(img, (10, 10), (5, 5)))
        assert len(wins) == 3 * 5
        assert all(w.patch.shape == (10, 10) for w in wins)

    def test_patch_content(self):
        img = np.arange(16, dtype=float).reshape(4, 4)
        wins = list(slide(img, (2, 2), (2, 2)))
        assert np.array_equal(wins[0].patch, img[0:2, 0:2])
        assert np.array_equal(wins[-1].patch, img[2:4, 2:4])

    def test_rect_in_frame_maps_scale(self):
        img = np.zeros((10, 10))
        wins = list(slide(img, (4, 4), (4, 4), scale=0.5))
        r = wins[0].rect_in_frame()
        assert (r.w, r.h) == (8.0, 8.0)

    def test_rejects_bad_stride(self):
        with pytest.raises(FeatureError):
            list(slide(np.zeros((8, 8)), (4, 4), (0, 1)))

    def test_window_larger_than_image_yields_nothing(self):
        assert list(slide(np.zeros((4, 4)), (8, 8), (1, 1))) == []


class TestPyramid:
    def test_first_level_native(self):
        img = np.random.default_rng(0).random((32, 32))
        levels = list(pyramid(img, (8, 8), scale_step=2.0))
        assert levels[0][0] == 1.0
        assert np.array_equal(levels[0][1], img)

    def test_levels_shrink(self):
        img = np.zeros((64, 64))
        levels = list(pyramid(img, (8, 8), scale_step=2.0))
        sizes = [lvl.shape[0] for _, lvl in levels]
        assert sizes == sorted(sizes, reverse=True)

    def test_max_levels(self):
        img = np.zeros((64, 64))
        levels = list(pyramid(img, (8, 8), scale_step=2.0, max_levels=2))
        assert len(levels) == 2
