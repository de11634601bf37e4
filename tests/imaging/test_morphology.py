"""Tests for repro.imaging.morphology: erode/dilate/open/close + duality."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import ImageError
from repro.imaging.morphology import (
    closing,
    dilate,
    erode,
    opening,
    rect_element,
    square_element,
)


def masks(max_side: int = 10):
    shapes = st.tuples(
        st.integers(min_value=3, max_value=max_side),
        st.integers(min_value=3, max_value=max_side),
    )
    return hnp.arrays(dtype=bool, shape=shapes)


class TestElements:
    def test_square(self):
        assert square_element(3).shape == (3, 3)
        assert square_element(3).all()

    def test_rect_rejects_zero(self):
        with pytest.raises(ImageError):
            rect_element(0, 3)


class TestDilateErode:
    def test_dilate_grows_point(self):
        mask = np.zeros((5, 5), dtype=bool)
        mask[2, 2] = True
        out = dilate(mask, square_element(3))
        assert out.sum() == 9

    def test_erode_shrinks_block(self):
        mask = np.zeros((7, 7), dtype=bool)
        mask[2:5, 2:5] = True
        out = erode(mask, square_element(3))
        assert out.sum() == 1 and out[3, 3]

    def test_erode_kills_point(self):
        mask = np.zeros((5, 5), dtype=bool)
        mask[2, 2] = True
        assert not erode(mask, square_element(3)).any()

    def test_border_is_background(self):
        mask = np.ones((4, 4), dtype=bool)
        out = erode(mask, square_element(3))
        assert not out[0].any() and out[1:3, 1:3].all()

    def test_rejects_empty_element(self):
        with pytest.raises(ImageError):
            dilate(np.ones((3, 3), dtype=bool), np.zeros((3, 3), dtype=bool))

    @settings(max_examples=40)
    @given(masks())
    def test_dilate_is_extensive(self, mask):
        out = dilate(mask, square_element(3))
        assert np.all(out[mask])

    @settings(max_examples=40)
    @given(masks())
    def test_erode_is_antiextensive(self, mask):
        out = erode(mask, square_element(3))
        assert not np.any(out & ~mask)

    @settings(max_examples=40)
    @given(masks())
    def test_duality_under_complement(self, mask):
        # erode(m) == ~dilate(~m) for a symmetric element — on an infinite
        # grid.  With zero-padded borders, compare on the interior only.
        el = square_element(3)
        left = erode(mask, el)
        right = ~dilate(~mask, el)
        assert np.array_equal(left[1:-1, 1:-1], right[1:-1, 1:-1])


class TestOpenClose:
    def test_closing_fills_hole(self):
        mask = np.zeros((7, 7), dtype=bool)
        mask[2:5, 2:5] = True
        mask[3, 3] = False  # small hole
        out = closing(mask, square_element(3))
        assert out[3, 3]

    def test_opening_removes_speck(self):
        mask = np.zeros((9, 9), dtype=bool)
        mask[1, 1] = True  # speck
        mask[4:8, 4:8] = True  # block
        out = opening(mask, square_element(3))
        assert not out[1, 1]
        assert out[5, 5]

    @settings(max_examples=40)
    @given(masks())
    def test_closing_is_extensive_in_interior(self, mask):
        # Zero-padded borders make closing non-extensive at the frame edge
        # (as in the streaming hardware); the property holds inside.
        out = closing(mask, square_element(3))
        interior = np.zeros_like(mask)
        interior[1:-1, 1:-1] = True
        assert np.all(out[mask & interior])

    @settings(max_examples=40)
    @given(masks())
    def test_opening_is_antiextensive(self, mask):
        out = opening(mask, square_element(3))
        assert not np.any(out & ~mask)

    @settings(max_examples=25)
    @given(masks())
    def test_closing_idempotent(self, mask):
        el = square_element(3)
        once = closing(mask, el)
        assert np.array_equal(closing(once, el), once)
