"""Tests for repro.imaging.threshold: binary, histogram, Otsu."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import ImageError
from repro.imaging.threshold import (
    binary_threshold,
    histogram,
    otsu_threshold,
)


def gray_images(max_side: int = 10):
    shapes = st.tuples(
        st.integers(min_value=2, max_value=max_side),
        st.integers(min_value=2, max_value=max_side),
    )
    return hnp.arrays(
        dtype=np.float64,
        shape=shapes,
        elements=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )


class TestBinary:
    def test_above(self):
        img = np.array([[0.1, 0.9]])
        assert binary_threshold(img, 0.5).tolist() == [[False, True]]

    def test_below(self):
        img = np.array([[0.1, 0.9]])
        assert binary_threshold(img, 0.5, above=False).tolist() == [[True, False]]

    def test_strict_inequality(self):
        img = np.array([[0.5]])
        assert not binary_threshold(img, 0.5)[0, 0]

    @settings(max_examples=40)
    @given(gray_images(), st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0))
    def test_monotone_in_threshold(self, img, t1, t2):
        lo, hi = min(t1, t2), max(t1, t2)
        mask_lo = binary_threshold(img, lo)
        mask_hi = binary_threshold(img, hi)
        # Raising the threshold can only clear pixels.
        assert not np.any(mask_hi & ~mask_lo)


class TestHistogramOtsu:
    def test_histogram_counts(self):
        img = np.array([[0.0, 0.0, 1.0]])
        counts = histogram(img, bins=2)
        assert counts.tolist() == [2, 1]

    def test_histogram_rejects_one_bin(self):
        with pytest.raises(ImageError):
            histogram(np.ones((2, 2)), bins=1)

    def test_otsu_separates_bimodal(self):
        rng = np.random.default_rng(0)
        img = np.concatenate([rng.normal(0.2, 0.02, 500), rng.normal(0.8, 0.02, 500)])
        img = np.clip(img, 0, 1).reshape(20, 50)
        t = otsu_threshold(img)
        assert 0.3 < t < 0.7

    def test_otsu_constant_returns_midpoint(self):
        assert otsu_threshold(np.full((4, 4), 0.5)) == pytest.approx(0.5, abs=0.51)

    @settings(max_examples=30)
    @given(gray_images())
    def test_otsu_within_range(self, img):
        t = otsu_threshold(img)
        assert 0.0 <= t <= 1.0
