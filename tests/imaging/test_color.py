"""Tests for repro.imaging.color: YCbCr conversion and channel splits."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import ImageError
from repro.imaging.color import (
    gray_to_rgb,
    luminance,
    redness,
    rgb_to_ycbcr,
    split_channels,
    ycbcr_to_rgb,
)


def rgb_images(max_side: int = 8):
    shapes = st.tuples(
        st.integers(min_value=1, max_value=max_side),
        st.integers(min_value=1, max_value=max_side),
        st.just(3),
    )
    return hnp.arrays(
        dtype=np.float64,
        shape=shapes,
        elements=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )


class TestConversion:
    def test_black_maps_to_zero(self):
        black = np.zeros((2, 2, 3))
        ycc = rgb_to_ycbcr(black)
        assert np.allclose(ycc, 0.0)

    def test_white_has_full_luma_no_chroma(self):
        white = np.ones((2, 2, 3))
        ycc = rgb_to_ycbcr(white)
        assert np.allclose(ycc[..., 0], 1.0)
        assert np.allclose(ycc[..., 1:], 0.0, atol=1e-12)

    def test_pure_red_has_positive_cr(self):
        red = np.zeros((1, 1, 3))
        red[..., 0] = 1.0
        y, cb, cr = split_channels(red)
        assert y[0, 0] == pytest.approx(0.299)
        assert cr[0, 0] == pytest.approx(0.5)
        assert cb[0, 0] < 0

    def test_pure_blue_has_positive_cb(self):
        blue = np.zeros((1, 1, 3))
        blue[..., 2] = 1.0
        _, cb, cr = split_channels(blue)
        assert cb[0, 0] == pytest.approx(0.5)
        assert cr[0, 0] < 0

    def test_rejects_gray_input(self):
        with pytest.raises(ImageError):
            rgb_to_ycbcr(np.zeros((4, 4)))

    def test_rejects_bad_ycbcr_shape(self):
        with pytest.raises(ImageError):
            ycbcr_to_rgb(np.zeros((4, 4, 2)))

    @settings(max_examples=50)
    @given(rgb_images())
    def test_roundtrip(self, rgb):
        back = ycbcr_to_rgb(rgb_to_ycbcr(rgb))
        assert np.allclose(back, rgb, atol=1e-9)

    @settings(max_examples=50)
    @given(rgb_images())
    def test_roundtrip_bitwise_unchanged(self, rgb):
        # The interleaved image the planes used to be sliced from.
        r, g, b = rgb[..., 0], rgb[..., 1], rgb[..., 2]
        y = 0.299 * r + 0.587 * g + 0.114 * b
        interleaved = np.stack(
            [y, (b - y) / (2.0 * (1.0 - 0.114)), (r - y) / (2.0 * (1.0 - 0.299))], axis=-1
        )
        assert ycbcr_to_rgb(rgb_to_ycbcr(rgb)).tobytes() == ycbcr_to_rgb(interleaved).tobytes()

    @settings(max_examples=30)
    @given(rgb_images())
    def test_split_planes_are_c_contiguous(self, rgb):
        # Otsu's histogram and the thresholds read these planes; a strided
        # view of an interleaved image costs them a copy each.
        for plane in split_channels(rgb):
            assert plane.flags.c_contiguous
            assert plane.shape == rgb.shape[:2]

    @settings(max_examples=30)
    @given(rgb_images())
    def test_chroma_ranges(self, rgb):
        ycc = rgb_to_ycbcr(rgb)
        assert ycc[..., 0].min() >= -1e-12 and ycc[..., 0].max() <= 1 + 1e-12
        assert np.abs(ycc[..., 1:]).max() <= 0.5 + 1e-12


class TestHelpers:
    def test_luminance_matches_y(self):
        rng = np.random.default_rng(0)
        rgb = rng.random((5, 7, 3))
        assert np.allclose(luminance(rgb), rgb_to_ycbcr(rgb)[..., 0])

    def test_redness_ranks_red_over_white(self):
        red = np.zeros((1, 1, 3))
        red[..., 0] = 1.0
        white = np.ones((1, 1, 3))
        assert redness(red)[0, 0] > redness(white)[0, 0]

    def test_gray_to_rgb_replicates(self):
        gray = np.arange(6, dtype=float).reshape(2, 3) / 6.0
        rgb = gray_to_rgb(gray)
        assert rgb.shape == (2, 3, 3)
        for c in range(3):
            assert np.array_equal(rgb[..., c], gray)
