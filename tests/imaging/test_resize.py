"""Tests for repro.imaging.resize: area/binary downsample, bilinear, pyramid."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import ImageError
from repro.imaging.resize import (
    downsample_area,
    downsample_binary,
    pyramid_scales,
    resize_bilinear,
    resize_nearest,
    resize_rgb_bilinear,
)


class TestDownsample:
    def test_area_average(self):
        img = np.array([[0.0, 1.0], [1.0, 0.0]])
        out = downsample_area(img, 2)
        assert out.shape == (1, 1)
        assert out[0, 0] == pytest.approx(0.5)

    def test_area_factor_one_identity(self):
        img = np.random.default_rng(0).random((4, 6))
        assert np.allclose(downsample_area(img, 1), img)

    def test_area_rejects_misaligned(self):
        with pytest.raises(ImageError):
            downsample_area(np.ones((5, 6)), 2)

    def test_hdtv_to_processing_resolution(self):
        img = np.zeros((1080 // 4, 1920 // 4))  # shrunk proxy keeps ratio
        out = downsample_area(img, 3)
        assert out.shape == (90, 160)

    def test_binary_vote(self):
        mask = np.zeros((4, 4), dtype=bool)
        mask[0, 0] = True  # 1/4 of its 2x2 tile
        out = downsample_binary(mask, 2, vote=0.25)
        assert out[0, 0]
        assert not out[1, 1]

    def test_binary_vote_threshold(self):
        mask = np.zeros((2, 2), dtype=bool)
        mask[0, 0] = True
        assert not downsample_binary(mask, 2, vote=0.5)[0, 0]

    def test_binary_rejects_bad_vote(self):
        with pytest.raises(ImageError):
            downsample_binary(np.zeros((2, 2), dtype=bool), 2, vote=0.0)

    @pytest.mark.parametrize(
        "mask,factor,match",
        [
            (np.zeros((5, 6), dtype=bool), 2, "not divisible"),
            (np.zeros((4, 4), dtype=bool), 0, "factor must be >= 1"),
            (np.zeros((0, 4), dtype=bool), 2, "non-empty"),
            (np.full((4, 4), 2.0), 2, "only 0/1"),
            (np.zeros((2, 2, 2), dtype=bool), 2, "must be 2-D"),
        ],
    )
    def test_binary_rejects_bad_input(self, mask, factor, match):
        with pytest.raises(ImageError, match=match):
            downsample_binary(mask, factor)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), factor=st.integers(min_value=1, max_value=4))
    def test_binary_matches_float_mean(self, data, factor):
        tiles = data.draw(st.tuples(st.integers(1, 6), st.integers(1, 6)))
        mask = data.draw(hnp.arrays(bool, (tiles[0] * factor, tiles[1] * factor)))
        # Votes landing exactly on k / factor**2 are where a count and a
        # float mean could disagree.
        k = data.draw(st.integers(1, factor * factor))
        vote = data.draw(
            st.one_of(
                st.just(k / (factor * factor)),
                st.floats(min_value=1e-6, max_value=1.0, allow_nan=False),
            )
        )
        expected = downsample_area(mask.astype(np.float64), factor) >= vote
        got = downsample_binary(mask, factor, vote=vote)
        assert got.dtype == bool
        assert np.array_equal(got, expected)


class TestResize:
    def test_nearest_identity(self):
        img = np.random.default_rng(1).random((3, 5))
        assert np.allclose(resize_nearest(img, 3, 5), img)

    def test_nearest_upsample_replicates(self):
        img = np.array([[1.0, 2.0]])
        out = resize_nearest(img, 1, 4)
        assert out.tolist() == [[1.0, 1.0, 2.0, 2.0]]

    def test_bilinear_identity(self):
        img = np.random.default_rng(2).random((4, 4))
        assert np.allclose(resize_bilinear(img, 4, 4), img)

    def test_bilinear_constant_preserved(self):
        img = np.full((4, 6), 0.3)
        out = resize_bilinear(img, 7, 11)
        assert np.allclose(out, 0.3)

    def test_bilinear_range_bounded(self):
        img = np.random.default_rng(3).random((6, 6))
        out = resize_bilinear(img, 13, 9)
        assert out.min() >= img.min() - 1e-12
        assert out.max() <= img.max() + 1e-12

    def test_bilinear_rejects_empty_target(self):
        with pytest.raises(ImageError):
            resize_bilinear(np.ones((4, 4)), 0, 4)

    @pytest.mark.parametrize(
        "src, dst",
        [((6, 6), (13, 9)), ((360, 640), (300, 533)), ((45, 80), (64, 64)), ((1, 7), (3, 2)), ((5, 1), (2, 4))],
    )
    def test_bilinear_bitwise_equals_ix_gather(self, src, dst):
        img = np.random.default_rng(4).random(src)
        out_h, out_w = dst
        in_h, in_w = src
        ys = np.clip((np.arange(out_h) + 0.5) * in_h / out_h - 0.5, 0.0, in_h - 1.0)
        xs = np.clip((np.arange(out_w) + 0.5) * in_w / out_w - 0.5, 0.0, in_w - 1.0)
        y0, x0 = np.floor(ys).astype(int), np.floor(xs).astype(int)
        y1, x1 = np.minimum(y0 + 1, in_h - 1), np.minimum(x0 + 1, in_w - 1)
        wy, wx = (ys - y0)[:, None], (xs - x0)[None, :]
        top = img[np.ix_(y0, x0)] * (1 - wx) + img[np.ix_(y0, x1)] * wx
        bottom = img[np.ix_(y1, x0)] * (1 - wx) + img[np.ix_(y1, x1)] * wx
        expected = top * (1 - wy) + bottom * wy
        assert resize_bilinear(img, out_h, out_w).tobytes() == expected.tobytes()

    def test_rgb_resize_per_channel(self):
        rgb = np.zeros((4, 4, 3))
        rgb[..., 1] = 1.0
        out = resize_rgb_bilinear(rgb, 2, 2)
        assert out.shape == (2, 2, 3)
        assert np.allclose(out[..., 1], 1.0)
        assert np.allclose(out[..., 0], 0.0)


class TestPyramid:
    def test_scales_descend_from_one(self):
        scales = pyramid_scales((64, 64), (256, 256), scale_step=2.0)
        assert scales[0] == 1.0
        assert all(a > b for a, b in zip(scales, scales[1:]))
        assert len(scales) == 3  # 1.0, 0.5, 0.25

    def test_window_larger_than_image(self):
        assert pyramid_scales((64, 64), (32, 32)) == []

    def test_rejects_step_below_one(self):
        with pytest.raises(ImageError):
            pyramid_scales((8, 8), (64, 64), scale_step=1.0)
