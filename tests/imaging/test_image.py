"""Tests for repro.imaging.image: validation, crop, blending."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ImageError
from repro.imaging.geometry import Rect
from repro.imaging.image import (
    additive_light,
    blend,
    clip01,
    crop,
    ensure_binary,
    ensure_gray,
    ensure_rgb,
)


class TestValidation:
    def test_ensure_gray_accepts_2d(self):
        out = ensure_gray(np.zeros((3, 4), dtype=np.float32))
        assert out.dtype == np.float64

    def test_ensure_gray_rejects_3d(self):
        with pytest.raises(ImageError):
            ensure_gray(np.zeros((3, 4, 3)))

    def test_ensure_gray_rejects_empty(self):
        with pytest.raises(ImageError):
            ensure_gray(np.zeros((0, 4)))

    def test_ensure_rgb_accepts_hw3(self):
        assert ensure_rgb(np.zeros((2, 2, 3))).shape == (2, 2, 3)

    def test_ensure_rgb_rejects_wrong_channels(self):
        with pytest.raises(ImageError):
            ensure_rgb(np.zeros((2, 2, 4)))

    def test_ensure_binary_accepts_bool_and_01(self):
        assert ensure_binary(np.array([[True, False]])).dtype == bool
        assert ensure_binary(np.array([[0, 1], [1, 0]])).dtype == bool

    def test_ensure_binary_rejects_other_values(self):
        with pytest.raises(ImageError):
            ensure_binary(np.array([[0.5, 1.0]]))

    def test_clip01(self):
        out = clip01(np.array([[-1.0, 0.5, 2.0]]))
        assert out.tolist() == [[0.0, 0.5, 1.0]]


class TestCrop:
    def test_crop_extracts_region(self):
        img = np.arange(25, dtype=float).reshape(5, 5)
        out = crop(img, Rect(1, 2, 2, 2))
        assert np.array_equal(out, img[2:4, 1:3])

    def test_crop_clips_to_image(self):
        img = np.ones((4, 4))
        out = crop(img, Rect(-2, -2, 4, 4))
        assert out.shape == (2, 2)

    def test_crop_outside_raises(self):
        with pytest.raises(ImageError):
            crop(np.ones((4, 4)), Rect(10, 10, 2, 2))


class TestPasteBlend:
    def test_blend_alpha(self):
        canvas = np.zeros((2, 2))
        blend(canvas, np.ones((2, 2)), 0, 0, alpha=0.25)
        assert np.allclose(canvas, 0.25)

    def test_blend_rejects_bad_alpha(self):
        with pytest.raises(ImageError):
            blend(np.zeros((2, 2)), np.ones((2, 2)), 0, 0, alpha=1.5)

    def test_additive_light_saturates(self):
        canvas = np.full((2, 2), 0.8)
        additive_light(canvas, np.full((2, 2), 0.5), 0, 0)
        assert np.allclose(canvas, 1.0)

    def test_additive_light_adds(self):
        canvas = np.full((2, 2), 0.2)
        additive_light(canvas, np.full((2, 2), 0.3), 0, 0)
        assert np.allclose(canvas, 0.5)
