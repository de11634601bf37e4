"""Tests for repro.imaging.filters: convolution, Gaussian, gradients."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ImageError
from repro.imaging.filters import (
    central_gradient,
    convolve2d,
    convolve_separable,
    gaussian_blur,
    gaussian_kernel1d,
)


class TestConvolve:
    def test_identity_kernel(self):
        img = np.random.default_rng(0).random((6, 7))
        ident = np.zeros((3, 3))
        ident[1, 1] = 1.0
        assert np.allclose(convolve2d(img, ident), img)

    def test_shift_kernel_flips(self):
        # True convolution flips the kernel: a kernel with weight at (0, 0)
        # (top-left) pulls from the bottom-right neighbour.
        img = np.zeros((5, 5))
        img[2, 2] = 1.0
        k = np.zeros((3, 3))
        k[0, 0] = 1.0
        out = convolve2d(img, k)
        assert out[1, 1] == 1.0

    def test_output_shape_preserved(self):
        img = np.ones((4, 9))
        assert convolve2d(img, np.ones((3, 3)) / 9.0).shape == (4, 9)

    def test_rejects_even_kernel(self):
        with pytest.raises(ImageError):
            convolve2d(np.ones((4, 4)), np.ones((2, 2)))

    def test_constant_image_invariant_under_normalized_kernel(self):
        img = np.full((5, 5), 3.7)
        out = convolve2d(img, np.ones((3, 3)) / 9.0)
        assert np.allclose(out, 3.7)

    def test_separable_matches_full(self):
        rng = np.random.default_rng(1)
        img = rng.random((8, 8))
        ky = np.array([1.0, 2.0, 1.0])
        kx = np.array([1.0, 0.0, -1.0])
        full = convolve2d(img, np.outer(ky, kx))
        sep = convolve_separable(img, ky, kx)
        assert np.allclose(full, sep)


class TestGaussian:
    def test_kernel_normalised(self):
        taps = gaussian_kernel1d(1.5)
        assert taps.sum() == pytest.approx(1.0)
        assert taps[len(taps) // 2] == taps.max()

    def test_kernel_rejects_bad_sigma(self):
        with pytest.raises(ImageError):
            gaussian_kernel1d(0.0)

    def test_blur_preserves_mean_of_constant(self):
        img = np.full((6, 6), 0.4)
        assert np.allclose(gaussian_blur(img, 1.0), 0.4)

    def test_blur_reduces_variance(self):
        rng = np.random.default_rng(2)
        img = rng.random((20, 20))
        assert gaussian_blur(img, 1.0).var() < img.var()


class TestGradients:
    def test_central_gradient_linear_ramp(self):
        # f(x, y) = x has gx = 1 everywhere in the interior.
        img = np.tile(np.arange(8, dtype=float), (8, 1))
        gx, gy = central_gradient(img)
        assert np.allclose(gx[:, 1:-1], 1.0)
        assert np.allclose(gy, 0.0)

    def test_central_gradient_constant_is_zero(self):
        gx, gy = central_gradient(np.full((5, 5), 2.0))
        assert np.allclose(gx, 0.0) and np.allclose(gy, 0.0)
