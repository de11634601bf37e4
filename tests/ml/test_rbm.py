"""Tests for repro.ml.rbm: CD-1 training and inference."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ModelError
from repro.ml.rbm import Rbm


def _stripe_data(n: int, seed: int = 0) -> np.ndarray:
    """Binary 4x4 windows that are either left-half or right-half lit."""
    rng = np.random.default_rng(seed)
    data = np.zeros((n, 16))
    for i in range(n):
        img = np.zeros((4, 4))
        if rng.random() < 0.5:
            img[:, :2] = 1.0
        else:
            img[:, 2:] = 1.0
        flip = rng.random((4, 4)) < 0.05
        img[flip] = 1.0 - img[flip]
        data[i] = img.ravel()
    return data


class TestConstruction:
    def test_paper_dimensions(self):
        rbm = Rbm(81, 20)
        assert rbm.weights.shape == (81, 20)
        assert rbm.visible_bias.shape == (81,)
        assert rbm.hidden_bias.shape == (20,)

    def test_rejects_zero_units(self):
        with pytest.raises(ModelError):
            Rbm(0, 5)


class TestInference:
    def test_probabilities_in_unit_interval(self):
        rbm = Rbm(16, 6)
        data = _stripe_data(10)
        h = rbm.hidden_probabilities(data)
        v = rbm.visible_probabilities(h)
        assert h.min() >= 0 and h.max() <= 1
        assert v.min() >= 0 and v.max() <= 1

    def test_rejects_wrong_width(self):
        rbm = Rbm(16, 6)
        with pytest.raises(ModelError):
            rbm.hidden_probabilities(np.zeros((2, 9)))


class TestTraining:
    def test_reconstruction_error_decreases(self):
        data = _stripe_data(200, seed=1)
        rbm = Rbm(16, 8, seed=2)
        errors = rbm.fit(data)
        assert errors[-1] < errors[0]

    def test_reconstruction_roundtrip_close_after_training(self):
        data = _stripe_data(200, seed=6)
        rbm = Rbm(16, 8, seed=7)
        rbm.fit(data)
        recon = rbm.visible_probabilities(rbm.hidden_probabilities(data[:20]))
        err = np.mean((recon - data[:20]) ** 2)
        assert err < 0.1

    def test_rejects_out_of_range_data(self):
        rbm = Rbm(4, 2)
        with pytest.raises(ModelError):
            rbm.fit(np.full((3, 4), 2.0))
