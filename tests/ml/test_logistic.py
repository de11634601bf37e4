"""Tests for repro.ml.logistic: softmax layer, sigmoid, one-hot."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ModelError, NotTrainedError
from repro.ml.logistic import SoftmaxLayer, one_hot, sigmoid, softmax


class TestPrimitives:
    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        probs = softmax(rng.normal(0, 10, size=(5, 4)))
        assert np.allclose(probs.sum(axis=1), 1.0)

    def test_softmax_stable_for_large_logits(self):
        probs = softmax(np.array([[1000.0, 0.0]]))
        assert np.isfinite(probs).all()
        assert probs[0, 0] == pytest.approx(1.0)

    def test_sigmoid_symmetry(self):
        xs = np.linspace(-5, 5, 11)
        assert np.allclose(sigmoid(xs) + sigmoid(-xs), 1.0)

    def test_sigmoid_extremes(self):
        assert sigmoid(np.array([-800.0]))[0] == pytest.approx(0.0, abs=1e-12)
        assert sigmoid(np.array([800.0]))[0] == pytest.approx(1.0, abs=1e-12)

    def test_one_hot(self):
        out = one_hot(np.array([0, 2, 1]), 3)
        assert out.tolist() == [[1, 0, 0], [0, 0, 1], [0, 1, 0]]

    def test_one_hot_rejects_out_of_range(self):
        with pytest.raises(ModelError):
            one_hot(np.array([3]), 3)


class TestSoftmaxLayer:
    def test_learns_separable_classes(self):
        rng = np.random.default_rng(1)
        centers = np.array([[3.0, 0.0], [-3.0, 0.0], [0.0, 3.0]])
        x = np.vstack([rng.normal(c, 0.3, size=(40, 2)) for c in centers])
        y = np.repeat(np.arange(3), 40)
        layer = SoftmaxLayer(2, 3)
        losses = layer.fit(x, y)
        assert losses[-1] < losses[0]
        assert (layer.predict(x) == y).mean() > 0.95

    def test_predict_before_fit_raises(self):
        layer = SoftmaxLayer(2, 3)
        with pytest.raises(NotTrainedError):
            layer.predict(np.zeros((1, 2)))

    def test_proba_shape_and_simplex(self):
        rng = np.random.default_rng(2)
        x = rng.random((20, 4))
        y = rng.integers(0, 2, 20)
        layer = SoftmaxLayer(4, 2)
        layer.fit(x, y)
        probs = layer.predict_proba(x)
        assert probs.shape == (20, 2)
        assert np.allclose(probs.sum(axis=1), 1.0)

    def test_rejects_wrong_width(self):
        layer = SoftmaxLayer(4, 2)
        layer.fit(np.zeros((4, 4)), np.array([0, 1, 0, 1]))
        with pytest.raises(ModelError):
            layer.predict(np.zeros((2, 3)))

    def test_rejects_bad_config(self):
        with pytest.raises(ModelError):
            SoftmaxLayer(0, 2)
        with pytest.raises(ModelError):
            SoftmaxLayer(4, 1)
