"""Differential tests for the detector set-up kernels, bit for bit.

The LibLINEAR dual coordinate descent loop runs on Python floats, the
logistic takes one ``exp`` pass, and the convolution replicates edges
without ``np.pad``.  Each is pinned here to the straightforward oracle in
:mod:`tests.equivalence.references`: weights, bias and solver statistics
of every SVM, every logistic value, every convolved pixel.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.synthetic import make_pedestrian_frames, make_taillight_windows
from repro.experiments.common import build_corpora
from repro.imaging.filters import convolve2d, convolve_separable, gaussian_blur, gaussian_kernel1d
from repro.ml import dbn as dbn_module
from repro.ml import rbm as rbm_module
from repro.ml import svm as svm_module
from repro.ml.dbn import DeepBeliefNetwork
from repro.ml.logistic import sigmoid
from repro.ml.svm import LinearSvm, SvmConfig
from repro.pipelines.day_dusk import train_condition_models
from repro.pipelines.pedestrian import PedestrianDetector
from repro.pipelines.taillight import TaillightPairMatcher, make_pair_training_set
from tests.equivalence.references import (
    convolve2d_reference,
    sigmoid_reference,
    svm_train_reference,
)

pytestmark = pytest.mark.equivalence


def assert_same_model(got, want) -> None:
    assert got.weights.dtype == want.weights.dtype and got.weights.shape == want.weights.shape
    assert got.weights.tobytes() == want.weights.tobytes()
    assert np.float64(got.bias).tobytes() == np.float64(want.bias).tobytes()
    assert got.meta == want.meta


def blobs(n: int, d: int, separation: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Two Gaussian clouds ``separation`` apart along every axis."""
    rng = np.random.default_rng(seed)
    labels = np.where(rng.random(n) < 0.5, 1, -1)
    features = rng.normal(size=(n, d)) + 0.5 * separation * labels[:, None]
    return features, labels


class TestSvmAgainstOracle:
    @pytest.mark.parametrize("c", [0.01, 1.0, 100.0])
    def test_each_c(self, c):
        features, labels = blobs(120, 9, separation=1.0, seed=3)
        config = SvmConfig(c=c)
        assert_same_model(
            LinearSvm(config).train(features, labels, name="x"),
            svm_train_reference(config, features, labels, name="x"),
        )

    def test_shrinking_and_reactivation(self):
        # Well separated clouds: most points leave the active set, and the
        # solver converges on the shrunken set before re-activating all.
        features, labels = blobs(300, 4, separation=4.0, seed=5)
        config = SvmConfig(c=1.0)
        events: list[str] = []
        want = svm_train_reference(config, features, labels, name="x", events=events)
        assert "shrink" in events and "reactivate" in events
        assert_same_model(LinearSvm(config).train(features, labels, name="x"), want)

    def test_max_iter_cap_and_non_contiguous_rows(self, monkeypatch):
        features, labels = blobs(80, 6, separation=0.3, seed=9)
        features = np.asfortranarray(features)
        monkeypatch.setattr(svm_module, "SVM_MAX_ITER", 3)
        config = SvmConfig(c=10.0)
        got = LinearSvm(config).train(features, labels)
        assert got.meta["epochs"] == 3
        assert_same_model(got, svm_train_reference(config, features, labels))

    def test_the_five_setup_training_sets(self, monkeypatch):
        """Day, dusk, combined, pedestrian and taillight-pair SVMs at small scale."""
        recorded = []
        train = LinearSvm.train

        def spy(self, features, labels, name="svm"):
            model = train(self, features, labels, name=name)
            recorded.append((self.config, np.array(features), np.array(labels), name, model))
            return model

        monkeypatch.setattr(LinearSvm, "train", spy)
        corpora = build_corpora(scale=0.05, seed=0)
        train_condition_models(corpora.day_train, corpora.dusk_train)
        PedestrianDetector().train_from_frames(
            make_pedestrian_frames(n_frames=2, height=180, width=320, seed=41), seed=42
        )
        matcher = TaillightPairMatcher()
        matcher.train(*make_pair_training_set(n_per_class=80, seed=11))
        monkeypatch.undo()
        assert [r[3] for r in recorded] == [
            "day",
            "dusk",
            "combined",
            "pedestrian",
            "taillight-pair",
        ]
        for config, features, labels, name, model in recorded:
            # ``meta`` gains ``train_corpus`` after training; compare the
            # solver's own output.
            got = LinearSvm(config).train(features, labels, name=name)
            assert_same_model(got, svm_train_reference(config, features, labels, name=name))
            assert got.weights.tobytes() == model.weights.tobytes()


SPECIALS = np.array(
    [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 745.0, -745.0, 746.0, -746.0, 5e-324, -5e-324]
)


class TestSigmoidAgainstOracle:
    @pytest.mark.parametrize(
        "values",
        [
            SPECIALS,
            SPECIALS.reshape(3, 4).T,
            np.random.default_rng(0).normal(0.0, 30.0, size=(37, 20)),
            np.array(2.5),
            np.zeros((0, 8)),
        ],
        ids=["specials", "transposed", "random", "scalar", "empty"],
    )
    def test_bitwise(self, values):
        got, want = sigmoid(values), sigmoid_reference(values)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_nan_payloads_survive(self):
        bits = np.array(
            [0x7FF8000000000001, 0xFFF8000000000002, 0x7FF4000000000000], dtype=np.uint64
        )
        values = np.concatenate([bits.view(np.float64), SPECIALS])
        assert sigmoid(values).tobytes() == sigmoid_reference(values).tobytes()

    def test_dbn_training_matches_the_oracle_logistic(self, monkeypatch):
        windows, labels = make_taillight_windows(n_per_class=30, seed=2)
        fast = DeepBeliefNetwork()
        fast.fit(windows, labels)
        monkeypatch.setattr(rbm_module, "sigmoid", sigmoid_reference)
        monkeypatch.setattr(dbn_module, "sigmoid", sigmoid_reference)
        slow = DeepBeliefNetwork()
        slow.fit(windows, labels)
        for a, b in zip(fast.rbms, slow.rbms):
            assert a.weights.tobytes() == b.weights.tobytes()
            assert a.hidden_bias.tobytes() == b.hidden_bias.tobytes()
            assert a.visible_bias.tobytes() == b.visible_bias.tobytes()
        assert fast.head.weights.tobytes() == slow.head.weights.tobytes()
        assert fast.head.bias.tobytes() == slow.head.bias.tobytes()


class TestConvolveAgainstOracle:
    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (6, 7), (2, 3)])
    @pytest.mark.parametrize("kernel_shape", [(1, 1), (3, 3), (1, 9), (9, 1), (7, 5), (11, 11)])
    def test_bitwise(self, shape, kernel_shape):
        rng = np.random.default_rng(sum(shape) * 31 + sum(kernel_shape))
        image = rng.random(shape)
        kernel = rng.normal(size=kernel_shape)
        got, want = convolve2d(image, kernel), convolve2d_reference(image, kernel)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", [(64, 64), (1, 5), (5, 1), (3, 2)])
    @pytest.mark.parametrize("sigma", [0.45, 0.9, 1.4])
    def test_blurring_channels_at_once_equals_each_alone(self, shape, sigma):
        rng = np.random.default_rng(7)
        image = rng.random(shape + (3,))
        taps = gaussian_kernel1d(sigma)
        col, row = taps.reshape(-1, 1), taps.reshape(1, -1)
        want = np.stack(
            [convolve2d_reference(convolve2d_reference(image[..., c], col), row) for c in range(3)],
            axis=-1,
        )
        got = gaussian_blur(image, sigma)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        plane = image[..., 0]
        assert gaussian_blur(plane, sigma).tobytes() == want[..., 0].copy().tobytes()
        assert convolve_separable(plane, taps, taps).tobytes() == want[..., 0].copy().tobytes()
