"""Tests for repro.ml.dbn: the 81-20-8-4 taillight classifier."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ModelError, NotTrainedError
from repro.ml.dbn import PAPER_DBN_CLASSES, PAPER_DBN_LAYERS, DeepBeliefNetwork
from repro.ml.rbm import RBM_EPOCHS


@pytest.fixture(scope="module")
def fitted():
    """One DBN fit on the corpus size the dark pipeline trains with."""
    from repro.datasets.synthetic import make_taillight_windows

    x, y = make_taillight_windows(n_per_class=250, seed=1)
    dbn = DeepBeliefNetwork()
    report = dbn.fit(x, y)
    return dbn, report, x, y


class TestArchitecture:
    def test_paper_architecture_constants(self):
        assert PAPER_DBN_LAYERS == (81, 20, 8)
        assert PAPER_DBN_CLASSES == 4

    def test_default_builds_paper_stack(self):
        dbn = DeepBeliefNetwork()
        assert len(dbn.rbms) == 2
        assert dbn.rbms[0].weights.shape == (81, 20)
        assert dbn.rbms[1].weights.shape == (20, 8)
        assert dbn.head.weights.shape == (8, 4)


class TestTraining:
    def test_learns_taillight_windows(self, fitted):
        dbn, report, x, y = fitted
        assert dbn.score(x, y) > 0.8
        assert len(report["rbm_errors"]) == 2
        assert report["finetune_losses"][-1] <= report["finetune_losses"][0]

    def test_transform_shape(self):
        dbn = DeepBeliefNetwork()
        out = dbn.transform(np.zeros((5, 81)))
        assert out.shape == (5, 8)

    def test_transform_rejects_wrong_width(self):
        dbn = DeepBeliefNetwork()
        with pytest.raises(ModelError):
            dbn.transform(np.zeros((2, 80)))

    def test_predict_before_fit_raises(self):
        dbn = DeepBeliefNetwork()
        with pytest.raises(NotTrainedError):
            dbn.predict(np.zeros((1, 81)))

    def test_fit_rejects_misaligned_labels(self):
        dbn = DeepBeliefNetwork()
        with pytest.raises(ModelError):
            dbn.fit(np.zeros((4, 81)), np.zeros(3, dtype=int))

    def test_proba_simplex(self, fitted):
        dbn, _, x, _ = fitted
        probs = dbn.predict_proba(x[:10])
        assert probs.shape == (10, 4)
        assert np.allclose(probs.sum(axis=1), 1.0)

    def test_deterministic_given_seed(self):
        from repro.datasets.synthetic import make_taillight_windows

        # Layer i's RBM is seeded i, the head 0: two fits are one model.
        x, y = make_taillight_windows(n_per_class=30, seed=3)
        a = DeepBeliefNetwork()
        b = DeepBeliefNetwork()
        a.fit(x, y)
        b.fit(x, y)
        assert np.array_equal(a.predict(x), b.predict(x))

    def test_pretraining_without_labels(self):
        rng = np.random.default_rng(4)
        data = (rng.random((60, 81)) < 0.3).astype(float)
        dbn = DeepBeliefNetwork()
        traces = dbn.pretrain(data)
        assert len(traces) == 2
        assert all(len(t) == RBM_EPOCHS for t in traces)
