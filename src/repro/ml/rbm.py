"""Restricted Boltzmann machine trained with contrastive divergence.

DBNs are "probabilistic models composed of multiple layers of stochastic,
hidden variables ... separately trained restricted Boltzmann machines which
are stacked on top of each other" (paper, Section III-B).  This module is one
such layer: binary visible and hidden units, CD-1 training (Hinton 2002),
numpy only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ModelError
from repro.ml.kernels import affine_matrix
from repro.ml.logistic import sigmoid
from repro.rng import make_rng


#: Step size of the CD weight update.
RBM_LEARNING_RATE = 0.1
#: Passes over the training data.
RBM_EPOCHS = 20
#: Mini-batch size.
RBM_BATCH_SIZE = 32
#: Classic momentum on the parameter updates.
RBM_MOMENTUM = 0.5
#: L2 penalty on the weights.
RBM_WEIGHT_DECAY = 1e-4


@dataclass
class Rbm:
    """Bernoulli-Bernoulli RBM.

    Attributes:
        n_visible: Visible units (81 for the paper's 9x9 binary window).
        n_hidden: Hidden units (20 then 8 in the paper's stack).
        seed: RNG seed of the weight init and the Gibbs sampling.
    """

    n_visible: int
    n_hidden: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_visible < 1 or self.n_hidden < 1:
            raise ModelError(
                f"unit counts must be >= 1, got visible={self.n_visible}, hidden={self.n_hidden}"
            )
        rng = make_rng(self.seed)
        self.weights = rng.normal(0.0, 0.01, size=(self.n_visible, self.n_hidden))
        self.visible_bias = np.zeros(self.n_visible)
        self.hidden_bias = np.zeros(self.n_hidden)
        self._rng = rng

    # Inference ----------------------------------------------------------

    def hidden_probabilities(self, visible: np.ndarray) -> np.ndarray:
        """P(h=1 | v) for a batch of visible vectors.

        Uses the batch-size-invariant kernel: this is the DBN's inference
        up-pass, so a window propagated alone must equal the same window
        propagated inside the sliding-scan batch, bit for bit.
        """
        v = self._check_batch(visible, self.n_visible, "visible")
        return sigmoid(affine_matrix(v, self.weights, self.hidden_bias))

    def visible_probabilities(self, hidden: np.ndarray) -> np.ndarray:
        """P(v=1 | h) for a batch of hidden vectors."""
        h = self._check_batch(hidden, self.n_hidden, "hidden")
        return sigmoid(h @ self.weights.T + self.visible_bias)

    # Training -----------------------------------------------------------

    def fit(self, data: np.ndarray) -> list[float]:
        """CD-1 training; returns per-epoch mean reconstruction error."""
        v0 = self._check_batch(data, self.n_visible, "data")
        if not np.all((v0 >= 0.0) & (v0 <= 1.0)):
            raise ModelError("RBM training data must lie in [0, 1]")
        n = v0.shape[0]
        inc_w = np.zeros_like(self.weights)
        inc_vb = np.zeros_like(self.visible_bias)
        inc_hb = np.zeros_like(self.hidden_bias)
        errors: list[float] = []
        for _ in range(RBM_EPOCHS):
            order = self._rng.permutation(n)
            epoch_err = 0.0
            for start in range(0, n, RBM_BATCH_SIZE):
                batch = v0[order[start : start + RBM_BATCH_SIZE]]
                h_prob0 = self.hidden_probabilities(batch)
                h_state = (self._rng.random(h_prob0.shape) < h_prob0).astype(np.float64)
                v_model = self.visible_probabilities(h_state)
                h_prob = self.hidden_probabilities(v_model)
                # The negative phase's hidden sample is never read, but its
                # draw advances the Gibbs stream the next batch samples from.
                self._rng.random(h_prob.shape)
                m = batch.shape[0]
                grad_w = (batch.T @ h_prob0 - v_model.T @ h_prob) / m
                grad_vb = (batch - v_model).mean(axis=0)
                grad_hb = (h_prob0 - h_prob).mean(axis=0)
                inc_w = RBM_MOMENTUM * inc_w + RBM_LEARNING_RATE * (
                    grad_w - RBM_WEIGHT_DECAY * self.weights
                )
                inc_vb = RBM_MOMENTUM * inc_vb + RBM_LEARNING_RATE * grad_vb
                inc_hb = RBM_MOMENTUM * inc_hb + RBM_LEARNING_RATE * grad_hb
                self.weights += inc_w
                self.visible_bias += inc_vb
                self.hidden_bias += inc_hb
                epoch_err += float(np.sum((batch - v_model) ** 2))
            errors.append(epoch_err / n)
        return errors

    # Helpers --------------------------------------------------------------

    @staticmethod
    def _check_batch(data: np.ndarray, width: int, name: str) -> np.ndarray:
        arr = np.atleast_2d(np.asarray(data, dtype=np.float64))
        if arr.ndim != 2 or arr.shape[1] != width:
            raise ModelError(f"{name} must be (N, {width}), got shape {arr.shape}")
        return arr
