"""Restricted Boltzmann machine trained with contrastive divergence.

DBNs are "probabilistic models composed of multiple layers of stochastic,
hidden variables ... separately trained restricted Boltzmann machines which
are stacked on top of each other" (paper, Section III-B).  This module is one
such layer: binary visible and hidden units, CD-k training (Hinton 2002),
numpy only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ModelError
from repro.ml.kernels import affine_matrix
from repro.ml.logistic import sigmoid
from repro.rng import make_rng


@dataclass
class RbmConfig:
    """Contrastive-divergence training parameters.

    Attributes:
        learning_rate: Step size for the CD weight update.
        epochs: Passes over the training data.
        batch_size: Mini-batch size.
        cd_k: Gibbs steps per update (CD-1 is standard and sufficient here).
        momentum: Classic momentum on the parameter updates.
        weight_decay: L2 penalty on weights.
        seed: RNG seed (weight init and Gibbs sampling).
    """

    learning_rate: float = 0.1
    epochs: int = 20
    batch_size: int = 32
    cd_k: int = 1
    momentum: float = 0.5
    weight_decay: float = 1e-4
    seed: int = 0

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ModelError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.epochs < 1 or self.batch_size < 1 or self.cd_k < 1:
            raise ModelError("epochs, batch_size and cd_k must be >= 1")
        if not 0.0 <= self.momentum < 1.0:
            raise ModelError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.weight_decay < 0:
            raise ModelError(f"weight_decay must be >= 0, got {self.weight_decay}")


@dataclass
class Rbm:
    """Bernoulli-Bernoulli RBM.

    Attributes:
        n_visible: Visible units (81 for the paper's 9x9 binary window).
        n_hidden: Hidden units (20 then 8 in the paper's stack).
    """

    n_visible: int
    n_hidden: int
    config: RbmConfig = field(default_factory=RbmConfig)

    def __post_init__(self) -> None:
        if self.n_visible < 1 or self.n_hidden < 1:
            raise ModelError(
                f"unit counts must be >= 1, got visible={self.n_visible}, hidden={self.n_hidden}"
            )
        rng = make_rng(self.config.seed)
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
        """CD-k training; returns per-epoch mean reconstruction error."""
        v0 = self._check_batch(data, self.n_visible, "data")
        if not np.all((v0 >= 0.0) & (v0 <= 1.0)):
            raise ModelError("RBM training data must lie in [0, 1]")
        cfg = self.config
        n = v0.shape[0]
        inc_w = np.zeros_like(self.weights)
        inc_vb = np.zeros_like(self.visible_bias)
        inc_hb = np.zeros_like(self.hidden_bias)
        errors: list[float] = []
        for _ in range(cfg.epochs):
            order = self._rng.permutation(n)
            epoch_err = 0.0
            for start in range(0, n, cfg.batch_size):
                batch = v0[order[start : start + cfg.batch_size]]
                h_prob0 = self.hidden_probabilities(batch)
                h_state = (self._rng.random(h_prob0.shape) < h_prob0).astype(np.float64)
                v_model = batch
                h_prob = h_prob0
                for _step in range(cfg.cd_k):
                    v_model = self.visible_probabilities(h_state)
                    h_prob = self.hidden_probabilities(v_model)
                    h_state = (self._rng.random(h_prob.shape) < h_prob).astype(np.float64)
                m = batch.shape[0]
                grad_w = (batch.T @ h_prob0 - v_model.T @ h_prob) / m
                grad_vb = (batch - v_model).mean(axis=0)
                grad_hb = (h_prob0 - h_prob).mean(axis=0)
                inc_w = cfg.momentum * inc_w + cfg.learning_rate * (
                    grad_w - cfg.weight_decay * self.weights
                )
                inc_vb = cfg.momentum * inc_vb + cfg.learning_rate * grad_vb
                inc_hb = cfg.momentum * inc_hb + cfg.learning_rate * grad_hb
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
