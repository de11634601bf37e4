"""Softmax / logistic output layer used as the DBN's supervised head.

The DBN of the paper has "a final output layer [of] 4 nodes which determine
the size and shape class of taillights" — a multinomial classifier stacked on
the top RBM's hidden activations.  Trained with plain batch gradient descent
on the cross-entropy loss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ModelError, NotTrainedError
from repro.ml.kernels import affine_matrix, ensure_rows
from repro.rng import make_rng


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise numerically stable softmax."""
    arr = np.asarray(logits, dtype=np.float64)
    shifted = arr - arr.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Elementwise logistic function, stable for large |x|.

    With ``e = exp(-|x|)`` it is ``1/(1+e)`` where ``x >= 0`` and
    ``e/(1+e)`` elsewhere: one ``exp`` pass and no boolean indexing, and
    per element the value of each branch evaluated on its own mask.
    """
    arr = np.asarray(x, dtype=np.float64)
    # min(x, -x) is -|x|, and a NaN stays the NaN the e/(1+e) branch reads.
    e = np.exp(np.minimum(arr, -arr))
    return np.where(arr >= 0, 1.0, e) / (1.0 + e)


def one_hot(labels: np.ndarray, n_classes: int) -> np.ndarray:
    """(N,) int labels -> (N, n_classes) one-hot floats."""
    y = np.asarray(labels, dtype=np.int64).ravel()
    if y.size == 0:
        raise ModelError("labels must be non-empty")
    if y.min() < 0 or y.max() >= n_classes:
        raise ModelError(f"labels must be in [0, {n_classes}), got range [{y.min()}, {y.max()}]")
    out = np.zeros((y.size, n_classes), dtype=np.float64)
    out[np.arange(y.size), y] = 1.0
    return out


#: Gradient-descent step of the softmax head.
SOFTMAX_LEARNING_RATE = 0.5
#: Full-batch epochs of the softmax head.
SOFTMAX_EPOCHS = 200
#: L2 penalty on the head's weights.
SOFTMAX_L2 = 1e-4
#: RNG seed of the head's weight init.
SOFTMAX_SEED = 0


@dataclass
class SoftmaxLayer:
    """Multinomial logistic regression: ``p = softmax(x W + b)``."""

    n_inputs: int
    n_classes: int

    def __post_init__(self) -> None:
        if self.n_inputs < 1 or self.n_classes < 2:
            raise ModelError(
                f"need n_inputs >= 1 and n_classes >= 2, got {self.n_inputs}, {self.n_classes}"
            )
        rng = make_rng(SOFTMAX_SEED)
        self.weights = rng.normal(0.0, 0.01, size=(self.n_inputs, self.n_classes))
        self.bias = np.zeros(self.n_classes)
        self._trained = False

    def fit(self, features: np.ndarray, labels: np.ndarray) -> list[float]:
        """Batch gradient descent on cross-entropy; returns the loss trace."""
        x = np.asarray(features, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.n_inputs:
            raise ModelError(f"features must be (N, {self.n_inputs}), got {x.shape}")
        targets = one_hot(labels, self.n_classes)
        if targets.shape[0] != x.shape[0]:
            raise ModelError("features and labels must align")
        n = x.shape[0]
        losses: list[float] = []
        for _ in range(SOFTMAX_EPOCHS):
            probs = softmax(x @ self.weights + self.bias)
            err = probs - targets
            grad_w = x.T @ err / n + SOFTMAX_L2 * self.weights
            grad_b = err.mean(axis=0)
            self.weights -= SOFTMAX_LEARNING_RATE * grad_w
            self.bias -= SOFTMAX_LEARNING_RATE * grad_b
            loss = -np.mean(np.sum(targets * np.log(probs + 1e-12), axis=1))
            losses.append(float(loss + 0.5 * SOFTMAX_L2 * np.sum(self.weights**2)))
        self._trained = True
        return losses

    def decision_batch(self, features: np.ndarray) -> np.ndarray:
        """Raw logits for a strict (N, n_inputs) batch — one GEMM, no loop.

        Routed through the batch-size-invariant kernel so a row's logits do
        not depend on how many other rows share the batch (the contract the
        equivalence suite pins for the DBN sliding-window scan).
        """
        if not self._trained:
            raise NotTrainedError("SoftmaxLayer has not been fit")
        x = ensure_rows(features, self.n_inputs)
        return affine_matrix(x, self.weights, self.bias)

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """(N, n_classes) class probabilities."""
        if not self._trained:
            raise NotTrainedError("SoftmaxLayer has not been fit")
        x = np.atleast_2d(np.asarray(features, dtype=np.float64))
        if x.shape[1] != self.n_inputs:
            raise ModelError(f"features must be (N, {self.n_inputs}), got {x.shape}")
        return softmax(self.decision_batch(x))

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Most probable class per row."""
        return np.argmax(self.predict_proba(features), axis=1)
