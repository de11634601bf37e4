"""Deep belief network: stacked RBMs + softmax head, greedy pretraining.

This is the paper's taillight classifier: "a DBN with 81 visible inputs
corresponding to the binary values of a 9x9 window of the image ... two
hidden layers with 20 and 8 hidden nodes ... the final output layer consists
of 4 nodes which determine the size and shape class of taillights."

Training follows the classical recipe, one fixed set of constants: greedy
layer-wise CD-1 pretraining of each RBM on the previous layer's hidden
probabilities (layer ``i`` seeded ``i``), then supervised training of the
softmax head, then :data:`FINETUNE_EPOCHS` of backprop fine-tuning through
the whole stack.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError, NotTrainedError
from repro.ml.logistic import SoftmaxLayer, one_hot, sigmoid, softmax
from repro.ml.rbm import Rbm

# The paper's architecture, verbatim: 9x9 binary window -> 20 -> 8 -> 4.
PAPER_DBN_LAYERS = (81, 20, 8)
PAPER_DBN_CLASSES = 4
#: Full-batch backprop epochs through the whole stack.
FINETUNE_EPOCHS = 400
#: Backprop learning rate.
FINETUNE_RATE = 0.5


class DeepBeliefNetwork:
    """The paper's 81-20-8-4 stacked-RBM classifier, pretrained then fine-tuned."""

    def __init__(self):
        layers = PAPER_DBN_LAYERS
        self.rbms = [Rbm(layers[i], layers[i + 1], seed=i) for i in range(len(layers) - 1)]
        self.head = SoftmaxLayer(layers[-1], PAPER_DBN_CLASSES)
        self._trained = False

    @property
    def n_visible(self) -> int:
        return PAPER_DBN_LAYERS[0]

    # Representation -------------------------------------------------------

    def transform(self, data: np.ndarray) -> np.ndarray:
        """Propagate mean-field activations up to the top hidden layer."""
        acts = np.atleast_2d(np.asarray(data, dtype=np.float64))
        if acts.shape[1] != self.n_visible:
            raise ModelError(
                f"input width {acts.shape[1]} != visible units {self.n_visible}"
            )
        for rbm in self.rbms:
            acts = rbm.hidden_probabilities(acts)
        return acts

    # Training --------------------------------------------------------------

    def pretrain(self, data: np.ndarray) -> list[list[float]]:
        """Greedy layer-wise CD pretraining; returns per-layer error traces."""
        acts = np.atleast_2d(np.asarray(data, dtype=np.float64))
        traces: list[list[float]] = []
        for rbm in self.rbms:
            traces.append(rbm.fit(acts))
            acts = rbm.hidden_probabilities(acts)
        return traces

    def fit(self, data: np.ndarray, labels: np.ndarray) -> dict:
        """Pretrain, train the head, and fine-tune.

        Args:
            data: (N, n_visible) binary (or [0,1]) windows.
            labels: (N,) integer class labels in [0, PAPER_DBN_CLASSES).

        Returns:
            Training report: RBM error traces, head losses, fine-tune losses.
        """
        x = np.atleast_2d(np.asarray(data, dtype=np.float64))
        y = np.asarray(labels, dtype=np.int64).ravel()
        if x.shape[0] != y.size:
            raise ModelError(f"{x.shape[0]} samples but {y.size} labels")
        rbm_traces = self.pretrain(x)
        top = self.transform(x)
        head_losses = self.head.fit(top, y)
        finetune_losses = self._finetune(x, y)
        self._trained = True
        return {
            "rbm_errors": rbm_traces,
            "head_losses": head_losses,
            "finetune_losses": finetune_losses,
        }

    def _finetune(self, x: np.ndarray, y: np.ndarray) -> list[float]:
        """Full-stack backprop on cross-entropy (sigmoid hiddens, softmax out)."""
        targets = one_hot(y, PAPER_DBN_CLASSES)
        n = x.shape[0]
        rate = FINETUNE_RATE
        losses: list[float] = []
        for _ in range(FINETUNE_EPOCHS):
            # Forward pass, keeping activations per layer.
            activations = [x]
            for rbm in self.rbms:
                activations.append(sigmoid(activations[-1] @ rbm.weights + rbm.hidden_bias))
            probs = softmax(activations[-1] @ self.head.weights + self.head.bias)
            loss = -np.mean(np.sum(targets * np.log(probs + 1e-12), axis=1))
            losses.append(float(loss))
            # Backward pass.
            delta = (probs - targets) / n
            grad_w_head = activations[-1].T @ delta
            grad_b_head = delta.sum(axis=0)
            back = delta @ self.head.weights.T
            self.head.weights -= rate * grad_w_head
            self.head.bias -= rate * grad_b_head
            for idx in range(len(self.rbms) - 1, -1, -1):
                act = activations[idx + 1]
                delta_h = back * act * (1.0 - act)
                grad_w = activations[idx].T @ delta_h
                grad_b = delta_h.sum(axis=0)
                if idx:  # the input layer passes no error further down
                    back = delta_h @ self.rbms[idx].weights.T
                self.rbms[idx].weights -= rate * grad_w
                self.rbms[idx].hidden_bias -= rate * grad_b
        return losses

    # Prediction -------------------------------------------------------------

    def predict_proba(self, data: np.ndarray) -> np.ndarray:
        """(N, PAPER_DBN_CLASSES) class probabilities."""
        if not self._trained:
            raise NotTrainedError("DeepBeliefNetwork has not been fit")
        return self.head.predict_proba(self.transform(data))

    def predict(self, data: np.ndarray) -> np.ndarray:
        """Most probable class per sample."""
        return np.argmax(self.predict_proba(data), axis=1)

    def decision_batch(self, data: np.ndarray) -> np.ndarray:
        """Raw head logits for a strict (N, n_visible) batch.

        The whole stack runs as one GEMM per layer through the
        batch-size-invariant kernels, so row ``i`` is bitwise independent
        of the batch it rides in — the property the dark pipeline's
        reference-vs-batched equivalence tests rely on.
        """
        if not self._trained:
            raise NotTrainedError("DeepBeliefNetwork has not been fit")
        x = np.asarray(data, dtype=np.float64)
        if x.ndim != 2:
            raise ModelError(f"decision_batch needs (N, {self.n_visible}), got {x.shape}")
        return self.head.decision_batch(self.transform(x))

    def predict_batch(self, data: np.ndarray) -> np.ndarray:
        """Most probable class per row for a strict (N, n_visible) batch."""
        return np.argmax(self.decision_batch(data), axis=1)

    def score(self, data: np.ndarray, labels: np.ndarray) -> float:
        """Classification accuracy on a labelled set."""
        y = np.asarray(labels, dtype=np.int64).ravel()
        return float(np.mean(self.predict(data) == y))
