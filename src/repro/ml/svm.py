"""Linear SVM trained by dual coordinate descent — the LibLINEAR algorithm.

The paper trains its day / dusk / combined vehicle models and the pedestrian
model with LibLINEAR [16].  This module implements LibLINEAR's default
solver, dual coordinate descent for L2-regularised L1- or L2-loss SVC
(Hsieh et al., ICML 2008), from scratch on numpy:

    min_a  1/2 a^T Q a - e^T a
    s.t.   0 <= a_i <= U          (U = C for L1 loss, inf for L2 loss)

with Q_ij = y_i y_j x_i.x_j (+ diag D/(2C) for L2 loss), maintaining
w = sum_i a_i y_i x_i so every coordinate update is O(D).

A bias term is handled LibLINEAR-style by augmenting each sample with a
constant feature of 1.0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ModelError
from repro.ml.linear import LinearModel, validate_training_set
from repro.rng import make_rng


@dataclass(frozen=True)
class SvmConfig:
    """Solver parameters.

    Attributes:
        c: Regularisation strength (LibLINEAR -c), larger = less regularised.
        loss: "l2" (default, LibLINEAR -s 1) or "l1" hinge loss.
        tolerance: Stop when the projected-gradient spread falls below this.
        max_iter: Hard cap on outer epochs over the data.
        bias_scale: Value of the augmented bias feature (LibLINEAR -B).
        seed: RNG seed for coordinate permutation.
    """

    c: float = 1.0
    loss: str = "l2"
    tolerance: float = 1e-3
    max_iter: int = 1000
    bias_scale: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.c <= 0:
            raise ModelError(f"C must be positive, got {self.c}")
        if self.loss not in ("l1", "l2"):
            raise ModelError(f"loss must be 'l1' or 'l2', got {self.loss!r}")
        if self.tolerance <= 0:
            raise ModelError(f"tolerance must be positive, got {self.tolerance}")
        if self.max_iter < 1:
            raise ModelError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.bias_scale < 0:
            raise ModelError(f"bias_scale must be >= 0, got {self.bias_scale}")


class LinearSvm:
    """L2-regularised linear SVM with a LibLINEAR-style dual solver."""

    def __init__(self, config: SvmConfig | None = None):
        self.config = config or SvmConfig()

    def train(self, features: np.ndarray, labels: np.ndarray, name: str = "svm") -> LinearModel:
        """Fit on (N, D) features with +1/-1 labels; returns a LinearModel.

        The returned model's ``meta`` records solver statistics (epochs,
        final PG spread, support-vector count) and the given model ``name``
        so experiment reports can identify day/dusk/combined models.
        """
        x, y = validate_training_set(features, labels)
        cfg = self.config
        n, d = x.shape
        if cfg.bias_scale > 0:
            x = np.hstack([x, np.full((n, 1), cfg.bias_scale)])
        rng = make_rng(cfg.seed)

        if cfg.loss == "l1":
            upper = cfg.c
            diag = 0.0
        else:  # l2 loss
            upper = np.inf
            diag = 1.0 / (2.0 * cfg.c)

        # The per-coordinate loop runs on Python floats, which are the same
        # IEEE doubles as the array elements they replace, with the same
        # operations in the same order, so the solution is bitwise that of
        # the loop on numpy scalars.  ``rows[i].dot(w)`` is the BLAS dot
        # ``x[i] @ w`` calls, at less call overhead; the update multiplies
        # into one buffer and then adds, never a fused axpy.
        rows = list(x)
        y_i = y.tolist()
        sq_norm = (np.einsum("ij,ij->i", x, x) + diag).tolist()
        alpha = [0.0] * n
        w = np.zeros(x.shape[1])
        step = np.empty_like(w)
        epochs = 0
        pg_spread = np.inf
        # Shrinking bounds on the projected gradient, as in LibLINEAR.
        pg_max_old, pg_min_old = np.inf, -np.inf
        active = np.arange(n)
        for epoch in range(cfg.max_iter):
            epochs = epoch + 1
            rng.shuffle(active)
            pg_max, pg_min = -np.inf, np.inf
            survivors = []
            for i in active.tolist():
                old = alpha[i]
                grad = y_i[i] * float(rows[i].dot(w)) - 1.0 + diag * old
                # Projected gradient.
                if old == 0.0:
                    if grad > pg_max_old:
                        continue  # shrink
                    pg = 0.0 if grad > 0.0 else grad
                elif old >= upper:
                    if grad < pg_min_old:
                        continue  # shrink
                    pg = 0.0 if grad < 0.0 else grad
                else:
                    pg = grad
                survivors.append(i)
                if pg > pg_max:
                    pg_max = pg
                if pg < pg_min:
                    pg_min = pg
                if abs(pg) > 1e-14:
                    new = old - grad / sq_norm[i]
                    if new < 0.0:
                        new = 0.0
                    if new > upper:
                        new = upper
                    alpha[i] = new
                    delta = (new - old) * y_i[i]
                    if delta != 0.0:
                        np.multiply(rows[i], delta, out=step)
                        w += step
            pg_spread = pg_max - pg_min
            if pg_spread <= cfg.tolerance:
                if len(survivors) == n:
                    break
                # Converged on the shrunken set; re-activate everything.
                active = np.arange(n)
                pg_max_old, pg_min_old = np.inf, -np.inf
                continue
            active = np.asarray(survivors if survivors else range(n))
            pg_max_old = pg_max if pg_max > 0 else np.inf
            pg_min_old = pg_min if pg_min < 0 else -np.inf

        if cfg.bias_scale > 0:
            weights, bias = w[:-1], float(w[-1] * cfg.bias_scale)
        else:
            weights, bias = w, 0.0
        return LinearModel(
            weights=weights,
            bias=bias,
            meta={
                "name": name,
                "solver": f"dual-cd-{cfg.loss}",
                "c": cfg.c,
                "epochs": epochs,
                "pg_spread": float(pg_spread),
                "n_support": sum(a > 1e-12 for a in alpha),
                "n_train": n,
                "n_features": d,
            },
        )


def decision_batch(
    model: LinearModel, features: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Margins of a trained SVM over a strict (N, D) window batch.

    The sliding-window entry point: one batch-invariant GEMV over the dense
    feature matrix replaces N per-window classifier calls.  Delegates to
    :meth:`repro.ml.linear.LinearModel.decision_batch`; exists here so the
    SVM hot path has an importable, greppable front door next to the
    trainer that produced the model.
    """
    return model.decision_batch(features, out=out)


def train_svm(
    features: np.ndarray,
    labels: np.ndarray,
    c: float = 1.0,
    name: str = "svm",
    **kwargs,
) -> LinearModel:
    """Convenience wrapper: train a LinearSvm with the given C."""
    return LinearSvm(SvmConfig(c=c, **kwargs)).train(features, labels, name=name)
