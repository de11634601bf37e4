"""Linear SVM trained by dual coordinate descent — the LibLINEAR algorithm.

The paper trains its day / dusk / combined vehicle models and the pedestrian
model with LibLINEAR [16].  This module implements LibLINEAR's default
solver, dual coordinate descent for L2-regularised L2-loss SVC (-s 1;
Hsieh et al., ICML 2008), from scratch on numpy:

    min_a  1/2 a^T (Q + D/(2C)) a - e^T a
    s.t.   a_i >= 0

with Q_ij = y_i y_j x_i.x_j, maintaining w = sum_i a_i y_i x_i so every
coordinate update is O(D).

A bias term is handled LibLINEAR-style by augmenting each sample with a
constant feature of :data:`SVM_BIAS_SCALE`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ModelError
from repro.ml.linear import LinearModel, validate_training_set
from repro.rng import make_rng

#: Stop when the projected-gradient spread falls below this (LibLINEAR -e).
SVM_TOLERANCE = 1e-3
#: Hard cap on outer epochs over the data.
SVM_MAX_ITER = 1000
#: Value of the augmented bias feature (LibLINEAR -B).
SVM_BIAS_SCALE = 1.0
#: RNG seed of the coordinate permutation.
SVM_SEED = 0


@dataclass(frozen=True)
class SvmConfig:
    """Solver parameters.

    Attributes:
        c: Regularisation strength (LibLINEAR -c), larger = less regularised.
    """

    c: float = 1.0

    def __post_init__(self) -> None:
        if self.c <= 0:
            raise ModelError(f"C must be positive, got {self.c}")


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
        x = np.hstack([x, np.full((n, 1), SVM_BIAS_SCALE)])
        rng = make_rng(SVM_SEED)
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
        # Shrinking bound on the projected gradient, as in LibLINEAR.
        pg_max_old = np.inf
        active = np.arange(n)
        for epoch in range(SVM_MAX_ITER):
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
                    alpha[i] = new
                    delta = (new - old) * y_i[i]
                    if delta != 0.0:
                        np.multiply(rows[i], delta, out=step)
                        w += step
            pg_spread = pg_max - pg_min
            if pg_spread <= SVM_TOLERANCE:
                if len(survivors) == n:
                    break
                # Converged on the shrunken set; re-activate everything.
                active = np.arange(n)
                pg_max_old = np.inf
                continue
            active = np.asarray(survivors if survivors else range(n))
            pg_max_old = pg_max if pg_max > 0 else np.inf

        return LinearModel(
            weights=w[:-1],
            bias=float(w[-1] * SVM_BIAS_SCALE),
            meta={
                "name": name,
                "solver": "dual-cd-l2",
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

