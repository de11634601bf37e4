"""Batch-size invariance of the scoring kernels — the root of byte identity.

OpenBLAS dispatches matrix products to different micro-kernels by batch
size (an M=1 product is special-cased to a dot), so ``A @ w`` is NOT
bitwise stable across batch sizes.  Every inference scorer therefore routes
through the fixed-order einsum kernels in :mod:`repro.ml.kernels`; these
properties pin the invariance the rest of the suite builds on: a row scored
alone equals the same row scored inside any batch, bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ModelError
from repro.ml.dbn import DeepBeliefNetwork
from repro.ml.kernels import affine_matrix, affine_rows, ensure_rows, square_norm_rows
from repro.ml.linear import LinearModel

pytestmark = pytest.mark.equivalence

dims = st.integers(min_value=1, max_value=40)
batches = st.integers(min_value=1, max_value=17)


def _matrix(rows: int, cols: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).normal(size=(rows, cols))


class TestKernelInvariance:
    @given(n=batches, d=dims, seed=st.integers(min_value=0, max_value=999))
    @settings(max_examples=60, deadline=None)
    def test_affine_rows_row_invariant(self, n, d, seed):
        x = _matrix(n, d, seed)
        w = np.random.default_rng(seed + 1).normal(size=d)
        full = affine_rows(x, w, 0.25)
        for i in range(n):
            alone = affine_rows(x[i : i + 1], w, 0.25)
            assert full[i].tobytes() == alone[0].tobytes()

    @given(n=batches, d=dims, h=dims, seed=st.integers(min_value=0, max_value=999))
    @settings(max_examples=60, deadline=None)
    def test_affine_matrix_row_invariant(self, n, d, h, seed):
        x = _matrix(n, d, seed)
        w = np.random.default_rng(seed + 1).normal(size=(d, h))
        b = np.random.default_rng(seed + 2).normal(size=h)
        full = affine_matrix(x, w, b)
        for i in range(n):
            alone = affine_matrix(x[i : i + 1], w, b)
            assert full[i].tobytes() == alone[0].tobytes()

    @given(n=batches, d=dims, seed=st.integers(min_value=0, max_value=999))
    @settings(max_examples=60, deadline=None)
    def test_square_norm_rows_row_invariant(self, n, d, seed):
        x = _matrix(n, d, seed)
        full = square_norm_rows(x)
        for i in range(n):
            assert full[i].tobytes() == square_norm_rows(x[i : i + 1])[0].tobytes()

    @given(n=batches, seed=st.integers(min_value=0, max_value=999))
    @settings(max_examples=40, deadline=None)
    def test_affine_rows_sublist_invariant(self, n, seed):
        # Any contiguous or strided sub-batch scores identically too —
        # chunked scans (the dark pipeline's DBN_BATCH) rely on this.
        x = _matrix(n, 16, seed)
        w = np.random.default_rng(seed + 1).normal(size=16)
        full = affine_rows(x, w, -0.5)
        half = affine_rows(x[::2], w, -0.5)
        assert full[::2].tobytes() == half.tobytes()


class TestModelInvariance:
    @given(n=batches, d=dims, seed=st.integers(min_value=0, max_value=999))
    @settings(max_examples=40, deadline=None)
    def test_linear_model_single_equals_batch_row(self, n, d, seed):
        rng = np.random.default_rng(seed)
        model = LinearModel(weights=rng.normal(size=d), bias=float(rng.normal()))
        x = rng.normal(size=(n, d))
        batch = model.decision_batch(x)
        for i in range(n):
            alone = float(model.decision_values(x[i]))
            assert np.float64(alone).tobytes() == batch[i].tobytes()

    def test_dbn_single_equals_batch_row(self, trained_dbn):
        dbn, windows = trained_dbn
        batch = dbn.decision_batch(windows)
        for i in range(windows.shape[0]):
            alone = dbn.decision_batch(windows[i : i + 1])
            assert batch[i].tobytes() == alone[0].tobytes()

    def test_dbn_predict_batch_matches_predict(self, trained_dbn):
        dbn, windows = trained_dbn
        assert np.array_equal(dbn.predict_batch(windows), dbn.predict(windows))

    def test_dbn_predict_batch_chunk_invariant(self, trained_dbn):
        dbn, windows = trained_dbn
        full = dbn.predict_batch(windows)
        chunked = np.concatenate(
            [dbn.predict_batch(windows[i : i + 3]) for i in range(0, windows.shape[0], 3)]
        )
        assert np.array_equal(full, chunked)


class TestValidation:
    def test_ensure_rows_rejects_1d(self):
        with pytest.raises(ModelError):
            ensure_rows(np.zeros(4), 4)

    def test_ensure_rows_rejects_width_mismatch(self):
        with pytest.raises(ModelError):
            ensure_rows(np.zeros((2, 3)), 4)

    def test_dbn_decision_batch_rejects_1d(self, trained_dbn):
        dbn, windows = trained_dbn
        with pytest.raises(ModelError):
            dbn.decision_batch(windows[0])


@pytest.fixture(scope="module")
def trained_dbn():
    """A DBN trained on a small corpus, plus a window batch to score."""
    rng = np.random.default_rng(6)
    windows = (rng.random((40, 81)) < 0.3).astype(np.float64)
    labels = rng.integers(0, 4, size=40)
    dbn = DeepBeliefNetwork()
    dbn.fit(windows, labels)
    score_batch = (rng.random((13, 81)) < 0.3).astype(np.float64)
    return dbn, score_batch
