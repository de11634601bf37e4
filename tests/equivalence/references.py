"""Straightforward oracles the fast paths are pinned to, bit for bit.

Production code has one scan path per pipeline: ``scan_windows`` gathers
and scores windows in one ``decision_batch`` call, and
``DarkVehicleDetector.dbn_grid`` classifies occupied windows in
``predict_batch`` chunks.  The straightforward shapes they replaced live
here — slice, score, threshold, one window at a time — and
:func:`reference_scans` swaps them in for the hot path, so a differential
test runs one detector with and without it and compares the bytes.

The detector set-up kernels have oracles here too: the dual coordinate
descent loop on numpy arrays (:func:`svm_train_reference`), the masked
logistic (:func:`sigmoid_reference`) and the ``np.pad``-based convolution
(:func:`convolve2d_reference`).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

import numpy as np
import pytest

from repro.errors import ImageError, PipelineError
from repro.features.hog import HogDescriptor
from repro.imaging.geometry import Rect
from repro.imaging.image import ensure_gray
from repro.ml.linear import LinearModel, validate_training_set
from repro.ml.svm import SvmConfig
from repro.pipelines import hog_svm
from repro.pipelines.dark import DBN_STRIDE, DBN_WINDOW, DarkVehicleDetector
from repro.rng import make_rng


def scan_windows_reference(
    hog: HogDescriptor,
    plane: np.ndarray,
    model: LinearModel,
    stride: int,
    threshold: float,
    dense: tuple | None = None,
) -> tuple[list[Rect], list[float]]:
    """Per-window HOG+SVM scan: slice, score, threshold, one at a time.

    It ignores ``dense`` and computes the plane's blocks itself, so the
    oracle never reads the blocks the two partitions share.
    """
    blocks, layout = hog.extract_dense(plane)
    rects, scores = [], []
    for r, c in layout.window_positions(stride):
        score = float(model.decision_values(layout.window_feature(blocks, r, c)))
        if score > threshold:
            rects.append(layout.window_rect(r, c))
            scores.append(score)
    return rects, scores


def dbn_grid_reference(detector: DarkVehicleDetector, mask: np.ndarray) -> np.ndarray:
    """Per-window DBN grid: ``dbn.predict`` on each occupied 9x9 window."""
    detector._require_dbn()
    src = np.asarray(mask, dtype=np.float64)
    if src.ndim != 2:
        raise PipelineError(f"mask must be 2-D, got shape {src.shape}")
    if src.shape[0] < DBN_WINDOW or src.shape[1] < DBN_WINDOW:
        return np.zeros((0, 0), dtype=np.int64)
    view = np.lib.stride_tricks.sliding_window_view(src, (DBN_WINDOW, DBN_WINDOW))
    view = view[::DBN_STRIDE, ::DBN_STRIDE]
    grid = np.zeros(view.shape[:2], dtype=np.int64)
    for i, j in np.ndindex(*grid.shape):
        window = view[i, j].reshape(DBN_WINDOW * DBN_WINDOW)
        if window.any():
            grid[i, j] = int(detector.dbn.predict(window)[0])
    return grid


@contextmanager
def reference_scans() -> Iterator[None]:
    """Run every pipeline's sliding-window stage on the per-window oracles.

    Rebinds the ``scan_windows`` name the HOG+SVM detector's module
    imported, and ``DarkVehicleDetector.dbn_grid`` on the class; everything
    else — front ends, NMS, candidate extraction, pair matching — stays the
    production code.  The HOG oracle computes its blocks from the plane, so
    it bypasses the blocks shared between partitions.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hog_svm, "scan_windows", scan_windows_reference)
        patch.setattr(DarkVehicleDetector, "dbn_grid", dbn_grid_reference)
        yield


# Detector set-up kernels ----------------------------------------------------


def svm_train_reference(
    config: SvmConfig,
    features: np.ndarray,
    labels: np.ndarray,
    name: str = "svm",
    events: list[str] | None = None,
) -> LinearModel:
    """LibLINEAR's dual coordinate descent with every quantity a numpy value.

    ``alpha``, ``y`` and ``sq_norm`` are arrays indexed per coordinate, and
    the ``w`` update is ``w += delta * x[i]``.  ``events``, when given,
    collects "shrink" and "reactivate" as the solver takes those steps.
    """
    events = [] if events is None else events
    x, y = validate_training_set(features, labels)
    cfg = config
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

    sq_norm = np.einsum("ij,ij->i", x, x) + diag
    alpha = np.zeros(n)
    w = np.zeros(x.shape[1])
    epochs = 0
    pg_spread = np.inf
    pg_max_old, pg_min_old = np.inf, -np.inf
    active = np.arange(n)
    for epoch in range(cfg.max_iter):
        epochs = epoch + 1
        rng.shuffle(active)
        pg_max, pg_min = -np.inf, np.inf
        survivors = []
        for i in active:
            grad = y[i] * (x[i] @ w) - 1.0 + diag * alpha[i]
            if alpha[i] == 0.0:
                if grad > pg_max_old:
                    events.append("shrink")
                    continue
                pg = min(grad, 0.0)
            elif alpha[i] >= upper:
                if grad < pg_min_old:
                    events.append("shrink")
                    continue
                pg = max(grad, 0.0)
            else:
                pg = grad
            survivors.append(i)
            pg_max = max(pg_max, pg)
            pg_min = min(pg_min, pg)
            if abs(pg) > 1e-14:
                old = alpha[i]
                alpha[i] = min(max(old - grad / sq_norm[i], 0.0), upper)
                delta = (alpha[i] - old) * y[i]
                if delta != 0.0:
                    w += delta * x[i]
        pg_spread = pg_max - pg_min
        if pg_spread <= cfg.tolerance:
            if len(survivors) == n:
                break
            events.append("reactivate")
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
            "n_support": int(np.count_nonzero(alpha > 1e-12)),
            "n_train": n,
            "n_features": d,
        },
    )


def sigmoid_reference(x: np.ndarray) -> np.ndarray:
    """The logistic by boolean masks: ``1/(1+exp(-x))`` where ``x >= 0``."""
    arr = np.asarray(x, dtype=np.float64)
    out = np.empty_like(arr)
    pos = arr >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-arr[pos]))
    expx = np.exp(arr[~pos])
    out[~pos] = expx / (1.0 + expx)
    return out


def convolve2d_reference(image: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Same-size true convolution over an ``np.pad(mode="edge")`` copy."""
    arr = ensure_gray(image)
    ker = np.asarray(kernel, dtype=np.float64)
    if ker.ndim != 2 or ker.shape[0] % 2 == 0 or ker.shape[1] % 2 == 0:
        raise ImageError(f"kernel must be 2-D with odd sides, got shape {ker.shape}")
    kh, kw = ker.shape
    ry, rx = kh // 2, kw // 2
    padded = np.pad(arr, ((ry, ry), (rx, rx)), mode="edge")
    flipped = ker[::-1, ::-1]
    height, width = arr.shape
    out = np.zeros_like(arr)
    for dy in range(kh):
        for dx in range(kw):
            out += flipped[dy, dx] * padded[dy : dy + height, dx : dx + width]
    return out


def iou_reference(a: Rect, b: Rect) -> float:
    """IoU through the intersection ``Rect`` and the boxes' areas."""
    inter = a.intersection(b)
    if inter is None:
        return 0.0
    return inter.area / (a.area + b.area - inter.area)


def match_detections_reference(
    truths: list[Rect], detections: list[Rect], iou_threshold: float = 0.5
) -> tuple[list[tuple[int, int]], list[int], list[int]]:
    """Greedy matching by repeated search: take the best free pair, again.

    "Best" is the highest IoU at or above the threshold, ties going to
    the lower truth index, then the lower detection index.
    """
    matches: list[tuple[int, int]] = []
    free_t, free_d = set(range(len(truths))), set(range(len(detections)))
    while True:
        best = None
        for ti in sorted(free_t):
            for di in sorted(free_d):
                overlap = iou_reference(truths[ti], detections[di])
                if overlap >= iou_threshold and (best is None or overlap > best[0]):
                    best = (overlap, ti, di)
        if best is None:
            break
        _, ti, di = best
        matches.append((ti, di))
        free_t.discard(ti)
        free_d.discard(di)
    return matches, sorted(free_t), sorted(free_d)
