"""Per-window reference scans: the oracles the batched hot paths are pinned to.

Production code has one scan path per pipeline: ``scan_windows`` gathers
and scores windows in one ``decision_batch`` call, and
``DarkVehicleDetector.dbn_grid`` classifies occupied windows in
``predict_batch`` chunks.  The straightforward shapes they replaced live
here — slice, score, threshold, one window at a time — and
:func:`reference_scans` swaps them in for the hot path, so a differential
test runs one detector with and without it and compares the bytes.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

import numpy as np
import pytest

from repro.errors import PipelineError
from repro.features.hog import HogDescriptor
from repro.imaging.geometry import Rect
from repro.ml.linear import LinearModel
from repro.pipelines import day_dusk, pedestrian
from repro.pipelines.dark import DBN_STRIDE, DBN_WINDOW, DarkVehicleDetector


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

    Rebinds the ``scan_windows`` name the day/dusk and pedestrian modules
    imported, and ``DarkVehicleDetector.dbn_grid`` on the class; everything
    else — front ends, NMS, candidate extraction, pair matching — stays the
    production code.  The HOG oracle computes its blocks from the plane, so
    it bypasses the blocks shared between partitions.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(day_dusk, "scan_windows", scan_windows_reference)
        patch.setattr(pedestrian, "scan_windows", scan_windows_reference)
        patch.setattr(DarkVehicleDetector, "dbn_grid", dbn_grid_reference)
        yield
