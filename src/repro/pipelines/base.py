"""Shared detection types: detections, the HOG+SVM window scan, pipeline protocol."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

import numpy as np

from repro.features.hog import HogDescriptor
from repro.imaging.geometry import Rect
from repro.ml.linear import LinearModel


@dataclass(frozen=True)
class Detection:
    """One detector output.

    Attributes:
        rect: Location in native frame coordinates.
        score: Detector confidence (SVM margin or pipeline-specific score).
        kind: "vehicle" or "pedestrian".
        extra: Pipeline-specific payload (e.g. taillight centers).
    """

    rect: Rect
    score: float
    kind: str = "vehicle"
    extra: dict = field(default_factory=dict)


@runtime_checkable
class DetectionPipeline(Protocol):
    """What the reconfigurable partition exposes to the system level.

    Both vehicle configurations (HOG+SVM and the dark DBN pipeline) and the
    static pedestrian detector implement this protocol, mirroring the
    paper's requirement that "the two partial configurations have the same
    interface to the other parts of the design".
    """

    name: str

    def detect(self, frame: np.ndarray) -> list[Detection]:
        """Run detection over an (H, W, 3) RGB frame in [0, 1]."""
        ...

    def classify_crop(self, crop: np.ndarray) -> tuple[bool, float]:
        """Classify one window crop; returns (is_target, score)."""
        ...


def scan_windows(
    hog: HogDescriptor,
    plane: np.ndarray,
    model: LinearModel,
    stride: int,
    threshold: float,
) -> tuple[list[Rect], list[float]]:
    """Dense HOG+SVM scan of one luma plane: (rects, scores), no NMS.

    Returns every window on the ``stride`` grid whose margin exceeds
    ``threshold``, in grid order.  It gathers and scores only
    :meth:`~repro.features.hog.DenseHogLayout.candidate_windows`, the
    windows an error bound cannot rule out.  ``decision_batch`` is
    batch-size invariant, so each scored window's margin is bitwise the one
    a full-grid or a window-at-a-time scan computes.
    """
    blocks, layout = hog.extract_dense(plane)
    grid = layout.window_index_grid(stride)
    picked = layout.candidate_windows(blocks, model.weights, model.bias, threshold, stride)
    margins = model.decision_batch(layout.window_feature_matrix(blocks, stride, windows=picked))
    hits = margins > threshold
    rects = [layout.window_rect(int(r), int(c)) for r, c in grid[picked[hits]]]
    return rects, [float(score) for score in margins[hits]]

