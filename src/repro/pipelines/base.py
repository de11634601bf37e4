"""Shared detection types: detections, the HOG+SVM window scan, pipeline protocol."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

import numpy as np

from repro.errors import PipelineError
from repro.features.hog import DenseHogLayout, HogDescriptor
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


#: The latest full-resolution luma plane scanned and its dense blocks, as
#: ``(grid key, plane, blocks)``; see :func:`frame_blocks`.  Module-level
#: because the two partitions' detectors are built apart and share no
#: object.  It is read once and replaced whole, and a hit needs the bytes
#: of the plane stored with the blocks, so no caller or thread can get
#: another plane's blocks from it.
_frame_slot: tuple | None = None


def _same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two float64 planes hold the same bytes.

    Compared as int64, so a NaN equals only a NaN of the same payload and
    -0.0 differs from +0.0.  Fresh frames differ in their first row, so a
    miss rarely reads past it.
    """
    if a.shape != b.shape or a.dtype != np.float64 or b.dtype != np.float64:
        return False
    a, b = a.view(np.int64), b.view(np.int64)
    return bool(np.array_equal(a[0], b[0]) and np.array_equal(a, b))


def frame_blocks(hog: HogDescriptor, plane: np.ndarray) -> tuple[np.ndarray, DenseHogLayout]:
    """``hog.extract_dense(plane)`` for a full-resolution luma plane, shared
    by the two partitions.

    The day/dusk pyramid's level 0 and the pedestrian scan run the same
    front end over the same plane, and the dense blocks depend on cell,
    block, stride, bins and clip, never on the window.  One slot holds the
    latest plane and its blocks.  A call with the same grid and a plane of
    the same bytes gets the stored blocks (read-only); any other call
    computes them and replaces the slot in one assignment.  So a detector
    never depends on the other having run, in either order, and no blocks
    are returned for other bytes.

    The plane is kept by reference and made read-only: pass only a plane
    the caller made itself, such as a detector's own ``luminance`` output.
    A plane holding a NaN or an infinity raises :class:`PipelineError`.
    """
    global _frame_slot
    config = hog.config
    key = (config.cell_size, config.block_size, config.block_stride, config.n_bins, config.clip)
    slot = _frame_slot
    if slot is not None and slot[0] == key and _same_bytes(slot[1], plane):
        blocks = slot[2]
        return blocks, DenseHogLayout(config, blocks.shape[0], blocks.shape[1])
    if not np.isfinite(plane).all():
        raise PipelineError("frame holds a non-finite pixel")
    blocks, layout = hog.extract_dense(plane)
    blocks.flags.writeable = False
    plane.flags.writeable = False
    _frame_slot = (key, plane, blocks)
    return blocks, layout


def scan_windows(
    hog: HogDescriptor,
    plane: np.ndarray,
    model: LinearModel,
    stride: int,
    threshold: float,
    dense: tuple[np.ndarray, DenseHogLayout] | None = None,
) -> tuple[list[Rect], list[float]]:
    """Dense HOG+SVM scan of one luma plane: (rects, scores), no NMS.

    Returns every window on the ``stride`` grid whose margin exceeds
    ``threshold``, in grid order.  It gathers and scores only
    :meth:`~repro.features.hog.DenseHogLayout.candidate_windows`, the
    windows an error bound cannot rule out.  ``decision_batch`` is
    batch-size invariant, so each scored window's margin is bitwise the one
    a full-grid or a window-at-a-time scan computes.

    ``dense`` is the plane's ``hog.extract_dense`` output when the caller
    already has it, as the detectors do for their full-resolution plane
    (:func:`frame_blocks`); otherwise the scan computes it.
    """
    blocks, layout = dense if dense is not None else hog.extract_dense(plane)
    grid = layout.window_index_grid(stride)
    picked = layout.candidate_windows(blocks, model.weights, model.bias, threshold, stride)
    margins = model.decision_batch(layout.window_feature_matrix(blocks, stride, windows=picked))
    hits = margins > threshold
    rects = [layout.window_rect(int(r), int(c)) for r, c in grid[picked[hits]]]
    return rects, [float(score) for score in margins[hits]]
