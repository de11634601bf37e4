"""Evaluation: confusion counts, accuracy (paper Eq. 1), detection matching.

The paper reports Accuracy = (TP + TN) / (TP + TN + FP + FN) together with
the four raw counts (Table I); :class:`~repro.confusion.ConfusionCounts` is
exactly that row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.confusion import ConfusionCounts
from repro.errors import PipelineError
from repro.imaging.geometry import Rect, match_detections
from repro.pipelines.base import Detection, DetectionPipeline

if TYPE_CHECKING:  # imported for annotations only; avoids a package cycle
    from repro.datasets.samples import ClassificationDataset
    from repro.datasets.scene import SceneFrame


def confusion_from_predictions(labels: np.ndarray, predictions: np.ndarray) -> ConfusionCounts:
    """Counts from +1/-1 truth labels and +1/-1 predictions."""
    y = np.asarray(labels).ravel()
    p = np.asarray(predictions).ravel()
    if y.shape != p.shape:
        raise PipelineError(f"labels {y.shape} and predictions {p.shape} must align")
    return ConfusionCounts(
        tp=int(np.count_nonzero((y == 1) & (p == 1))),
        tn=int(np.count_nonzero((y == -1) & (p == -1))),
        fp=int(np.count_nonzero((y == -1) & (p == 1))),
        fn=int(np.count_nonzero((y == 1) & (p == -1))),
    )


def evaluate_crop_classifier(
    pipeline: DetectionPipeline, dataset: "ClassificationDataset"
) -> ConfusionCounts:
    """Run ``pipeline.classify_crop`` over a ClassificationDataset."""
    predictions = np.empty(len(dataset), dtype=np.int64)
    for i in range(len(dataset)):
        is_target, _score = pipeline.classify_crop(dataset.images[i])
        predictions[i] = 1 if is_target else -1
    return confusion_from_predictions(dataset.labels, predictions)


@dataclass
class FrameEvaluation:
    """Object-level detection tallies over a set of annotated frames."""

    detected: int = 0  # truth objects matched by a detection
    missed: int = 0  # truth objects with no matching detection
    spurious: int = 0  # detections matching no truth
    frames_correct: int = 0  # frames where presence/absence was judged right
    frames_total: int = 0

    @property
    def object_recall(self) -> float:
        """Truth objects found / truth objects present; 0.0 when empty."""
        denom = self.detected + self.missed
        return self.detected / denom if denom else 0.0

    @property
    def frame_accuracy(self) -> float:
        """Frame-level accuracy: the quantity behind the paper's "95 %"."""
        if self.frames_total == 0:
            raise PipelineError("no frames evaluated")
        return self.frames_correct / self.frames_total


def evaluate_detections(
    truth_boxes: list[Rect],
    detections: list[Detection],
    iou_threshold: float = 0.3,
) -> tuple[int, int, int]:
    """(matched, missed, spurious) counts for one frame."""
    rects = [d.rect for d in detections]
    matches, unmatched_truth, unmatched_det = match_detections(
        truth_boxes, rects, iou_threshold=iou_threshold
    )
    return len(matches), len(unmatched_truth), len(unmatched_det)


def evaluate_frames(
    pipeline: DetectionPipeline,
    frames: "Iterable[SceneFrame]",
    kind: str = "vehicle",
    iou_threshold: float = 0.3,
) -> FrameEvaluation:
    """Object- and frame-level evaluation over SceneFrame annotations."""
    result = FrameEvaluation()
    for frame in frames:
        truths = [o.rect for o in frame.objects if o.kind == kind]
        detections = [d for d in pipeline.detect(frame.rgb) if d.kind == kind]
        matched, missed, spurious = evaluate_detections(truths, detections, iou_threshold)
        result.detected += matched
        result.missed += missed
        result.spurious += spurious
        result.frames_total += 1
        if truths:
            frame_ok = matched > 0 and spurious == 0
        else:
            frame_ok = not detections
        if frame_ok:
            result.frames_correct += 1
    return result
