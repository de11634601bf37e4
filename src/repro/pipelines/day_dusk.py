"""Day / dusk vehicle detection: HOG features + linear SVM (paper Fig. 1/2).

The pipeline has the paper's three hardware stages — HOG descriptor,
normaliser, SVM classifier — with the trained model swapped per condition:
the *day* model, the *dusk* model, or the *combined* model trained on both
corpora (the Table-I ablation).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datasets.samples import ClassificationDataset
from repro.errors import PipelineError
from repro.features.hog import HogConfig, HogDescriptor
from repro.features.windows import pyramid
from repro.imaging.color import luminance
from repro.imaging.geometry import non_max_suppression
from repro.imaging.image import ensure_rgb
from repro.imaging.resize import resize_bilinear
from repro.ml.linear import LinearModel, require_trained
from repro.ml.svm import LinearSvm, SvmConfig
from repro.pipelines.base import Detection, frame_blocks, scan_windows
from repro.telemetry.metrics import DETECTIONS_BUCKETS
from repro.telemetry.session import NULL_TELEMETRY, Telemetry


@dataclass(frozen=True)
class DayDuskConfig:
    """Detector parameters.

    Attributes:
        hog: HOG layout (64x64 window by default — rear vehicle views are
            roughly square).
        svm_c: LibLINEAR C for model training.
        decision_threshold: SVM margin above which a window is a vehicle.
        nms_iou: Overlap threshold for non-maximum suppression.
        window_stride_blocks: Dense-scan stride in block units.
    """

    hog: HogConfig = HogConfig(window=(64, 64))
    svm_c: float = 1.0
    decision_threshold: float = 0.0
    nms_iou: float = 0.3
    window_stride_blocks: int = 2


def hog_features_for_dataset(dataset: ClassificationDataset, hog: HogDescriptor) -> np.ndarray:
    """HOG feature matrix of every crop's luminance plane."""
    win_h, win_w = hog.config.window
    features = np.empty((len(dataset), hog.feature_length), dtype=np.float64)
    for i in range(len(dataset)):
        plane = luminance(dataset.images[i])
        if plane.shape != (win_h, win_w):
            plane = resize_bilinear(plane, win_h, win_w)
        features[i] = hog.extract(plane)
    return features


class HogSvmVehicleDetector:
    """The reconfigurable day/dusk vehicle-detection configuration."""

    def __init__(
        self,
        config: DayDuskConfig | None = None,
        model: LinearModel | None = None,
        telemetry: Telemetry | None = None,
    ):
        self.config = config or DayDuskConfig()
        self.hog = HogDescriptor(self.config.hog)
        self.model = model
        self.name = "vehicle-day-dusk"
        self.telemetry = telemetry or NULL_TELEMETRY

    def with_model(self, model: LinearModel) -> "HogSvmVehicleDetector":
        """A detector sharing this configuration but a different model.

        Models the hardware reality that day and dusk reuse the same
        pipeline "but with different versions of the trained model which
        are stored in two block RAM".
        """
        return HogSvmVehicleDetector(self.config, model, telemetry=self.telemetry)

    # Inference ---------------------------------------------------------------

    def classify_crop(self, crop: np.ndarray) -> tuple[bool, float]:
        """Window-level classification against the installed model."""
        model = require_trained(self.model, self.name)
        rgb = ensure_rgb(crop, "crop")
        plane = luminance(rgb)
        win_h, win_w = self.config.hog.window
        if plane.shape != (win_h, win_w):
            plane = resize_bilinear(plane, win_h, win_w)
        score = float(model.decision_values(self.hog.extract(plane)))
        return score > self.config.decision_threshold, score

    def detect_multiscale(
        self,
        frame: np.ndarray,
        scale_step: float = 1.25,
        max_levels: int | None = 4,
    ) -> list[Detection]:
        """Pyramid detection: dense scan per level, NMS across levels.

        The fixed 64x64 window only matches one apparent vehicle size; the
        pyramid recovers nearer (larger) vehicles by shrinking the frame.
        Detections are reported in native frame coordinates.  Level 0 is
        the luma plane itself, whose blocks the pedestrian partition scans
        too (:func:`~repro.pipelines.base.frame_blocks`).
        """
        rgb = ensure_rgb(frame, "frame")
        plane = luminance(rgb)
        window = self.config.hog.window
        all_rects, all_scores = [], []
        for factor, level in pyramid(
            plane, window, scale_step=scale_step, max_levels=max_levels
        ):
            rects, scores = self._scan_plane(level, shared=level is plane)
            for rect, score in zip(rects, scores):
                all_rects.append(rect.scaled(1.0 / factor))
                all_scores.append(score)
        keep = non_max_suppression(all_rects, all_scores, iou_threshold=self.config.nms_iou)
        return [
            Detection(rect=all_rects[i], score=all_scores[i], kind="vehicle") for i in keep
        ]

    def _scan_plane(self, plane: np.ndarray, shared: bool = False) -> tuple[list, list[float]]:
        """Dense scan of one luma plane; returns (rects, scores), no NMS.

        ``shared`` marks the full-resolution luma plane this detector made:
        its blocks go through :func:`~repro.pipelines.base.frame_blocks`.
        """
        model = require_trained(self.model, self.name)
        win_h, win_w = self.config.hog.window
        if plane.shape[0] < win_h or plane.shape[1] < win_w:
            raise PipelineError(
                f"frame {plane.shape} smaller than detector window {(win_h, win_w)}"
            )
        cfg = self.config
        dense = frame_blocks(self.hog, plane) if shared else None
        return scan_windows(
            self.hog, plane, model, cfg.window_stride_blocks, cfg.decision_threshold, dense
        )

    def detect(self, frame: np.ndarray) -> list[Detection]:
        """Dense single-scale sliding-window detection with NMS."""
        telemetry = self.telemetry
        rgb = ensure_rgb(frame, "frame")
        with telemetry.stage("day_dusk.hog_scan"):
            rects, scores = self._scan_plane(luminance(rgb), shared=True)
        with telemetry.stage("day_dusk.nms"):
            keep = non_max_suppression(rects, scores, iou_threshold=self.config.nms_iou)
        if telemetry.enabled:
            telemetry.histogram(
                "detections_per_frame", bounds=DETECTIONS_BUCKETS, detector=self.name
            ).observe(float(len(keep)))
        return [
            Detection(rect=rects[i], score=scores[i], kind="vehicle")
            for i in keep
        ]


def train_condition_models(
    day_train: ClassificationDataset,
    dusk_train: ClassificationDataset,
    config: DayDuskConfig | None = None,
) -> dict[str, LinearModel]:
    """Train the paper's three models: day, dusk, combined (Fig. 1).

    Returns:
        {"day": ..., "dusk": ..., "combined": ...} LinearModels.
    """
    config = config or DayDuskConfig()
    hog = HogDescriptor(config.hog)
    svm = LinearSvm(SvmConfig(c=config.svm_c))
    # Each HOG row depends only on its crop, so the combined model trains on
    # the two corpora's feature matrices stacked: no second HOG pass.
    day, dusk = (hog_features_for_dataset(corpus, hog) for corpus in (day_train, dusk_train))
    combined_labels = np.concatenate([day_train.labels, dusk_train.labels])
    models = {}
    for name, features, labels, corpus in (
        ("day", day, day_train.labels, day_train.name),
        ("dusk", dusk, dusk_train.labels, dusk_train.name),
        ("combined", np.vstack([day, dusk]), combined_labels, "combined"),
    ):
        models[name] = svm.train(features, labels, name=name)
        models[name].meta["train_corpus"] = corpus
    return models
