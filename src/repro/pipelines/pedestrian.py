"""Static-partition pedestrian detection (HOG + linear SVM).

The main functional block of the paper's *static* partition: "Similar to the
method that is used for detection of vehicles in day ... it extracts HOG
features of input image and use linear SVM classifier to detect pedestrians
on the road", after the real-time pipeline of Hemmati et al. (DAC'17).

It exists in the system "to showcase the seamless operation of other
detection modules during the partial reconfiguration": the system-level
tests assert it keeps detecting while the vehicle partition reconfigures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datasets.samples import DetectionDataset, extract_window_samples
from repro.errors import PipelineError
from repro.features.hog import HogConfig, HogDescriptor
from repro.imaging.color import luminance
from repro.imaging.geometry import non_max_suppression
from repro.imaging.image import ensure_rgb
from repro.imaging.resize import resize_bilinear
from repro.ml.linear import LinearModel, require_trained
from repro.ml.svm import LinearSvm, SvmConfig
from repro.pipelines.base import Detection, frame_blocks, scan_windows
from repro.rng import make_rng
from repro.telemetry.metrics import DETECTIONS_BUCKETS
from repro.telemetry.session import NULL_TELEMETRY, Telemetry


@dataclass(frozen=True)
class PedestrianConfig:
    """Detector parameters; the 64x32 window matches upright pedestrians."""

    hog: HogConfig = HogConfig(window=(64, 32))
    svm_c: float = 1.0
    decision_threshold: float = 0.0
    nms_iou: float = 0.3
    window_stride_blocks: int = 2
    negatives_per_frame: int = 6


class PedestrianDetector:
    """HOG+SVM pedestrian detector living in the static partition."""

    def __init__(
        self,
        config: PedestrianConfig | None = None,
        model: LinearModel | None = None,
        telemetry: Telemetry | None = None,
    ):
        self.config = config or PedestrianConfig()
        self.hog = HogDescriptor(self.config.hog)
        self.model = model
        self.name = "pedestrian"
        self.telemetry = telemetry or NULL_TELEMETRY

    def train_from_frames(self, dataset: DetectionDataset, seed: int = 13) -> LinearModel:
        """Train from annotated frames: ground-truth boxes vs random windows."""
        rng = make_rng(seed)
        win = self.config.hog.window
        pos_feats: list[np.ndarray] = []
        neg_feats: list[np.ndarray] = []
        for frame in dataset.frames:
            positives, negatives = extract_window_samples(
                frame, win, self.config.negatives_per_frame, rng, kind="pedestrian"
            )
            pos_feats.extend(self.hog.extract(luminance(p)) for p in positives)
            neg_feats.extend(self.hog.extract(luminance(n)) for n in negatives)
        if not pos_feats or not neg_feats:
            raise PipelineError(
                "training frames produced no samples; add pedestrians to the dataset"
            )
        features = np.vstack([np.stack(pos_feats), np.stack(neg_feats)])
        labels = np.concatenate(
            [np.ones(len(pos_feats), dtype=np.int64), -np.ones(len(neg_feats), dtype=np.int64)]
        )
        svm = LinearSvm(SvmConfig(c=self.config.svm_c))
        self.model = svm.train(features, labels, name="pedestrian")
        self.model.meta["train_corpus"] = dataset.name
        return self.model

    def classify_crop(self, crop: np.ndarray) -> tuple[bool, float]:
        """Window-level classification."""
        model = require_trained(self.model, self.name)
        plane = luminance(ensure_rgb(crop, "crop"))
        win_h, win_w = self.config.hog.window
        if plane.shape != (win_h, win_w):
            plane = resize_bilinear(plane, win_h, win_w)
        score = float(model.decision_values(self.hog.extract(plane)))
        return score > self.config.decision_threshold, score

    def detect(self, frame: np.ndarray) -> list[Detection]:
        """Dense sliding-window detection with NMS."""
        telemetry = self.telemetry
        model = require_trained(self.model, self.name)
        plane = luminance(ensure_rgb(frame, "frame"))
        win_h, win_w = self.config.hog.window
        if plane.shape[0] < win_h or plane.shape[1] < win_w:
            raise PipelineError(
                f"frame {plane.shape} smaller than detector window {(win_h, win_w)}"
            )
        with telemetry.stage("pedestrian.hog_scan"):
            rects, kept = self._scan_plane(plane, model)
        with telemetry.stage("pedestrian.nms"):
            keep = non_max_suppression(rects, kept, iou_threshold=self.config.nms_iou)
        if telemetry.enabled:
            telemetry.histogram(
                "detections_per_frame", bounds=DETECTIONS_BUCKETS, detector=self.name
            ).observe(float(len(keep)))
        return [Detection(rect=rects[i], score=kept[i], kind="pedestrian") for i in keep]

    def _scan_plane(self, plane: np.ndarray, model: LinearModel) -> tuple[list, list[float]]:
        """Dense scan of this detector's luma plane; returns (rects, scores),
        no NMS.  Its blocks are the day/dusk pyramid's level 0 on a day or
        dusk frame, so they go through
        :func:`~repro.pipelines.base.frame_blocks`."""
        cfg = self.config
        return scan_windows(
            self.hog,
            plane,
            model,
            cfg.window_stride_blocks,
            cfg.decision_threshold,
            frame_blocks(self.hog, plane),
        )
