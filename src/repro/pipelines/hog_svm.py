"""HOG + linear SVM sliding-window detection, for both partitions.

The paper's day/dusk vehicle configuration (Fig. 1/2) and the static
partition's pedestrian detector (after Hemmati et al., DAC'17) are one
pipeline: HOG descriptor, normaliser, linear SVM classifier.  Only the
window and the trained model differ, so one :class:`HogSvmDetector` serves
both, set up by :class:`HogSvmConfig`'s ``kind``.  The day, dusk and
combined vehicle models share one configuration "but with different
versions of the trained model which are stored in two block RAM"
(:meth:`HogSvmDetector.with_model`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datasets.samples import DetectionDataset, extract_window_samples
from repro.errors import ConfigurationError, PipelineError
from repro.features.hog import HogConfig, HogDescriptor
from repro.features.windows import pyramid
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

#: Per kind: (window, detector name, telemetry stage prefix).  Rear vehicle
#: views are roughly square; the 64x32 window matches upright pedestrians.
KINDS = {
    "vehicle": ((64, 64), "vehicle-day-dusk", "day_dusk"),
    "pedestrian": ((64, 32), "pedestrian", "pedestrian"),
}

#: Pyramid levels of the day/dusk vehicle scan.  The fixed 64x64 window
#: matches one apparent vehicle size; the shrunken levels find nearer ones.
VEHICLE_LEVELS = 4
#: Scale step between neighbouring pyramid levels.
SCALE_STEP = 1.25
#: LibLINEAR C for model training.
SVM_C = 1.0
#: Overlap threshold of the non-maximum suppression across levels.
NMS_IOU = 0.3
#: Dense-scan stride in block units.
WINDOW_STRIDE_BLOCKS = 2
#: Random background windows drawn per annotated training frame.
NEGATIVES_PER_FRAME = 6


@dataclass(frozen=True)
class HogSvmConfig:
    """Detector parameters.

    Attributes:
        kind: "vehicle" or "pedestrian"; sets the window, the detection
            kind, the detector name and its telemetry stages (:data:`KINDS`).
        decision_threshold: SVM margin above which a window is a detection.
        levels: Pyramid levels scanned, the native frame first.
    """

    kind: str = "vehicle"
    decision_threshold: float = 0.0
    levels: int = 1

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ConfigurationError(f"kind must be one of {sorted(KINDS)}, got {self.kind!r}")
        if self.levels < 1:
            raise ConfigurationError(f"levels must be >= 1, got {self.levels}")

    @property
    def hog(self) -> HogConfig:
        """The HOG layout: default cells and blocks, this kind's window."""
        return HogConfig(window=KINDS[self.kind][0])


class HogSvmDetector:
    """Dense HOG+SVM sliding-window detector for one kind of object."""

    def __init__(
        self,
        config: HogSvmConfig | None = None,
        model: LinearModel | None = None,
        telemetry: Telemetry | None = None,
    ):
        self.config = config or HogSvmConfig()
        self.hog = HogDescriptor(self.config.hog)
        self.model = model
        _, self.name, self._stage = KINDS[self.config.kind]
        self.telemetry = telemetry or NULL_TELEMETRY

    def with_model(self, model: LinearModel) -> "HogSvmDetector":
        """A detector sharing this configuration but a different model."""
        return type(self)(self.config, model, telemetry=self.telemetry)

    def train_from_frames(self, dataset: DetectionDataset, seed: int = 13) -> LinearModel:
        """Train from annotated frames: ground-truth boxes vs random windows."""
        rng = make_rng(seed)
        kind = self.config.kind
        pos_feats: list[np.ndarray] = []
        neg_feats: list[np.ndarray] = []
        for frame in dataset.frames:
            positives, negatives = extract_window_samples(
                frame, self.hog.config.window, NEGATIVES_PER_FRAME, rng, kind=kind
            )
            pos_feats.extend(self.hog.extract(luminance(p)) for p in positives)
            neg_feats.extend(self.hog.extract(luminance(n)) for n in negatives)
        if not pos_feats or not neg_feats:
            raise PipelineError(f"training frames produced no samples; add {kind}s to the dataset")
        features = np.vstack([np.stack(pos_feats), np.stack(neg_feats)])
        labels = np.concatenate(
            [np.ones(len(pos_feats), dtype=np.int64), -np.ones(len(neg_feats), dtype=np.int64)]
        )
        self.model = LinearSvm(SvmConfig(c=SVM_C)).train(features, labels, name=kind)
        self.model.meta["train_corpus"] = dataset.name
        return self.model

    def classify_crop(self, crop: np.ndarray) -> tuple[bool, float]:
        """Window-level classification against the installed model."""
        model = require_trained(self.model, self.name)
        plane = luminance(ensure_rgb(crop, "crop"))
        win_h, win_w = self.hog.config.window
        if plane.shape != (win_h, win_w):
            plane = resize_bilinear(plane, win_h, win_w)
        score = float(model.decision_values(self.hog.extract(plane)))
        return score > self.config.decision_threshold, score

    def detect(self, frame: np.ndarray) -> list[Detection]:
        """Dense scan of ``config.levels`` pyramid levels, NMS across levels.

        Detections are in native frame coordinates.  Level 0 is the luma
        plane itself, whose blocks the other partition's scan reads too
        (:func:`~repro.pipelines.base.frame_blocks`).
        """
        telemetry = self.telemetry
        config = self.config
        model = require_trained(self.model, self.name)
        plane = luminance(ensure_rgb(frame, "frame"))
        window = self.hog.config.window
        if plane.shape[0] < window[0] or plane.shape[1] < window[1]:
            raise PipelineError(f"frame {plane.shape} smaller than detector window {window}")
        rects, scores = [], []
        with telemetry.stage(f"{self._stage}.hog_scan"):
            for factor, level in pyramid(
                plane, window, scale_step=SCALE_STEP, max_levels=config.levels
            ):
                dense = frame_blocks(self.hog, level) if level is plane else None
                level_rects, level_scores = scan_windows(
                    self.hog, level, model, WINDOW_STRIDE_BLOCKS, config.decision_threshold, dense
                )
                rects.extend(rect.scaled(1.0 / factor) for rect in level_rects)
                scores.extend(level_scores)
        with telemetry.stage(f"{self._stage}.nms"):
            keep = non_max_suppression(rects, scores, iou_threshold=NMS_IOU)
        if telemetry.enabled:
            telemetry.histogram(
                "detections_per_frame", bounds=DETECTIONS_BUCKETS, detector=self.name
            ).observe(float(len(keep)))
        return [Detection(rect=rects[i], score=scores[i], kind=config.kind) for i in keep]
