"""Labelled sample containers and crop extraction from rendered frames."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.datasets.lighting import LightingCondition
from repro.datasets.scene import SceneFrame
from repro.errors import DatasetError
from repro.imaging.geometry import Rect
from repro.imaging.image import crop
from repro.imaging.resize import resize_rgb_bilinear


@dataclass
class ClassificationDataset:
    """A corpus of window crops with binary vehicle labels.

    Mirrors how the paper uses UPM / SYSU: "training images are divided into
    two sets of positive and negative, where positive images are those
    including the vehicles and negative images are those without it".

    Attributes:
        name: Corpus name ("upm-like", "sysu-like", ...).
        condition: Dominant lighting condition of the corpus.
        images: (N, H, W, 3) RGB crops in [0, 1].
        labels: (N,) +1 (vehicle) / -1 (non-vehicle).
        very_dark: (N,) bool; True for samples "taken in very dark
            environment" that the paper excludes to form the SYSU subset.
    """

    name: str
    condition: LightingCondition
    images: np.ndarray
    labels: np.ndarray
    very_dark: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=bool))

    def __post_init__(self) -> None:
        self.images = np.asarray(self.images, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.images.ndim != 4 or self.images.shape[3] != 3:
            raise DatasetError(f"images must be (N, H, W, 3), got {self.images.shape}")
        if self.labels.shape[0] != self.images.shape[0]:
            raise DatasetError(
                f"{self.images.shape[0]} images but {self.labels.shape[0]} labels"
            )
        if self.very_dark.size == 0:
            self.very_dark = np.zeros(self.images.shape[0], dtype=bool)
        self.very_dark = np.asarray(self.very_dark, dtype=bool)
        if self.very_dark.shape[0] != self.images.shape[0]:
            raise DatasetError("very_dark mask must align with images")

    def __len__(self) -> int:
        return int(self.images.shape[0])

    @property
    def n_positive(self) -> int:
        return int(np.count_nonzero(self.labels == 1))

    @property
    def n_negative(self) -> int:
        return int(np.count_nonzero(self.labels == -1))

    def subset(self, mask: np.ndarray, name: str | None = None) -> "ClassificationDataset":
        """New dataset keeping only samples where ``mask`` is True."""
        sel = np.asarray(mask, dtype=bool)
        if sel.shape[0] != len(self):
            raise DatasetError("mask must align with the dataset")
        return ClassificationDataset(
            name=name or f"{self.name}-subset",
            condition=self.condition,
            images=self.images[sel],
            labels=self.labels[sel],
            very_dark=self.very_dark[sel],
        )

    def without_very_dark(self) -> "ClassificationDataset":
        """The paper's "subset of SYSU" — very dark samples excluded."""
        return self.subset(~self.very_dark, name=f"{self.name}-no-dark")


@dataclass
class DetectionDataset:
    """A corpus of full frames with ground-truth boxes."""

    name: str
    condition: LightingCondition
    frames: list[SceneFrame]

    def __len__(self) -> int:
        return len(self.frames)


def extract_window_samples(
    frame: SceneFrame,
    window: tuple[int, int],
    n_negative: int,
    rng: np.random.Generator,
    kind: str = "vehicle",
    max_iou: float = 0.2,
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Positive and negative window crops from one annotated frame.

    Positives are ground-truth boxes of ``kind`` resized to ``window``;
    negatives are random frame windows overlapping no truth box by more than
    ``max_iou``.

    Returns:
        (positives, negatives) lists of (H, W, 3) crops.
    """
    win_h, win_w = window
    height, width = frame.rgb.shape[:2]
    truths = [o.rect for o in frame.objects if o.kind == kind]
    positives: list[np.ndarray] = []
    for rect in truths:
        grown = rect.expanded(max(2.0, rect.w * 0.08)).clipped(width, height)
        if grown is None or grown.w < 8 or grown.h < 8:
            continue
        patch = crop(frame.rgb, grown)
        positives.append(resize_rgb_bilinear(patch, win_h, win_w))
    negatives: list[np.ndarray] = []
    attempts = 0
    while len(negatives) < n_negative and attempts < n_negative * 30:
        attempts += 1
        scale = float(rng.uniform(0.6, 1.6))
        bw, bh = int(win_w * scale), int(win_h * scale)
        if bw >= width or bh >= height:
            continue
        x = float(rng.integers(0, width - bw))
        y = float(rng.integers(0, height - bh))
        candidate = Rect(x, y, float(bw), float(bh))
        if any(candidate.iou(t) > max_iou for t in truths):
            continue
        negatives.append(resize_rgb_bilinear(crop(frame.rgb, candidate), win_h, win_w))
    return positives, negatives
