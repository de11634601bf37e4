"""Taillight candidates and spatial pair matching (paper Fig. 3, stage 2).

After the sliding DBN has localised taillight-like blobs and labelled their
size/shape class, "the final stage is the spatial correlation which is
achieved by using a trained SVM classifier over a selection of detected
taillights.  Since the distance between the two taillights is expected to be
within a specific range, only a particular region around each detected
taillight is processed for matching."

This module defines the candidate type, the pair feature vector, the
geometric gate, a generator of synthetic pair-training data (the expected
pair geometry is fully determined by rear-lamp regulations: same height,
separation proportional to apparent size), and the pair classifier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, PipelineError
from repro.imaging.geometry import Rect
from repro.ml.linear import LinearModel
from repro.ml.scaler import StandardScaler
from repro.ml.svm import LinearSvm, SvmConfig
from repro.rng import make_rng

# Approximate blob radius (pixels, at the downsampled resolution) per DBN
# size class; used to normalise pair separations.
CLASS_RADIUS_PX = {1: 1.2, 2: 2.2, 3: 3.6}

# Lamp separation over lamp radius for real rear views: taillight radius is
# ~5-7 % of body width and lamps sit ~60-78 % of the width apart, so the
# ratio spans roughly 5-15.
PAIR_SEPARATION_RATIO = (4.0, 16.0)

PAIR_FEATURE_LENGTH = 6

#: LibLINEAR C of the pair SVM.
PAIR_SVM_C = 2.0
#: SVM margin above which a gated pair is a match.
PAIR_DECISION_THRESHOLD = 0.0


@dataclass(frozen=True)
class TaillightCandidate:
    """One taillight hypothesis from the DBN stage.

    Attributes:
        center: (x, y) in downsampled-frame pixels.
        size_class: DBN class 1 (small) .. 3 (large).
        area: Number of DBN hit windows supporting the candidate.
        bbox: Bounding box of the supporting hits.
    """

    center: tuple[float, float]
    size_class: int
    area: float
    bbox: Rect

    @property
    def radius(self) -> float:
        """Nominal blob radius for this size class."""
        if self.size_class not in CLASS_RADIUS_PX:
            raise PipelineError(f"invalid size class {self.size_class}")
        return CLASS_RADIUS_PX[self.size_class]


def pair_features(a: TaillightCandidate, b: TaillightCandidate) -> np.ndarray:
    """Geometric feature vector for a candidate pair.

    Features (all scale-normalised where possible):
        0: horizontal separation / mean nominal radius
        1: vertical offset / horizontal separation (alignment)
        2: size-class difference
        3: area ratio (small/large)
        4: mean size class
        5: pair tilt angle in radians, measured left-to-right so the
           feature is invariant to the argument order.
    """
    ax, ay = a.center
    bx, by = b.center
    dx = abs(bx - ax)
    dy = abs(by - ay)
    mean_radius = (a.radius + b.radius) / 2.0
    sep_ratio = dx / mean_radius if mean_radius > 0 else 0.0
    alignment = dy / dx if dx > 1e-9 else 10.0
    area_lo, area_hi = min(a.area, b.area), max(a.area, b.area)
    area_ratio = area_lo / area_hi if area_hi > 0 else 0.0
    (lx, ly), (rx, ry) = sorted([a.center, b.center])
    tilt = abs(math.atan2(ry - ly, max(rx - lx, 1e-9)))
    return np.array(
        [
            sep_ratio,
            alignment,
            abs(a.size_class - b.size_class),
            area_ratio,
            (a.size_class + b.size_class) / 2.0,
            tilt,
        ]
    )


def pair_gate(a: TaillightCandidate, b: TaillightCandidate) -> bool:
    """Cheap geometric pre-filter ("only a particular region ... is processed").

    Rejects pairs whose separation is far outside the plausible band or
    whose vertical offset exceeds the separation — these never reach the
    SVM, which both "reduce[s] the processing time and increase[s] the
    reliability" (paper Section III-B).
    """
    ax, ay = a.center
    bx, by = b.center
    dx = abs(bx - ax)
    dy = abs(by - ay)
    mean_radius = (a.radius + b.radius) / 2.0
    if dx <= 1e-9:
        return False
    ratio = dx / mean_radius
    lo, hi = PAIR_SEPARATION_RATIO
    if not (lo * 0.5) <= ratio <= (hi * 1.5):
        return False
    return dy <= 0.6 * dx


def _random_candidate(
    rng: np.random.Generator,
    size_class: int,
    x: float,
    y: float,
) -> TaillightCandidate:
    radius = CLASS_RADIUS_PX[size_class]
    area = max(1.0, rng.normal(radius**2 * math.pi / 4.0, radius * 0.4))
    side = max(1.0, radius * 2.0)
    return TaillightCandidate(
        center=(x, y),
        size_class=size_class,
        area=float(area),
        bbox=Rect(x - side / 2.0, y - side / 2.0, side, side),
    )


def make_pair_training_set(
    n_per_class: int = 400,
    seed: int = 7,
) -> tuple[np.ndarray, np.ndarray]:
    """Synthetic pair-feature corpus: matched pairs vs accidental pairs.

    Positive pairs follow rear-lamp geometry: equal size class, near-zero
    vertical offset, separation ratio inside :data:`PAIR_SEPARATION_RATIO`.
    Negatives are mismatched sizes, misaligned heights, or implausible
    separations (e.g. a taillight against a street lamp or a reflection).

    Returns:
        (features, labels) with labels +1 (same vehicle) / -1 (unrelated).
    """
    if n_per_class < 1:
        raise PipelineError(f"n_per_class must be >= 1, got {n_per_class}")
    rng = make_rng(seed)
    feats: list[np.ndarray] = []
    labels: list[int] = []
    lo, hi = PAIR_SEPARATION_RATIO
    for _ in range(n_per_class):
        cls = int(rng.integers(1, 4))
        radius = CLASS_RADIUS_PX[cls]
        x = float(rng.uniform(20, 300))
        y = float(rng.uniform(20, 160))
        sep = radius * float(rng.uniform(lo, hi))
        jitter_y = float(rng.normal(0.0, 0.04 * sep))
        a = _random_candidate(rng, cls, x, y)
        # The DBN's size-class estimate is noisy (glow asymmetry, blob
        # fragmentation), so genuine pairs frequently disagree by one class
        # and occasionally by two; the matcher must tolerate that.
        roll = rng.random()
        if roll < 0.55:
            cls_b = cls
        elif roll < 0.9:
            cls_b = int(np.clip(cls + rng.choice([-1, 1]), 1, 3))
        else:
            cls_b = int(rng.integers(1, 4))
        b = _random_candidate(rng, cls_b, x + sep, y + jitter_y)
        feats.append(pair_features(a, b))
        labels.append(1)
    for _ in range(n_per_class):
        mode = rng.integers(0, 3)
        cls_a = int(rng.integers(1, 4))
        x = float(rng.uniform(20, 300))
        y = float(rng.uniform(20, 160))
        a = _random_candidate(rng, cls_a, x, y)
        if mode == 0:  # wrong separation
            radius = CLASS_RADIUS_PX[cls_a]
            sep = radius * float(rng.choice([rng.uniform(0.3, lo * 0.7), rng.uniform(hi * 1.4, hi * 4)]))
            b = _random_candidate(rng, cls_a, x + sep, y + float(rng.normal(0, 1.0)))
        elif mode == 1:  # misaligned heights (lamp vs reflection)
            sep = CLASS_RADIUS_PX[cls_a] * float(rng.uniform(lo, hi))
            b = _random_candidate(rng, cls_a, x + sep, y + sep * float(rng.uniform(0.5, 1.5)))
        else:  # mismatched sizes at a wrong separation (near vs far lamp)
            cls_b = 1 if cls_a == 3 else 3
            sep = CLASS_RADIUS_PX[cls_a] * float(
                rng.choice([rng.uniform(0.5, lo * 0.8), rng.uniform(hi * 1.3, hi * 3)])
            )
            b = _random_candidate(rng, cls_b, x + sep, y + sep * float(rng.uniform(0.3, 0.9)))
        feats.append(pair_features(a, b))
        labels.append(-1)
    return np.stack(feats), np.asarray(labels, dtype=np.int64)


class TaillightPairMatcher:
    """SVM-based spatial correlation of taillight candidates."""

    def __init__(self):
        self.scaler = StandardScaler()
        self.model: LinearModel | None = None

    def train(self, features: np.ndarray | None = None, labels: np.ndarray | None = None, seed: int = 7) -> LinearModel:
        """Train on a pair corpus with its labels; defaults to the synthetic generator."""
        if (features is None) != (labels is None):
            raise ConfigurationError("give the pair features and their labels together")
        if features is None:
            features, labels = make_pair_training_set(seed=seed)
        scaled = self.scaler.fit_transform(features)
        self.model = LinearSvm(SvmConfig(c=PAIR_SVM_C)).train(scaled, labels, name="taillight-pair")
        return self.model

    def match_score(self, a: TaillightCandidate, b: TaillightCandidate) -> float:
        """SVM margin for a gated pair; -inf when the gate rejects it."""
        if self.model is None:
            raise PipelineError("TaillightPairMatcher is not trained")
        if not pair_gate(a, b):
            return -math.inf
        scaled = self.scaler.transform(pair_features(a, b))
        return float(self.model.decision_values(scaled)[0])

    def match_pairs(
        self, candidates: list[TaillightCandidate]
    ) -> list[tuple[int, int, float]]:
        """Greedy one-to-one matching of candidates into vehicle pairs.

        Returns:
            (index_a, index_b, score) triples sorted by descending score;
            each candidate participates in at most one pair.
        """
        scored: list[tuple[float, int, int]] = []
        for i in range(len(candidates)):
            for j in range(i + 1, len(candidates)):
                score = self.match_score(candidates[i], candidates[j])
                if score > PAIR_DECISION_THRESHOLD:
                    scored.append((score, i, j))
        scored.sort(reverse=True)
        used: set[int] = set()
        pairs: list[tuple[int, int, float]] = []
        for score, i, j in scored:
            if i in used or j in used:
                continue
            used.update((i, j))
            pairs.append((i, j, score))
        return pairs


def vehicle_box_from_pair(a: TaillightCandidate, b: TaillightCandidate) -> Rect:
    """Vehicle bounding box implied by a matched taillight pair.

    Uses the sprite-geometry priors: lamps sit ~69 % of the body width
    apart and ~42 % of the body height below the roof line.
    """
    ax, ay = a.center
    bx, by = b.center
    sep = abs(bx - ax)
    if sep <= 0:
        raise PipelineError("cannot form a vehicle box from coincident lights")
    width = sep / 0.69
    height = width * 0.77
    cx = (ax + bx) / 2.0
    cy = (ay + by) / 2.0
    return Rect(cx - width / 2.0, cy - 0.42 * height, width, height)
