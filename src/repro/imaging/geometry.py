"""Axis-aligned rectangles and box arithmetic.

Rectangles are the common currency between detectors, the dataset ground
truth, and evaluation.  ``Rect`` uses the image convention: ``x`` grows to the
right (columns), ``y`` grows downwards (rows), and the box spans the
half-open pixel range ``[x, x + w) x [y, y + h)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.errors import GeometryError


@dataclass(frozen=True)
class Rect:
    """An axis-aligned rectangle in pixel coordinates.

    Attributes:
        x: Left edge (column of the first pixel inside the box).
        y: Top edge (row of the first pixel inside the box).
        w: Width in pixels; must be positive.
        h: Height in pixels; must be positive.
    """

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self) -> None:
        if self.w <= 0 or self.h <= 0:
            raise GeometryError(f"Rect must have positive size, got w={self.w}, h={self.h}")

    @property
    def x2(self) -> float:
        """Exclusive right edge."""
        return self.x + self.w

    @property
    def y2(self) -> float:
        """Exclusive bottom edge."""
        return self.y + self.h

    @property
    def area(self) -> float:
        return self.w * self.h

    @property
    def center(self) -> tuple[float, float]:
        """(cx, cy) of the box center."""
        return (self.x + self.w / 2.0, self.y + self.h / 2.0)

    @property
    def aspect(self) -> float:
        """Width divided by height."""
        return self.w / self.h

    def translated(self, dx: float, dy: float) -> "Rect":
        """Return a copy moved by (dx, dy)."""
        return Rect(self.x + dx, self.y + dy, self.w, self.h)

    def scaled(self, factor: float) -> "Rect":
        """Return a copy with all coordinates multiplied by ``factor``.

        Useful for mapping detections between pyramid levels or between a
        downsampled processing resolution and the native frame.
        """
        if factor <= 0:
            raise GeometryError(f"scale factor must be positive, got {factor}")
        return Rect(self.x * factor, self.y * factor, self.w * factor, self.h * factor)

    def expanded(self, margin: float) -> "Rect":
        """Return a copy grown by ``margin`` pixels on every side."""
        if self.w + 2 * margin <= 0 or self.h + 2 * margin <= 0:
            raise GeometryError("expansion would collapse the rectangle")
        return Rect(self.x - margin, self.y - margin, self.w + 2 * margin, self.h + 2 * margin)

    def clipped(self, width: float, height: float) -> "Rect | None":
        """Clip to the image extent ``[0, width) x [0, height)``.

        Returns ``None`` when the rectangle lies entirely outside the image.
        """
        x1 = max(self.x, 0.0)
        y1 = max(self.y, 0.0)
        x2 = min(self.x2, float(width))
        y2 = min(self.y2, float(height))
        if x2 <= x1 or y2 <= y1:
            return None
        return Rect(x1, y1, x2 - x1, y2 - y1)

    def contains_point(self, px: float, py: float) -> bool:
        """True when (px, py) lies inside the half-open box."""
        return self.x <= px < self.x2 and self.y <= py < self.y2

    def contains(self, other: "Rect") -> bool:
        """True when ``other`` lies entirely inside this rectangle."""
        return (
            self.x <= other.x
            and self.y <= other.y
            and other.x2 <= self.x2
            and other.y2 <= self.y2
        )

    def intersection(self, other: "Rect") -> "Rect | None":
        """Intersection box, or ``None`` when disjoint."""
        x1 = max(self.x, other.x)
        y1 = max(self.y, other.y)
        x2 = min(self.x2, other.x2)
        y2 = min(self.y2, other.y2)
        if x2 <= x1 or y2 <= y1:
            return None
        return Rect(x1, y1, x2 - x1, y2 - y1)

    def union_bounds(self, other: "Rect") -> "Rect":
        """Smallest rectangle containing both boxes."""
        x1 = min(self.x, other.x)
        y1 = min(self.y, other.y)
        x2 = max(self.x2, other.x2)
        y2 = max(self.y2, other.y2)
        return Rect(x1, y1, x2 - x1, y2 - y1)

    def iou(self, other: "Rect") -> float:
        """Intersection-over-union in [0, 1]."""
        # :meth:`intersection` and :attr:`area` spelled out, so no Rect is
        # built: ``b if b > a else a`` is ``max(a, b)`` and ``b if b < a
        # else a`` is ``min(a, b)``, ties and NaNs included.
        x, y, ox, oy = self.x, self.y, other.x, other.y
        x1 = ox if ox > x else x
        y1 = oy if oy > y else y
        x2, ox2 = x + self.w, ox + other.w
        y2, oy2 = y + self.h, oy + other.h
        if ox2 < x2:
            x2 = ox2
        if oy2 < y2:
            y2 = oy2
        if x2 <= x1 or y2 <= y1:
            return 0.0
        inter = (x2 - x1) * (y2 - y1)
        union = self.w * self.h + other.w * other.h - inter
        return inter / union

    def center_distance(self, other: "Rect") -> float:
        """Euclidean distance between box centers."""
        cx1, cy1 = self.center
        cx2, cy2 = other.center
        return math.hypot(cx1 - cx2, cy1 - cy2)

    def as_int(self) -> tuple[int, int, int, int]:
        """Rounded integer (x, y, w, h), width/height at least 1."""
        x = int(round(self.x))
        y = int(round(self.y))
        w = max(1, int(round(self.w)))
        h = max(1, int(round(self.h)))
        return (x, y, w, h)


def iou_matrix(boxes_a: Sequence[Rect], boxes_b: Sequence[Rect]):
    """Pairwise IoU between two box lists as a nested list.

    Kept dependency-free (plain lists) because callers typically hold a
    handful of detections, not thousands.
    """
    return [[a.iou(b) for b in boxes_b] for a in boxes_a]


def non_max_suppression(
    boxes: Sequence[Rect],
    scores: Sequence[float],
    iou_threshold: float = 0.5,
) -> list[int]:
    """Greedy non-maximum suppression.

    Args:
        boxes: Candidate boxes.
        scores: One score per box; higher is better.
        iou_threshold: Boxes overlapping a kept box by more than this are
            suppressed.

    Returns:
        Indices of kept boxes, in decreasing score order.
    """
    if len(boxes) != len(scores):
        raise GeometryError(
            f"boxes and scores must align, got {len(boxes)} boxes and {len(scores)} scores"
        )
    if not 0.0 <= iou_threshold <= 1.0:
        raise GeometryError(f"iou_threshold must be in [0, 1], got {iou_threshold}")
    order = sorted(range(len(boxes)), key=lambda i: scores[i], reverse=True)
    kept: list[int] = []
    for idx in order:
        if all(boxes[idx].iou(boxes[k]) <= iou_threshold for k in kept):
            kept.append(idx)
    return kept


def merge_overlapping(boxes: Iterable[Rect], iou_threshold: float = 0.3) -> list[Rect]:
    """Merge clusters of mutually overlapping boxes into their union bounds.

    A simple single-linkage clustering: any two boxes with IoU above the
    threshold end up in the same cluster.  Used by the dark pipeline to fuse
    taillight pair candidates that localise the same vehicle.
    """
    pool = list(boxes)
    merged: list[Rect] = []
    while pool:
        seed = pool.pop()
        changed = True
        while changed:
            changed = False
            for i in range(len(pool) - 1, -1, -1):
                if seed.iou(pool[i]) > iou_threshold:
                    seed = seed.union_bounds(pool.pop(i))
                    changed = True
        merged.append(seed)
    return merged


def match_detections(
    truths: Sequence[Rect],
    detections: Sequence[Rect],
    iou_threshold: float = 0.5,
) -> tuple[list[tuple[int, int]], list[int], list[int]]:
    """Greedy one-to-one matching of detections to ground-truth boxes.

    Returns:
        (matches, unmatched_truths, unmatched_detections) where ``matches``
        is a list of (truth_index, detection_index) pairs.

    The greedy order is pinned: candidate pairs are taken by descending
    IoU, ties broken by ascending truth index then ascending detection
    index.  Equal-overlap ties are common with grid-aligned boxes, and an
    unpinned order would make TP/FP splits (and therefore the quality
    plane's byte-compared records) platform- and insertion-order-dependent.
    """
    pairs: list[tuple[float, int, int]] = []
    for ti, t in enumerate(truths):
        for di, d in enumerate(detections):
            overlap = t.iou(d)
            if overlap >= iou_threshold:
                pairs.append((overlap, ti, di))
    pairs.sort(key=lambda pair: (-pair[0], pair[1], pair[2]))
    used_t: set[int] = set()
    used_d: set[int] = set()
    matches: list[tuple[int, int]] = []
    for _, ti, di in pairs:
        if ti in used_t or di in used_d:
            continue
        used_t.add(ti)
        used_d.add(di)
        matches.append((ti, di))
    unmatched_t = [i for i in range(len(truths)) if i not in used_t]
    unmatched_d = [i for i in range(len(detections)) if i not in used_d]
    return matches, unmatched_t, unmatched_d
