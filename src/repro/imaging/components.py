"""Connected-component labelling and blob statistics.

Taillight candidates in the dark pipeline are blobs of the thresholded,
closed mask.  Labelling is two-pass with union-find over 8-connectivity,
the standard streaming-hardware-friendly formulation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.imaging.geometry import Rect
from repro.imaging.image import ensure_binary


class _UnionFind:
    """Union-find over dense integer labels with path compression."""

    def __init__(self) -> None:
        self._parent: list[int] = [0]

    def make(self) -> int:
        label = len(self._parent)
        self._parent.append(label)
        return label

    def find(self, label: int) -> int:
        root = label
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[label] != root:
            self._parent[label], label = root, self._parent[label]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            if ra > rb:
                ra, rb = rb, ra
            self._parent[rb] = ra


def label_components(mask: np.ndarray, connectivity: int = 8) -> tuple[np.ndarray, int]:
    """Label connected regions of a binary mask.

    Args:
        mask: 2-D binary image.
        connectivity: 4 or 8.

    Returns:
        (labels, count): int array where background is 0 and regions are
        numbered 1..count contiguously, in raster order of each region's
        first pixel on both the scipy and the pure-python path.
    """
    src = ensure_binary(mask)
    if connectivity not in (4, 8):
        raise ValueError(f"connectivity must be 4 or 8, got {connectivity}")
    try:  # Fast path: scipy, when available, labels large masks in C.
        from scipy import ndimage  # type: ignore

        structure = np.ones((3, 3), dtype=bool)
        if connectivity == 4:
            structure = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)
        labels, count = ndimage.label(src, structure=structure)
        return labels.astype(np.int64), int(count)
    except ImportError:  # pragma: no cover - exercised only without scipy
        pass
    height, width = src.shape
    labels = np.zeros((height, width), dtype=np.int64)
    uf = _UnionFind()
    # Pass 1: provisional labels, recording equivalences.
    for y in range(height):
        row = src[y]
        for x in range(width):
            if not row[x]:
                continue
            neighbours = []
            if x > 0 and src[y, x - 1]:
                neighbours.append(labels[y, x - 1])
            if y > 0:
                if src[y - 1, x]:
                    neighbours.append(labels[y - 1, x])
                if connectivity == 8:
                    if x > 0 and src[y - 1, x - 1]:
                        neighbours.append(labels[y - 1, x - 1])
                    if x + 1 < width and src[y - 1, x + 1]:
                        neighbours.append(labels[y - 1, x + 1])
            if not neighbours:
                labels[y, x] = uf.make()
            else:
                smallest = min(neighbours)
                labels[y, x] = smallest
                for n in neighbours:
                    uf.union(smallest, n)
    # Pass 2: resolve equivalences to contiguous labels.
    remap: dict[int, int] = {}
    next_label = 1
    flat = labels.ravel()
    for i in range(flat.size):
        if flat[i] == 0:
            continue
        root = uf.find(int(flat[i]))
        if root not in remap:
            remap[root] = next_label
            next_label += 1
        flat[i] = remap[root]
    return labels, next_label - 1


@dataclass(frozen=True)
class Blob:
    """Statistics of one connected region.

    Attributes:
        label: Region label in the label image.
        area: Pixel count.
        bbox: Tight bounding box.
        centroid: (cx, cy) mean pixel position.
        extent: area / bbox.area in (0, 1]; circular blobs ~ pi/4.
        aspect: bbox width / height.
    """

    label: int
    area: int
    bbox: Rect
    centroid: tuple[float, float]

    @property
    def extent(self) -> float:
        return self.area / self.bbox.area

    @property
    def aspect(self) -> float:
        return self.bbox.aspect


def blob_statistics(labels: np.ndarray, count: int) -> list[Blob]:
    """Per-region statistics from a label image produced by ``label_components``."""
    if count == 0:
        return []
    arr = np.asarray(labels)
    blobs: list[Blob] = []
    ys, xs = np.nonzero(arr)
    values = arr[ys, xs]
    for lab in range(1, count + 1):
        sel = values == lab
        if not np.any(sel):
            continue
        bx = xs[sel]
        by = ys[sel]
        x1, x2 = int(bx.min()), int(bx.max())
        y1, y2 = int(by.min()), int(by.max())
        blobs.append(
            Blob(
                label=lab,
                area=int(sel.sum()),
                bbox=Rect(float(x1), float(y1), float(x2 - x1 + 1), float(y2 - y1 + 1)),
                centroid=(float(bx.mean()), float(by.mean())),
            )
        )
    return blobs


def find_blobs(mask: np.ndarray, min_area: int = 1, connectivity: int = 8) -> list[Blob]:
    """Label a mask and return statistics of regions with area >= min_area."""
    labels, count = label_components(mask, connectivity=connectivity)
    return [b for b in blob_statistics(labels, count) if b.area >= min_area]
