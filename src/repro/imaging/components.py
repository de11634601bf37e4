"""Connected-component labelling and blob statistics.

Taillight candidates in the dark pipeline are blobs of the thresholded,
closed mask.  Labelling works on runs, the streaming-hardware-friendly
formulation: each row's foreground runs, links between overlapping runs of
adjacent rows, and one union-find over the links, all in numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.imaging.geometry import Rect
from repro.imaging.image import ensure_binary


def label_components(mask: np.ndarray, connectivity: int = 8) -> tuple[np.ndarray, int]:
    """Label connected regions of a binary mask.

    Args:
        mask: 2-D binary image.
        connectivity: 4 or 8.

    Returns:
        (labels, count): int64 array where background is 0 and regions are
        numbered 1..count contiguously, in raster order of each region's
        first pixel (the numbering of ``scipy.ndimage.label``).
    """
    src = ensure_binary(mask)
    if connectivity not in (4, 8):
        raise ValueError(f"connectivity must be 4 or 8, got {connectivity}")
    height, width = src.shape
    # Runs: a +1/-1 edge where each row's foreground starts/stops.  With a
    # background column either side, the edges of row r sit at flat
    # positions r * (width + 1) + column, so one key orders runs by row,
    # then column, and keys of different rows never come within one
    # column of each other.
    framed = np.zeros((height, width + 2), dtype=np.int8)
    framed[:, 1:-1] = src
    edges = np.diff(framed, axis=1).ravel()
    stride = width + 1
    starts = np.flatnonzero(edges == 1)
    ends = np.flatnonzero(edges == -1)  # exclusive
    n_runs = starts.size
    if n_runs == 0:
        return np.zeros((height, width), dtype=np.int64), 0
    row = starts // stride
    # Run b in row r + 1 touches run a in row r when their column spans
    # overlap, widened by one column each way under 8-connectivity.  Shifted
    # down one row, the keys of row r compare directly with those of row
    # r + 1, and the runs touching b are one contiguous range of them.
    reach = 1 if connectivity == 8 else 0
    lo = np.searchsorted(ends + stride, starts - reach, side="right")
    hi = np.searchsorted(starts + stride, ends + reach, side="left")
    counts = np.maximum(hi - lo, 0)
    below = np.repeat(np.arange(n_runs), counts)
    above = np.repeat(lo - np.cumsum(counts) + counts, counts) + np.arange(below.size)
    # Union-find: hook each link's roots onto the smaller, then jump every
    # pointer to its root, until both ends of every link share one root.
    # The root of a region is then its first run in raster order.
    parent = np.arange(n_runs)
    while True:
        root_a, root_b = parent[above], parent[below]
        split = root_a != root_b
        if not split.any():
            break
        low = np.minimum(root_a[split], root_b[split])
        np.minimum.at(parent, root_a[split], low)
        np.minimum.at(parent, root_b[split], low)
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped
    is_root = parent == np.arange(n_runs)
    run_label = np.cumsum(is_root)[parent]
    # Paint: +label at each run's first pixel, -label one past its last,
    # and a running sum fills the runs.
    cols = starts - row * stride
    first = row * width + cols
    last = first + (ends - starts)
    steps = np.zeros(height * width + 1, dtype=np.int64)
    steps[first] = run_label
    steps[last] -= run_label
    labels = np.cumsum(steps[:-1])
    return labels.reshape(height, width), int(np.count_nonzero(is_root))


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
    """Per-region statistics from a label image produced by ``label_components``.

    One pass over the foreground: areas and coordinate sums by ``bincount``
    (integer sums, exact, so each centroid is the mean of its pixels'
    coordinates bit for bit), bounding boxes by min/max over each label's
    pixels.  Labels in 1..count without pixels get no blob.
    """
    if count == 0:
        return []
    arr = np.asarray(labels)
    ys, xs = np.nonzero(arr)
    values = arr[ys, xs]
    inside = (values >= 1) & (values <= count)
    if not inside.all():
        ys, xs, values = ys[inside], xs[inside], values[inside]
    areas = np.bincount(values, minlength=count + 1)
    sum_x = np.bincount(values, weights=xs, minlength=count + 1)
    sum_y = np.bincount(values, weights=ys, minlength=count + 1)
    # Pixels grouped by label, raster order kept within a label: a group's
    # first pixel has its least row and its last pixel the greatest.
    order = np.argsort(values, kind="stable")
    gx, gy = xs[order], ys[order]
    present = np.flatnonzero(areas)
    area = areas[present]
    ends = np.cumsum(areas)[present]
    starts = ends - area
    columns = zip(
        present.tolist(),
        area.tolist(),
        np.minimum.reduceat(gx, starts).tolist(),
        np.maximum.reduceat(gx, starts).tolist(),
        gy[starts].tolist(),
        gy[ends - 1].tolist(),
        (sum_x[present] / area).tolist(),
        (sum_y[present] / area).tolist(),
    )
    return [
        Blob(
            label=lab,
            area=n,
            bbox=Rect(float(x1), float(y1), float(x2 - x1 + 1), float(y2 - y1 + 1)),
            centroid=(cx, cy),
        )
        for lab, n, x1, x2, y1, y2, cx, cy in columns
    ]


def find_blobs(mask: np.ndarray, min_area: int = 1, connectivity: int = 8) -> list[Blob]:
    """Label a mask and return statistics of regions with area >= min_area."""
    labels, count = label_components(mask, connectivity=connectivity)
    return [b for b in blob_statistics(labels, count) if b.area >= min_area]
