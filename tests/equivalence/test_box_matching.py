"""``Rect.iou`` and ``match_detections`` vs straightforward oracles, bit for bit.

Pixel NMS, the dark pipeline's box merging and the quality plane's
ground-truth scoring all call these two functions.  ``Rect.iou`` computes
the intersection inline instead of building an intersection ``Rect``; the
oracle goes through ``Rect.intersection`` and ``Rect.area``.  The IoUs must
agree to the bit (compared as packed doubles, NaN payloads included) for
Python floats, numpy scalars and mixes of the two.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest

from repro.imaging.geometry import Rect, match_detections
from tests.equivalence.references import iou_reference, match_detections_reference

pytestmark = pytest.mark.equivalence


def bits(value: float) -> bytes:
    return struct.pack("<d", value)


CASES = {
    "disjoint": (Rect(0, 0, 10, 10), Rect(20, 20, 5, 5)),
    "touching_edge": (Rect(0, 0, 10, 10), Rect(10, 0, 10, 10)),
    "touching_corner": (Rect(0, 0, 10, 10), Rect(10, 10, 10, 10)),
    "nested": (Rect(0, 0, 10, 10), Rect(2.5, 3.25, 4.0, 1.5)),
    "identical": (Rect(1.1, 2.2, 3.3, 4.4), Rect(1.1, 2.2, 3.3, 4.4)),
    "partial": (Rect(0.1, 0.2, 10.3, 7.7), Rect(5.05, 3.9, 8.8, 6.1)),
    "numpy_scalars": (
        Rect(np.float64(0.1), np.float64(0.2), np.float64(10.3), np.float64(7.7)),
        Rect(np.float64(5.05), np.float64(3.9), np.float64(8.8), np.float64(6.1)),
    ),
    "mixed_scalars": (
        Rect(np.float64(0.1), 0.2, np.float64(10.3), 7.7),
        Rect(5.05, np.float64(3.9), 8.8, np.float64(6.1)),
    ),
    "float32_fields": (
        Rect(np.float32(0.1), np.float32(0.2), np.float32(10.3), np.float32(7.7)),
        Rect(np.float32(5.05), np.float32(3.9), np.float32(8.8), np.float32(6.1)),
    ),
    "integer_fields": (Rect(0, 0, 7, 3), Rect(np.int64(2), np.int64(1), 9, 9)),
    "nan_field": (Rect(0.0, 0.0, float("nan"), 4.0), Rect(1.0, 1.0, 3.0, 3.0)),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_iou_matches_oracle(name):
    a, b = CASES[name]
    for x, y in ((a, b), (b, a), (a, a)):
        got, want = x.iou(y), iou_reference(x, y)
        assert bits(float(got)) == bits(float(want))
        assert type(got) is type(want)


def _random_boxes(rng: np.random.Generator, n: int, grid: bool) -> list[Rect]:
    if grid:
        xy = rng.integers(0, 6, size=(n, 2)) * 4.0
        wh = rng.integers(1, 4, size=(n, 2)) * 4.0
    else:
        xy = rng.uniform(0.0, 40.0, size=(n, 2))
        wh = rng.uniform(0.5, 20.0, size=(n, 2))
    return [Rect(x, y, w, h) for (x, y), (w, h) in zip(xy, wh)]


@pytest.mark.parametrize("grid", [False, True], ids=["continuous", "grid_ties"])
def test_random_boxes_match_oracle(grid):
    rng = np.random.default_rng(7)
    for _ in range(200):
        boxes = _random_boxes(rng, 8, grid)
        for a in boxes:
            for b in boxes:
                assert bits(float(a.iou(b))) == bits(float(iou_reference(a, b)))


@pytest.mark.parametrize("grid", [False, True], ids=["continuous", "grid_ties"])
@pytest.mark.parametrize("threshold", [0.0, 0.3, 0.5])
def test_match_detections_matches_oracle(grid, threshold):
    rng = np.random.default_rng(11)
    for _ in range(150):
        truths = _random_boxes(rng, int(rng.integers(0, 6)), grid)
        detections = _random_boxes(rng, int(rng.integers(0, 6)), grid)
        got = match_detections(truths, detections, iou_threshold=threshold)
        assert got == match_detections_reference(truths, detections, threshold)


def test_match_detections_on_the_pinned_cases():
    # float32 IoUs compare with float64 ones at float32 precision, so a
    # list mixing both has no total order for the greedy pick to follow.
    pairs = [pair for name, pair in CASES.items() if name != "float32_fields"]
    truths = [a for a, _ in pairs if a.w == a.w]
    detections = [b for _, b in pairs]
    for threshold in (0.0, 0.25, 0.5, 1.0):
        got = match_detections(truths, detections, iou_threshold=threshold)
        assert got == match_detections_reference(truths, detections, threshold)
