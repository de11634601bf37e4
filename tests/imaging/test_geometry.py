"""Tests for repro.imaging.geometry: Rect, IoU, NMS, matching."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from repro.errors import GeometryError
from repro.imaging.geometry import (
    Rect,
    match_detections,
    non_max_suppression,
)


def rects(min_size: float = 0.5, max_coord: float = 100.0):
    """Hypothesis strategy for valid Rects."""
    coord = st.floats(min_value=-max_coord, max_value=max_coord, allow_nan=False)
    size = st.floats(min_value=min_size, max_value=max_coord, allow_nan=False)
    return st.builds(Rect, x=coord, y=coord, w=size, h=size)


class TestRectBasics:
    def test_rejects_non_positive_size(self):
        with pytest.raises(GeometryError):
            Rect(0, 0, 0, 5)
        with pytest.raises(GeometryError):
            Rect(0, 0, 5, -1)

    def test_edges_area_center(self):
        r = Rect(2, 3, 4, 6)
        assert r.x2 == 6 and r.y2 == 9
        assert r.area == 24
        assert r.center == (4.0, 6.0)
        assert r.aspect == pytest.approx(4 / 6)

    def test_translated_and_scaled(self):
        r = Rect(1, 2, 3, 4).translated(10, 20)
        assert (r.x, r.y) == (11, 22)
        s = Rect(1, 2, 3, 4).scaled(2.0)
        assert (s.x, s.y, s.w, s.h) == (2, 4, 6, 8)
        with pytest.raises(GeometryError):
            Rect(1, 2, 3, 4).scaled(0.0)

    def test_expanded_rejects_collapse(self):
        with pytest.raises(GeometryError):
            Rect(0, 0, 2, 2).expanded(-1.5)

    def test_clipped_inside_and_outside(self):
        r = Rect(-5, -5, 10, 10).clipped(20, 20)
        assert r == Rect(0, 0, 5, 5)
        assert Rect(30, 30, 5, 5).clipped(20, 20) is None

    def test_contains_point_half_open(self):
        r = Rect(0, 0, 10, 10)
        assert r.contains_point(0, 0)
        assert not r.contains_point(10, 5)

    def test_contains_rect(self):
        outer = Rect(0, 0, 10, 10)
        assert outer.contains(Rect(1, 1, 5, 5))
        assert not outer.contains(Rect(5, 5, 10, 10))

    def test_as_int_rounds_and_keeps_positive(self):
        assert Rect(0.4, 0.6, 0.2, 0.2).as_int() == (0, 1, 1, 1)


class TestIntersectionUnion:
    def test_intersection_overlap(self):
        a = Rect(0, 0, 10, 10)
        b = Rect(5, 5, 10, 10)
        inter = a.intersection(b)
        assert inter == Rect(5, 5, 5, 5)

    def test_intersection_disjoint_is_none(self):
        assert Rect(0, 0, 2, 2).intersection(Rect(10, 10, 2, 2)) is None

    def test_iou_identical_is_one(self):
        r = Rect(3, 4, 5, 6)
        assert r.iou(r) == pytest.approx(1.0)

    def test_iou_known_value(self):
        a = Rect(0, 0, 10, 10)
        b = Rect(5, 0, 10, 10)
        assert a.iou(b) == pytest.approx(50.0 / 150.0)


class TestIouProperties:
    @given(rects(), rects())
    def test_iou_symmetric(self, a, b):
        assert a.iou(b) == pytest.approx(b.iou(a))

    @given(rects(), rects())
    def test_iou_bounded(self, a, b):
        v = a.iou(b)
        assert 0.0 <= v <= 1.0 + 1e-12

    @given(rects())
    def test_iou_self_is_one(self, r):
        assert r.iou(r) == pytest.approx(1.0)

    @given(rects(), st.floats(min_value=0.1, max_value=10.0))
    def test_iou_scale_invariant(self, r, f):
        other = r.translated(r.w / 3.0, 0.0)
        assert r.iou(other) == pytest.approx(r.scaled(f).iou(other.scaled(f)), abs=1e-9)


class TestNms:
    def test_suppresses_overlapping(self):
        boxes = [Rect(0, 0, 10, 10), Rect(1, 1, 10, 10), Rect(50, 50, 10, 10)]
        keep = non_max_suppression(boxes, [0.9, 0.8, 0.7], iou_threshold=0.5)
        assert keep == [0, 2]

    def test_keeps_all_disjoint(self):
        boxes = [Rect(i * 20, 0, 10, 10) for i in range(4)]
        keep = non_max_suppression(boxes, [0.1, 0.4, 0.3, 0.2], iou_threshold=0.5)
        assert sorted(keep) == [0, 1, 2, 3]
        assert keep[0] == 1  # decreasing score order

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(GeometryError):
            non_max_suppression([Rect(0, 0, 1, 1)], [0.5, 0.6])

    def test_rejects_bad_threshold(self):
        with pytest.raises(GeometryError):
            non_max_suppression([Rect(0, 0, 1, 1)], [0.5], iou_threshold=1.5)

    @given(st.lists(rects(max_coord=30.0), min_size=1, max_size=8))
    def test_nms_idempotent(self, boxes):
        scores = [float(i) for i in range(len(boxes))]
        keep = non_max_suppression(boxes, scores, iou_threshold=0.4)
        kept_boxes = [boxes[i] for i in keep]
        kept_scores = [scores[i] for i in keep]
        keep2 = non_max_suppression(kept_boxes, kept_scores, iou_threshold=0.4)
        assert keep2 == list(range(len(kept_boxes)))


class TestMergeAndMatch:
    def test_match_detections_one_to_one(self):
        truths = [Rect(0, 0, 10, 10), Rect(30, 30, 10, 10)]
        dets = [Rect(1, 1, 10, 10), Rect(31, 29, 10, 10), Rect(60, 60, 5, 5)]
        matches, un_t, un_d = match_detections(truths, dets)
        assert len(matches) == 2
        assert un_t == []
        assert un_d == [2]

    def test_match_respects_iou_threshold(self):
        truths = [Rect(0, 0, 10, 10)]
        dets = [Rect(9, 9, 10, 10)]  # IoU ~ 0.005
        matches, un_t, un_d = match_detections(truths, dets, iou_threshold=0.5)
        assert matches == [] and un_t == [0] and un_d == [0]
