"""Span-profiler rollups over hand-built and recorded traces."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.telemetry.profile import percentile, profile_spans, profile_tracer
from repro.telemetry.spans import Span, Tracer

pytestmark = pytest.mark.telemetry


def _span(name, span_id, parent_id, wall_start, wall_end, sim_start=0.0, sim_end=0.0):
    return Span(
        name=name,
        span_id=span_id,
        parent_id=parent_id,
        start_s=sim_start,
        end_s=sim_end,
        wall_start_s=wall_start,
        wall_end_s=wall_end,
    )


def _tree():
    """drive(100 ms) -> frame(30 ms), frame(40 ms) -> hog(10 ms)."""
    return [
        _span("drive", 0, None, 0.000, 0.100, sim_start=0.0, sim_end=1.0),
        _span("frame", 1, 0, 0.000, 0.030),
        _span("frame", 2, 0, 0.030, 0.070),
        _span("hog", 3, 2, 0.040, 0.050),
    ]


class TestRollups:
    def test_self_vs_child_attribution(self):
        profile = profile_spans(_tree())
        drive = profile.rollups["drive"]
        frame = profile.rollups["frame"]
        hog = profile.rollups["hog"]
        # drive: 100 ms total, 70 ms inside the two frames.
        assert drive.count == 1
        assert drive.total_wall_ms == pytest.approx(100.0)
        assert drive.self_wall_ms == pytest.approx(30.0)
        # frames: 30 + 40 total; the second loses 10 ms to hog.
        assert frame.count == 2
        assert frame.total_wall_ms == pytest.approx(70.0)
        assert frame.self_wall_ms == pytest.approx(60.0)
        # leaf: self == total.
        assert hog.self_wall_ms == pytest.approx(hog.total_wall_ms) == pytest.approx(10.0)

    def test_sim_clock_rolled_up_independently(self):
        profile = profile_spans(_tree())
        drive = profile.rollups["drive"]
        assert drive.total_sim_ms == pytest.approx(1000.0)
        # Child spans carry zero sim time here, so self == total.
        assert drive.self_sim_ms == pytest.approx(1000.0)

    def test_counts_and_max(self):
        profile = profile_spans(_tree())
        assert profile.n_spans == 4
        assert profile.n_roots == 1
        assert profile.rollups["frame"].max_wall_ms == pytest.approx(40.0)

    def test_hot_spans_ranked_by_self_time(self):
        profile = profile_spans(_tree())
        assert [r.name for r in profile.hot_spans(3)] == ["frame", "drive", "hog"]
        assert [r.name for r in profile.hot_spans(1)] == ["frame"]

    def test_unfinished_spans_skipped(self):
        spans = _tree() + [Span(name="open", span_id=9, parent_id=0, wall_start_s=0.09)]
        profile = profile_spans(spans)
        assert "open" not in profile.rollups
        assert profile.n_spans == 4

    def test_self_time_clamped_when_children_overlap(self):
        # Children report more wall time than the parent (possible with
        # callback-driven spans); self time must clamp at zero, not go
        # negative.
        spans = [
            _span("parent", 0, None, 0.0, 0.010),
            _span("kid", 1, 0, 0.0, 0.008),
            _span("kid", 2, 0, 0.0, 0.008),
        ]
        profile = profile_spans(spans)
        assert profile.rollups["parent"].self_wall_ms == 0.0


class TestDroppedSpans:
    def test_missing_parent_promotes_to_root(self):
        orphan = _span("frame", 5, 99, 0.0, 0.020)
        profile = profile_spans([orphan])
        assert profile.n_roots == 1
        # Time still fully attributed to its own name.
        assert profile.rollups["frame"].self_wall_ms == pytest.approx(20.0)

    def test_tracer_profiles_cleanly(self):
        tracer = Tracer(wall_clock=iter(float(i) for i in range(1000)).__next__)
        with tracer.span("drive"):
            for _ in range(10):
                with tracer.span("frame"):
                    pass
        profile = profile_tracer(tracer)
        assert profile.n_spans == 11
        assert profile.n_roots == 1
        assert profile.rollups["frame"].count == 10


class TestExports:
    def test_collapsed_stacks_weights_and_paths(self):
        lines = profile_spans(_tree()).collapsed_stacks().splitlines()
        # Weights are self-time wall microseconds per unique path.
        assert "drive 30000" in lines
        assert "drive;frame 60000" in lines
        assert "drive;frame;hog 10000" in lines
        assert len(lines) == 3

    def test_collapsed_stacks_zero_weight_kept(self):
        profile = profile_spans([_span("instant", 0, None, 0.5, 0.5)])
        assert profile.collapsed_stacks() == "instant 1"

    def test_frame_percentiles(self):
        table = profile_spans(_tree()).frame_percentiles(name="frame", qs=(50.0,))
        assert table == {"p50": pytest.approx(35.0)}
        assert profile_spans(_tree()).frame_percentiles(name="absent") == {}

    def test_render_top_lists_hot_spans(self):
        text = profile_spans(_tree()).render_top(2)
        assert "hot spans" in text
        assert "frame" in text and "drive" in text
        assert "hog" not in text.split("\n", 2)[2]  # cut off by top-2

    def test_to_dict_shape(self):
        doc = profile_spans(_tree()).to_dict()
        assert doc["n_spans"] == 4
        assert [r["name"] for r in doc["rollups"]] == ["frame", "drive", "hog"]


class TestPercentile:
    def test_linear_interpolation(self):
        samples = [1.0, 2.0, 3.0, 4.0]
        assert percentile(samples, 0) == 1.0
        assert percentile(samples, 100) == 4.0
        assert percentile(samples, 50) == pytest.approx(2.5)
        assert percentile(samples, 25) == pytest.approx(1.75)

    def test_order_independent(self):
        assert percentile([3.0, 1.0, 2.0], 50) == 2.0

    def test_single_sample(self):
        assert percentile([7.0], 99) == 7.0

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            percentile([], 50)

    def test_out_of_range_q_rejected(self):
        with pytest.raises(ConfigurationError):
            percentile([1.0], 101)
