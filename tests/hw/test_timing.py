"""Tests for repro.hw.timing: video timing and the pipeline model."""

from __future__ import annotations

import pytest

from repro.errors import HardwareError
from repro.hw.timing import (
    HDTV_TIMING,
    PAPER_CLOCK_HZ,
    PipelineStage,
    StreamingPipeline,
    VideoTiming,
)


class TestVideoTiming:
    def test_hdtv_raster(self):
        assert HDTV_TIMING.total_pixels == 2200 * 1125

    def test_fps_at_paper_clock(self):
        # The headline claim: 125 MHz streaming = ~50 fps HDTV.
        fps = HDTV_TIMING.fps_at(PAPER_CLOCK_HZ)
        assert fps == pytest.approx(50.5, abs=0.1)

    def test_fps_scales_with_ii(self):
        assert HDTV_TIMING.fps_at(PAPER_CLOCK_HZ, 2.0) == pytest.approx(
            HDTV_TIMING.fps_at(PAPER_CLOCK_HZ) / 2.0
        )

    def test_rejects_bad_geometry(self):
        with pytest.raises(HardwareError):
            VideoTiming(width=0)
        with pytest.raises(HardwareError):
            HDTV_TIMING.fps_at(0.0)


class TestPipelineStage:
    def test_rejects_bad_ii(self):
        with pytest.raises(HardwareError):
            PipelineStage("x", initiation_interval_cycles=0.0)

    def test_rejects_negative_latency(self):
        with pytest.raises(HardwareError):
            PipelineStage("x", latency_cycles=-1)


class TestStreamingPipeline:
    def _pipe(self) -> StreamingPipeline:
        pipe = StreamingPipeline("test", HDTV_TIMING, PAPER_CLOCK_HZ)
        pipe.add_stage(PipelineStage("a", 1.0, latency_cycles=1000))
        pipe.add_stage(PipelineStage("b", 1.0, latency_cycles=2000))
        return pipe

    def test_ii1_pipeline_hits_raster_rate(self):
        assert self._pipe().fps == pytest.approx(50.5, abs=0.1)

    def test_slow_stage_becomes_bottleneck(self):
        pipe = self._pipe()
        pipe.add_stage(PipelineStage("slow", 2.0))
        assert pipe.bottleneck.name == "slow"
        assert pipe.fps == pytest.approx(25.25, abs=0.1)

    def test_decimated_stage_not_bottleneck(self):
        pipe = self._pipe()
        pipe.add_stage(
            PipelineStage("dbn", 1.0, work_items_per_frame=100_000)
        )
        assert pipe.bottleneck.name in ("a", "b")

    def test_latency_adds_once_per_frame(self):
        pipe = self._pipe()
        assert pipe.frame_latency_cycles == pipe.cycles_per_frame + 3000

    def test_empty_pipeline_rejected(self):
        pipe = StreamingPipeline("empty", HDTV_TIMING)
        with pytest.raises(HardwareError):
            _ = pipe.bottleneck

    def test_report_structure(self):
        report = self._pipe().report()
        assert report["name"] == "test"
        assert len(report["stages"]) == 2
        assert report["fps"] > 0
