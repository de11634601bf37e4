"""Video timing and streaming-pipeline throughput model.

The paper's accelerators are line-buffered streaming pipelines clocked at
125 MHz that consume one pixel per cycle (initiation interval II = 1) and
therefore process HDTV at "the rate of 50 fps": a 1080p raster with standard
blanking is 2200 x 1125 = 2.475 M cycles per frame, and
125 MHz / 2.475 M = 50.5 fps.

``StreamingPipeline`` composes stages with per-pixel initiation intervals
and fixed latencies; the slowest stage's II bounds throughput, latencies add
once per frame.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import HardwareError

# The paper's operating point.
PAPER_CLOCK_HZ = 125_000_000
HDTV_WIDTH = 1920
HDTV_HEIGHT = 1080
# CEA-861 1080p blanking geometry (2200 x 1125 total raster).
HDTV_H_BLANK = 280
HDTV_V_BLANK = 45


@dataclass(frozen=True)
class VideoTiming:
    """Active and blanked raster geometry of a video stream."""

    width: int = HDTV_WIDTH
    height: int = HDTV_HEIGHT
    h_blank: int = HDTV_H_BLANK
    v_blank: int = HDTV_V_BLANK

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise HardwareError("active raster must be positive")
        if self.h_blank < 0 or self.v_blank < 0:
            raise HardwareError("blanking must be >= 0")

    @property
    def total_pixels(self) -> int:
        return (self.width + self.h_blank) * (self.height + self.v_blank)

    def fps_at(self, clock_hz: float, initiation_interval_cycles: float = 1.0) -> float:
        """Frame rate of an II-cycles-per-pixel pipeline at ``clock_hz``."""
        if clock_hz <= 0 or initiation_interval_cycles <= 0:
            raise HardwareError("clock and II must be positive")
        return clock_hz / (self.total_pixels * initiation_interval_cycles)


HDTV_TIMING = VideoTiming()


@dataclass(frozen=True)
class PipelineStage:
    """One hardware stage of a streaming pipeline.

    Attributes:
        name: Stage label (matches the paper's block diagrams).
        initiation_interval_cycles: Cycles between accepted inputs (1 = full rate).
        latency_cycles: Fixed pipeline fill latency, paid once per frame.
        work_items_per_frame: Items this stage processes per frame; defaults
            to the pixel count (None).  Stages running on a decimated grid
            (the sliding DBN) set this lower.
    """

    name: str
    initiation_interval_cycles: float = 1.0
    latency_cycles: int = 0
    work_items_per_frame: int | None = None

    def __post_init__(self) -> None:
        if self.initiation_interval_cycles <= 0:
            raise HardwareError(f"{self.name}: II must be positive")
        if self.latency_cycles < 0:
            raise HardwareError(f"{self.name}: latency must be >= 0")
        if self.work_items_per_frame is not None and self.work_items_per_frame < 0:
            raise HardwareError(f"{self.name}: work items must be >= 0")


@dataclass
class StreamingPipeline:
    """A chain of streaming stages fed by a video raster.

    Stages run concurrently (it is a pipeline); the *throughput* bottleneck
    is the stage with the largest cycles-per-frame demand, and the frame
    *latency* adds every stage's fill latency on top.
    """

    name: str
    timing: VideoTiming
    clock_hz: float = PAPER_CLOCK_HZ
    stages: list[PipelineStage] = field(default_factory=list)

    def add_stage(self, stage: PipelineStage) -> "StreamingPipeline":
        self.stages.append(stage)
        return self

    def stage_cycles_per_frame(self, stage: PipelineStage) -> float:
        items = stage.work_items_per_frame
        if items is None:
            items = self.timing.total_pixels
        return items * stage.initiation_interval_cycles

    @property
    def bottleneck(self) -> PipelineStage:
        if not self.stages:
            raise HardwareError(f"pipeline {self.name} has no stages")
        return max(self.stages, key=self.stage_cycles_per_frame)

    @property
    def cycles_per_frame(self) -> float:
        """Steady-state cycles between finished frames."""
        # The raster itself also bounds the rate: pixels arrive at most one
        # per cycle from the video source.
        demand = max(self.stage_cycles_per_frame(s) for s in self.stages) if self.stages else 0.0
        return max(float(self.timing.total_pixels), demand)

    @property
    def fps(self) -> float:
        return self.clock_hz / self.cycles_per_frame

    @property
    def frame_latency_cycles(self) -> float:
        """Input-to-output latency for one frame."""
        return self.cycles_per_frame + sum(s.latency_cycles for s in self.stages)

    @property
    def frame_latency_s(self) -> float:
        return self.frame_latency_cycles / self.clock_hz

    def report(self) -> dict:
        """Per-stage and whole-pipeline timing summary."""
        return {
            "name": self.name,
            "clock_mhz": self.clock_hz / 1e6,
            "fps": self.fps,
            "cycles_per_frame": self.cycles_per_frame,
            "frame_latency_ms": self.frame_latency_s * 1e3,
            "bottleneck": self.bottleneck.name,
            "stages": [
                {
                    "name": s.name,
                    "ii": s.initiation_interval_cycles,
                    "cycles_per_frame": self.stage_cycles_per_frame(s),
                    "latency": s.latency_cycles,
                }
                for s in self.stages
            ],
        }
