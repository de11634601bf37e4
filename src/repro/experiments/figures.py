"""Experiments F1-F7 + FPS — the paper's figures.

Figures 1-4, 6 and 7 are architecture/flow diagrams; their "reproduction"
is executable: each runner drives the corresponding implementation and
reports the quantities the figure implies (training flow products, pipeline
stage timing, detection samples, SoC data movement, PR controller event
trace).  FPS reproduces the headline 50 fps / 125 MHz claim.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.datasets.lighting import LightingCondition
from repro.datasets.synthetic import make_iroads_like
from repro.experiments.common import check_scale, corpora_and_models, trained_dark_detector
from repro.experiments.tables import format_table, pct
from repro.hw.designs import dark_pipeline, day_dusk_pipeline, pedestrian_pipeline
from repro.hw.timing import PAPER_CLOCK_HZ
from repro.imaging.draw import ascii_render_with_boxes
from repro.imaging.color import luminance
from repro.pipelines.base import Detection
from repro.pipelines.dark import DarkStageTrace
from repro.zynq.pr import PaperPrController
from repro.zynq.soc import ZynqSoC

PAPER_FPS = 50.0


# --- Fig. 1: training flow ---------------------------------------------------


@dataclass
class TrainingFlowResult:
    """Products of the Fig. 1 flow: three models and their divergence."""

    model_meta: dict[str, dict]
    divergences: dict[str, float]

    def render(self) -> str:
        rows = [
            [name, meta["n_train"], meta["epochs"], meta["n_support"]]
            for name, meta in self.model_meta.items()
        ]
        table = format_table(
            ["model", "train samples", "solver epochs", "support vectors"],
            rows,
            title="Fig. 1 training flow (HOG -> LibLINEAR-style SVM)",
        )
        div = ", ".join(f"{k}: {v:.2f}" for k, v in self.divergences.items())
        return table + f"\nmodel divergence (0=same direction, 1=opposite): {div}"

    def shape_checks(self) -> dict[str, bool]:
        # "the trained model in these three cases look very different" —
        # strongest across conditions (day vs dusk); the combined model
        # shares training data with each, so its divergence is smaller but
        # still well away from colinear.
        return {
            "models_look_very_different": self.divergences["day-vs-dusk"] > 0.25
            and min(self.divergences.values()) > 0.08
        }


def run_training_flow(scale: float = 0.25, seed: int = 0) -> TrainingFlowResult:
    check_scale(scale)
    _, models = corpora_and_models(scale=scale, seed=seed)
    divergences = {
        "day-vs-dusk": models["day"].model_divergence(models["dusk"]),
        "day-vs-combined": models["day"].model_divergence(models["combined"]),
        "dusk-vs-combined": models["dusk"].model_divergence(models["combined"]),
    }
    return TrainingFlowResult(
        model_meta={name: model.meta for name, model in models.items()},
        divergences=divergences,
    )


# --- Fig. 2 / Fig. 4: pipeline timing ----------------------------------------


@dataclass
class PipelineTimingResult:
    """Stage-level timing of one hardware pipeline at 125 MHz."""

    report: dict

    def render(self) -> str:
        rows = [
            [s["name"], s["ii"], f"{s['cycles_per_frame']:.0f}", s["latency"]]
            for s in self.report["stages"]
        ]
        table = format_table(
            ["stage", "II", "cycles/frame", "fill latency"],
            rows,
            title=(
                f"{self.report['name']} pipeline @ {self.report['clock_mhz']:.0f} MHz: "
                f"{self.report['fps']:.1f} fps, bottleneck={self.report['bottleneck']}"
            ),
        )
        return table

    def shape_checks(self) -> dict[str, bool]:
        return {
            "achieves_50fps": self.report["fps"] >= PAPER_FPS,
            "frame_latency_below_budget": self.report["frame_latency_ms"] <= 1e3 / PAPER_FPS * 2,
        }


def run_fig2_pipeline() -> PipelineTimingResult:
    """Fig. 2: the day/dusk HOG+SVM pipeline timing."""
    return PipelineTimingResult(report=day_dusk_pipeline().report())


def run_fig4_pipeline() -> PipelineTimingResult:
    """Fig. 4: the dark pipeline timing."""
    return PipelineTimingResult(report=dark_pipeline().report())


def run_pedestrian_pipeline() -> PipelineTimingResult:
    """Static-partition pedestrian pipeline timing."""
    return PipelineTimingResult(report=pedestrian_pipeline().report())


# --- Fig. 5: sample dark detections -------------------------------------------


@dataclass
class DarkSamplesResult:
    """Rendered dark frames with the pipeline's detections."""

    renders: list[str]
    n_frames: int
    n_detections: int
    n_with_truth: int
    n_detected_with_truth: int

    def render(self) -> str:
        header = (
            f"Fig. 5 samples: {self.n_detections} detections over {self.n_frames} "
            f"dark frames ({self.n_detected_with_truth}/{self.n_with_truth} vehicle frames hit)"
        )
        return header + "\n\n" + "\n\n".join(self.renders)

    def shape_checks(self) -> dict[str, bool]:
        return {
            "detects_in_most_vehicle_frames": self.n_with_truth == 0
            or self.n_detected_with_truth >= 0.7 * self.n_with_truth
        }


def run_fig5_samples(n_frames: int = 4, seed: int = 3, ascii_width: int = 72) -> DarkSamplesResult:
    detector = trained_dark_detector()
    dataset = make_iroads_like(n_frames=n_frames, seed=seed)
    renders: list[str] = []
    n_detections = 0
    n_with_truth = 0
    n_hit = 0
    for frame in dataset.frames:
        detections: list[Detection] = detector.detect(frame.rgb)
        n_detections += len(detections)
        if frame.vehicles:
            n_with_truth += 1
            if detections:
                n_hit += 1
        renders.append(
            ascii_render_with_boxes(
                luminance(frame.rgb), [d.rect for d in detections], width=ascii_width
            )
        )
    return DarkSamplesResult(
        renders=renders,
        n_frames=len(dataset.frames),
        n_detections=n_detections,
        n_with_truth=n_with_truth,
        n_detected_with_truth=n_hit,
    )


# --- Fig. 6: system data movement ----------------------------------------------


@dataclass
class SystemTopologyResult:
    """Data-movement audit of the Fig. 6 SoC over a burst of frames."""

    stats: dict
    hp_bytes: dict[str, int]

    def render(self) -> str:
        lines = [
            "Fig. 6 system: frame streaming audit",
            f"  pedestrian frames processed: {self.stats['pedestrian']['processed']}",
            f"  vehicle frames processed: {self.stats['vehicle']['processed']}",
            f"  interrupts: {self.stats['interrupts']}",
            f"  HP port bytes: {self.hp_bytes}",
        ]
        return "\n".join(lines)

    def shape_checks(self) -> dict[str, bool]:
        irq = self.stats["interrupts"]
        return {
            "every_dma_interrupted_per_frame": len({v for k, v in irq.items() if "dma" in k}) == 1,
            "frames_flow_through_hp_ports": all(v > 0 for v in self.hp_bytes.values()),
        }


def run_fig6_system(n_frames: int = 10) -> SystemTopologyResult:
    soc = ZynqSoC()
    frame_period = 1.0 / PAPER_FPS

    for i in range(n_frames):
        soc.sim.schedule(i * frame_period, lambda: (soc.submit_frame("pedestrian"), soc.submit_frame("vehicle")))
    soc.sim.run()
    return SystemTopologyResult(
        stats=soc.stats(),
        hp_bytes={
            "hp0": soc.hp0.bytes_moved,
            "hp1": soc.hp1.bytes_moved,
            "hp2": soc.hp2.bytes_moved,
        },
    )


# --- Fig. 7: PR controller event walk -------------------------------------------


@dataclass
class PrControllerTraceResult:
    """Timestamped event trace of one paper-PR reconfiguration."""

    events: list[str]
    throughput_mb_s: float
    duration_ms: float

    def render(self) -> str:
        header = (
            f"Fig. 7 PR controller: PL DDR -> AXI DMA -> ICAP manager -> ICAPE2: "
            f"{self.throughput_mb_s:.0f} MB/s, {self.duration_ms:.1f} ms"
        )
        return header + "\n" + "\n".join(self.events)

    def shape_checks(self) -> dict[str, bool]:
        return {
            "hits_390_mb_s": abs(self.throughput_mb_s - 390.0) < 10.0,
            "interrupt_signals_completion": any("reconfig_done" in e for e in self.events),
        }


def run_fig7_pr_controller() -> PrControllerTraceResult:
    soc = ZynqSoC(controller_cls=PaperPrController)
    log = soc.trace.record()
    report = soc.reconfigure_vehicle("dark")
    soc.sim.run()
    events = [f"  t={r.time * 1e3:8.3f} ms  [{r.source}] {r.message}" for r in log]
    irq = soc.interrupts.count(soc.pr.irq_line)
    events.append(f"  t={soc.sim.now * 1e3:8.3f} ms  [ps] {soc.pr.irq_line} interrupts delivered: {irq}")
    return PrControllerTraceResult(
        events=events,
        throughput_mb_s=report.throughput_mb_s,
        duration_ms=report.duration_s * 1e3,
    )


# --- FPS: the headline real-time claim -------------------------------------------


@dataclass
class FpsResult:
    """Frame-rate audit across all three pipelines and the system drive."""

    pipeline_fps: dict[str, float]
    system_vehicle_fps: float
    system_pedestrian_fps: float

    def render(self) -> str:
        rows = [[k, f"{v:.1f}"] for k, v in self.pipeline_fps.items()]
        rows.append(["system (vehicle, incl. PR drops)", f"{self.system_vehicle_fps:.1f}"])
        rows.append(["system (pedestrian)", f"{self.system_pedestrian_fps:.1f}"])
        return format_table(
            ["path", "fps"], rows, title=f"Real-time rate at 125 MHz (paper: {PAPER_FPS:.0f} fps HDTV)"
        )

    def shape_checks(self) -> dict[str, bool]:
        return {
            "all_pipelines_at_least_50fps": all(v >= PAPER_FPS for v in self.pipeline_fps.values()),
            "system_sustains_about_50fps": self.system_vehicle_fps >= PAPER_FPS * 0.98
            and self.system_pedestrian_fps >= PAPER_FPS * 0.999,
        }


def run_fps(drive_duration_s: float = 60.0) -> FpsResult:
    from repro.adaptive.sensor import urban_evening_trace
    from repro.core.system import AdaptiveDetectionSystem

    pipelines = {
        "day-dusk pipeline": day_dusk_pipeline().fps,
        "dark pipeline": dark_pipeline().fps,
        "pedestrian pipeline": pedestrian_pipeline().fps,
    }
    system = AdaptiveDetectionSystem()
    drive = system.run_drive(urban_evening_trace(duration_s=drive_duration_s))
    n = drive.n_frames
    veh_fps = PAPER_FPS * (n - drive.vehicle_dropped) / n
    ped_fps = PAPER_FPS * (n - drive.pedestrian_dropped) / n
    return FpsResult(
        pipeline_fps=pipelines,
        system_vehicle_fps=veh_fps,
        system_pedestrian_fps=ped_fps,
    )
