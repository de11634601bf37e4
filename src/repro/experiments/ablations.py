"""Ablation studies for the design choices DESIGN.md calls out.

* chroma+luma vs luma-only thresholding in the dark pipeline;
* the DBN taillight stage vs a plain blob-size heuristic;
* hysteresis controller vs naive thresholding (reconfiguration storms);
* reconfigurable-partition slack sweep;
* HP-port contention: ZyCAP-style reconfiguration vs the paper controller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.adaptive.controller import ControllerConfig, LightingController, NaiveController
from repro.adaptive.sensor import LightSensor, flicker_trace
from repro.datasets.synthetic import make_iroads_like
from repro.errors import ResourceError
from repro.experiments.common import trained_dark_detector
from repro.experiments.tables import format_table, pct
from repro.hw.designs import dark_design, day_dusk_design
from repro.hw.floorplan import plan_vehicle_partition
from repro.hw.resources import ZYNQ_7Z100
from repro.imaging.components import find_blobs
from repro.imaging.geometry import Rect
from repro.pipelines.base import Detection
from repro.pipelines.dark import MAX_CANDIDATES, DarkConfig, DarkVehicleDetector
from repro.pipelines.evaluation import FrameEvaluation, evaluate_frames
from repro.pipelines.taillight import (
    CLASS_RADIUS_PX,
    TaillightCandidate,
    vehicle_box_from_pair,
)
from repro.zynq.pr import PaperPrController, ZycapController
from repro.zynq.soc import FRAME_BYTES, ZynqSoC


# --- Threshold ablation -----------------------------------------------------


@dataclass
class ThresholdAblationResult:
    with_chroma: FrameEvaluation
    luma_only: FrameEvaluation

    def render(self) -> str:
        rows = [
            ["chroma+luma (paper)", pct(self.with_chroma.frame_accuracy), pct(self.with_chroma.object_recall), self.with_chroma.spurious],
            ["luma only", pct(self.luma_only.frame_accuracy), pct(self.luma_only.object_recall), self.luma_only.spurious],
        ]
        return format_table(
            ["threshold", "frame accuracy", "object recall", "spurious"],
            rows,
            title="Ablation: chroma+luma vs luma-only thresholding (dark pipeline)",
        )

    def shape_checks(self) -> dict[str, bool]:
        return {
            # The chroma mask exists to reject non-red light sources.
            "chroma_reduces_spurious": self.with_chroma.spurious <= self.luma_only.spurious,
            "chroma_at_least_as_accurate": self.with_chroma.frame_accuracy
            >= self.luma_only.frame_accuracy - 1e-9,
        }


def run_threshold_ablation(n_frames: int = 30, seed: int = 17) -> ThresholdAblationResult:
    frames = make_iroads_like(n_frames=n_frames, seed=seed).frames
    base = trained_dark_detector()
    with_chroma = evaluate_frames(base, frames, iou_threshold=0.25)
    luma_detector = DarkVehicleDetector(
        config=DarkConfig(use_chroma=False), dbn=base.dbn, matcher=base.matcher
    )
    luma_only = evaluate_frames(luma_detector, frames, iou_threshold=0.25)
    return ThresholdAblationResult(with_chroma=with_chroma, luma_only=luma_only)


# --- DBN vs blob heuristic -----------------------------------------------------


class BlobHeuristicDetector:
    """Baseline: replace the sliding DBN with plain blob statistics.

    Candidates are connected components of the processed mask filtered by
    area only; pairing reuses the same trained matcher.  This isolates what
    the DBN's shape/size classification buys.
    """

    def __init__(self, base: DarkVehicleDetector) -> None:
        self.base = base
        self.name = "vehicle-dark-blob-baseline"

    def detect(self, frame: np.ndarray) -> list[Detection]:
        rgb = np.asarray(frame)
        factor = self.base._effective_factor(rgb.shape[0], rgb.shape[1])
        mask = self.base.preprocess(rgb)
        candidates = []
        for blob in find_blobs(mask, min_area=2):
            # Size class from blob area alone (no shape discrimination).
            radius = math.sqrt(blob.area / math.pi)
            if radius <= 1.6:
                size_class = 1
            elif radius <= 2.8:
                size_class = 2
            else:
                size_class = 3
            candidates.append(
                TaillightCandidate(
                    center=blob.centroid,
                    size_class=size_class,
                    area=float(blob.area) / 4.0,
                    bbox=blob.bbox,
                )
            )
        candidates.sort(key=lambda c: c.area, reverse=True)
        candidates = candidates[:MAX_CANDIDATES]
        pairs = self.base.matcher.match_pairs(candidates)
        detections = []
        for i, j, score in pairs:
            box = vehicle_box_from_pair(candidates[i], candidates[j]).scaled(float(factor))
            clipped = box.clipped(rgb.shape[1], rgb.shape[0])
            if clipped is not None:
                detections.append(Detection(rect=clipped, score=score, kind="vehicle"))
        return detections

    def classify_crop(self, crop: np.ndarray) -> tuple[bool, float]:
        detections = self.detect(crop)
        if not detections:
            return False, 0.0
        return True, max(d.score for d in detections)


@dataclass
class DbnAblationResult:
    dbn: FrameEvaluation
    blob_heuristic: FrameEvaluation

    def render(self) -> str:
        rows = [
            ["sliding DBN (paper)", pct(self.dbn.frame_accuracy), pct(self.dbn.object_recall), self.dbn.spurious],
            ["blob-size heuristic", pct(self.blob_heuristic.frame_accuracy), pct(self.blob_heuristic.object_recall), self.blob_heuristic.spurious],
        ]
        return format_table(
            ["taillight stage", "frame accuracy", "object recall", "spurious"],
            rows,
            title="Ablation: DBN taillight classification vs blob-size heuristic",
        )

    def shape_checks(self) -> dict[str, bool]:
        return {
            "dbn_at_least_as_accurate": self.dbn.frame_accuracy
            >= self.blob_heuristic.frame_accuracy - 1e-9,
            "dbn_not_more_spurious": self.dbn.spurious <= self.blob_heuristic.spurious,
        }


def run_dbn_ablation(n_frames: int = 30, seed: int = 19) -> DbnAblationResult:
    frames = make_iroads_like(n_frames=n_frames, seed=seed).frames
    base = trained_dark_detector()
    dbn_eval = evaluate_frames(base, frames, iou_threshold=0.25)
    blob_eval = evaluate_frames(BlobHeuristicDetector(base), frames, iou_threshold=0.25)
    return DbnAblationResult(dbn=dbn_eval, blob_heuristic=blob_eval)


# --- Hysteresis ablation ----------------------------------------------------------


@dataclass
class HysteresisAblationResult:
    hysteretic_switches: int
    naive_switches: int
    duration_s: float

    def render(self) -> str:
        return "\n".join(
            [
                "Ablation: hysteresis + dwell vs naive thresholding",
                f"  boundary-hugging illuminance for {self.duration_s:.0f} s:",
                f"  naive controller switches:      {self.naive_switches}"
                f"  (each dusk<->dark switch costs a 20 ms PR + 1 frame)",
                f"  hysteretic controller switches: {self.hysteretic_switches}",
            ]
        )

    def shape_checks(self) -> dict[str, bool]:
        return {
            "naive_controller_storms": self.naive_switches >= 6,
            "hysteresis_suppresses_storm": self.hysteretic_switches <= max(2, self.naive_switches // 3),
        }


def run_hysteresis_ablation(duration_s: float = 120.0, seed: int = 23) -> HysteresisAblationResult:
    from repro.datasets.lighting import LightingCondition

    trace = flicker_trace(base_lux=6.2, dip_lux=4.2, period_s=4.0, duration_s=duration_s)
    hysteretic = LightingController(ControllerConfig(), initial=LightingCondition.DUSK)
    naive = NaiveController(initial=LightingCondition.DUSK)
    changes_h = hysteretic.run_trace(LightSensor(trace, noise_rel=0.05, seed=seed), 0.1, duration_s)
    changes_n = naive.run_trace(LightSensor(trace, noise_rel=0.05, seed=seed), 0.1, duration_s)
    return HysteresisAblationResult(
        hysteretic_switches=len(changes_h),
        naive_switches=len(changes_n),
        duration_s=duration_s,
    )


# --- Floorplan slack sweep -----------------------------------------------------------


@dataclass
class FloorplanSweepResult:
    rows: list[tuple[float, float, bool]]  # (slack, area fraction, total fits)

    def render(self) -> str:
        table_rows = [
            [f"{slack:.2f}", f"{area:.2f}", "yes" if fits else "NO"]
            for slack, area, fits in self.rows
        ]
        return format_table(
            ["slack", "RP area fraction", "static+RP fits device"],
            table_rows,
            title="Ablation: reconfigurable-partition slack sweep",
        )

    def shape_checks(self) -> dict[str, bool]:
        areas = [area for _, area, _ in self.rows]
        return {
            "area_monotone_in_slack": all(a <= b + 1e-9 for a, b in zip(areas, areas[1:])),
            "paper_slack_fits": any(abs(s - 1.125) < 1e-9 and fits for s, _, fits in self.rows),
        }


def run_floorplan_sweep(slacks: tuple[float, ...] = (1.0, 1.125, 1.2, 1.4, 1.7, 2.0)) -> FloorplanSweepResult:
    from repro.hw.designs import static_design

    configs = [day_dusk_design().total, dark_design().total]
    static = static_design().total
    rows = []
    for slack in slacks:
        try:
            partition = plan_vehicle_partition(configs, slack=slack)
        except ResourceError:
            rows.append((slack, float("nan"), False))
            continue
        total = static + partition.capacity
        rows.append((slack, partition.area_fraction, total.fits_in(ZYNQ_7Z100.available)))
    return FloorplanSweepResult(rows=rows)


# --- HP-port contention ----------------------------------------------------------------


@dataclass
class ContentionResult:
    """Pedestrian frame latency during reconfiguration, per controller."""

    paper_delay_ms: float
    zycap_delay_ms: float

    def render(self) -> str:
        return "\n".join(
            [
                "Ablation: HP-port contention during reconfiguration",
                "  extra delay of a pedestrian frame issued mid-reconfiguration:",
                f"  paper PR controller (PL DDR path): {self.paper_delay_ms:.2f} ms",
                f"  ZyCAP-style (HP port path):        {self.zycap_delay_ms:.2f} ms",
            ]
        )

    def shape_checks(self) -> dict[str, bool]:
        return {
            "paper_controller_keeps_hp_free": self.paper_delay_ms < 0.5,
            "zycap_delays_video_traffic": self.zycap_delay_ms > self.paper_delay_ms + 1.0,
        }


def _pedestrian_frame_delay(controller_cls: type) -> float:
    """Latency of a pedestrian frame input DMA issued during a PR."""
    soc = ZynqSoC(controller_cls=controller_cls)
    done_at: list[float] = []
    start_at: list[float] = []

    def issue() -> None:
        start_at.append(soc.sim.now)
        soc.submit_frame("pedestrian", on_result=lambda: done_at.append(soc.sim.now))

    soc.reconfigure_vehicle("dark")
    soc.sim.schedule(0.001, issue)  # 1 ms into the ~20 ms reconfiguration
    soc.sim.run()
    if not done_at:
        raise ResourceError("pedestrian frame never completed")
    return done_at[0] - start_at[0]


def run_contention() -> ContentionResult:
    baseline = _pedestrian_frame_delay(PaperPrController)
    zycap = _pedestrian_frame_delay(ZycapController)
    return ContentionResult(
        paper_delay_ms=(baseline - _ideal_frame_time()) * 1e3,
        zycap_delay_ms=(zycap - _ideal_frame_time()) * 1e3,
    )


def _ideal_frame_time() -> float:
    """Uncontended pedestrian frame turnaround (input + process + result)."""
    soc = ZynqSoC()
    done: list[float] = []
    soc.submit_frame("pedestrian", on_result=lambda: done.append(soc.sim.now))
    soc.sim.run()
    return done[0]
