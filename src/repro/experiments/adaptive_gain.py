"""Extension experiment — the paper's thesis, measured end to end.

The paper's argument for adaptivity is never printed as a single table, but
it is the point of the whole system: *no fixed pipeline covers all lighting
conditions, while the adaptive system tracks the best pipeline everywhere.*
This experiment renders frames along a day → dusk → dark drive, runs

* the adaptive detector (each frame served by the pipeline the vehicle
  partition has up),
* each fixed pipeline (day model, dusk model, combined model, dark pipeline)

over the same frames, and reports per-condition and overall object recall.

A detail worth noticing in the result: the adaptive detector's dark recall
trails the *fixed* dark pipeline by exactly one frame.  The frame whose lux
trips a switch is still served by the outgoing configuration, so the first
dark frame runs the dusk HOG (and the first dusk frame the day model).
Frames are 3 s apart, so the 20.51 ms reconfiguration is over long before
the next one and no frame is blind.  Adaptivity's cost is visible and
bounded, exactly as Section IV-B argues.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.functional import AdaptiveVehicleDetector
from repro.datasets.lighting import LightingCondition, condition_for_lux, sample_lighting
from repro.datasets.scene import SceneConfig, render_scene
from repro.experiments.common import check_scale, corpora_and_models, trained_dark_detector
from repro.experiments.tables import format_table, pct
from repro.imaging.geometry import Rect, match_detections
from repro.pipelines.base import Detection
from repro.pipelines.hog_svm import VEHICLE_LEVELS, HogSvmConfig, HogSvmDetector
from repro.rng import make_rng


@dataclass
class PipelineScore:
    """Recall tallies per lighting condition for one pipeline."""

    name: str
    matched: dict[str, int]
    total: dict[str, int]
    spurious: int = 0

    def recall(self, condition: str | None = None) -> float:
        if condition is None:
            num = sum(self.matched.values())
            den = sum(self.total.values())
        else:
            num = self.matched.get(condition, 0)
            den = self.total.get(condition, 0)
        return num / den if den else 0.0


@dataclass
class AdaptiveGainResult:
    scores: list[PipelineScore]
    n_frames: int

    def _by_name(self, name: str) -> PipelineScore:
        return next(s for s in self.scores if s.name == name)

    def render(self) -> str:
        conditions = ("day", "dusk", "dark")
        rows = []
        for score in self.scores:
            rows.append(
                [score.name]
                + [pct(score.recall(c)) for c in conditions]
                + [pct(score.recall()), score.spurious]
            )
        return format_table(
            ["pipeline", "day recall", "dusk recall", "dark recall", "overall", "spurious"],
            rows,
            title=f"Adaptive vs fixed pipelines over a mixed drive ({self.n_frames} frames)",
        )

    def shape_checks(self) -> dict[str, bool]:
        adaptive = self._by_name("adaptive")
        fixed = [s for s in self.scores if s.name != "adaptive"]
        best_fixed_overall = max(s.recall() for s in fixed)
        return {
            # The thesis: adaptivity beats every fixed choice overall.
            "adaptive_beats_every_fixed_pipeline": adaptive.recall() > best_fixed_overall,
            # And every fixed pipeline has a failure condition.
            "every_fixed_pipeline_fails_somewhere": all(
                min(s.recall(c) for c in ("day", "dusk", "dark")) < 0.5 for s in fixed
            ),
            # The adaptive system is not worst in any condition.
            "adaptive_never_worst": all(
                adaptive.recall(c) >= min(s.recall(c) for s in fixed) - 1e-9
                for c in ("day", "dusk", "dark")
            ),
        }


def run_adaptive_gain(
    n_frames_per_condition: int = 8,
    seed: int = 0,
    scale: float = 0.3,
) -> AdaptiveGainResult:
    """Render a mixed-condition frame stream and score all pipelines."""
    check_scale(scale)
    _, models = corpora_and_models(scale=scale, seed=seed)
    dark = trained_dark_detector()
    # Dense scanning wants a positive margin (crop classification uses 0).
    scan_config = HogSvmConfig(decision_threshold=1.0, levels=VEHICLE_LEVELS)
    adaptive = AdaptiveVehicleDetector(models, dark, day_dusk_config=scan_config)

    rng = make_rng(seed + 101)

    # Three decisive blocks (deep inside each regime) so the adaptive
    # controller's hysteresis settles before the block's frames arrive —
    # the drive's *transition* cost is measured separately (RL bench).
    block_lux = {
        LightingCondition.DAY: 20_000.0,
        LightingCondition.DUSK: 60.0,
        LightingCondition.DARK: 0.8,
    }
    frames = []
    t = 0.0
    for condition in (LightingCondition.DAY, LightingCondition.DUSK, LightingCondition.DARK):
        for _ in range(n_frames_per_condition):
            t += 3.0
            lux = block_lux[condition]
            assert condition_for_lux(lux) is condition
            lighting = sample_lighting(condition, rng)
            config = SceneConfig(
                height=180,
                width=330,
                n_vehicles=1,
                # Day/dusk vehicles sized for the pyramid's 0.64x level;
                # dark vehicles sized so their lamps fit the DBN window.
                vehicle_fill=(0.26, 0.31)
                if condition is not LightingCondition.DARK
                else (0.11, 0.17),
                seed=int(rng.integers(0, 2**31)),
            )
            frames.append((t, lux, condition, render_scene(config, lighting)))

    fixed_pipelines = {
        "fixed day model": HogSvmDetector(scan_config, models["day"]),
        "fixed dusk model": HogSvmDetector(scan_config, models["dusk"]),
        "fixed combined model": HogSvmDetector(scan_config, models["combined"]),
        "fixed dark pipeline": dark,
    }
    names = ["adaptive"] + list(fixed_pipelines)
    scores = {
        name: PipelineScore(name=name, matched={}, total={}) for name in names
    }

    def tally(
        name: str,
        condition: LightingCondition,
        truths: list[Rect],
        detections: list[Detection],
    ) -> None:
        score = scores[name]
        key = condition.value
        matches, unmatched_t, unmatched_d = match_detections(
            truths, [d.rect for d in detections], iou_threshold=0.25
        )
        score.matched[key] = score.matched.get(key, 0) + len(matches)
        score.total[key] = score.total.get(key, 0) + len(truths)
        score.spurious += len(unmatched_d)

    for t, lux, condition, frame in frames:
        truths = frame.vehicle_boxes
        result = adaptive.process(t, lux, frame.rgb)
        tally("adaptive", condition, truths, result.detections)
        for name, pipeline in fixed_pipelines.items():
            tally(name, condition, truths, pipeline.detect(frame.rgb))
    return AdaptiveGainResult(scores=list(scores.values()), n_frames=len(frames))
