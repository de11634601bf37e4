"""The functional adaptive detector: lux in, detections out.

`AdaptiveDetectionSystem` (core.system) models the *hardware* story — frame
clocks, DMA, partial reconfiguration — without running the algorithms.
This module is its software twin: it holds the three trained pipelines,
routes every frame to the one the current lighting condition selects
(day/dusk: HOG+SVM with the matching model; dark: the DBN pipeline), and
mirrors the hardware's switching semantics — day<->dusk swaps are free,
dusk<->dark transitions cost a reconfiguration delay during which vehicle
frames return no detections.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.adaptive.controller import ControllerConfig, LightingController
from repro.adaptive.policy import (
    CONFIG_FOR_CONDITION,
    SwitchKind,
    VehicleConfigurationId,
    plan_switch,
)
from repro.datasets.lighting import LightingCondition
from repro.errors import ConfigurationError, PipelineError
from repro.faults.plan import FaultPlan, FaultSite
from repro.ml.linear import LinearModel
from repro.pipelines.base import Detection
from repro.pipelines.dark import DarkVehicleDetector
from repro.pipelines.day_dusk import DayDuskConfig, HogSvmVehicleDetector


@dataclass
class FrameResult:
    """Outcome of one functional frame.

    ``degraded`` marks frames where the active pipeline raised (or a fault
    plan injected an exception) and the detector fell back to reporting no
    detections instead of crashing the stream.
    """

    time_s: float
    condition: LightingCondition
    active_pipeline: str
    detections: list[Detection]
    reconfiguring: bool
    degraded: bool = False


@dataclass(frozen=True)
class FunctionalConfig:
    """Parameters of the functional adaptive detector.

    Attributes:
        controller: Hysteresis controller settings.
        reconfiguration_s: Blind window after a dusk<->dark switch (the
            hardware's ~20 ms; configurable for experiments).
        multiscale: Use pyramid detection for the HOG pipelines.
    """

    controller: ControllerConfig = field(default_factory=ControllerConfig)
    reconfiguration_s: float = 0.0205
    multiscale: bool = False

    def __post_init__(self) -> None:
        if self.reconfiguration_s < 0:
            raise ConfigurationError("reconfiguration_s must be >= 0")


class AdaptiveVehicleDetector:
    """Routes frames to the pipeline the lighting condition selects."""

    def __init__(
        self,
        condition_models: dict[str, LinearModel],
        dark_detector: DarkVehicleDetector,
        config: FunctionalConfig | None = None,
        day_dusk_config: DayDuskConfig | None = None,
        initial: LightingCondition = LightingCondition.DAY,
        fault_plan: FaultPlan | None = None,
    ):
        for required in ("day", "dusk"):
            if required not in condition_models:
                raise ConfigurationError(f"condition_models needs a {required!r} model")
        if dark_detector.dbn is None or dark_detector.matcher is None:
            raise PipelineError("dark detector must be trained")
        self.config = config or FunctionalConfig()
        base = HogSvmVehicleDetector(day_dusk_config or DayDuskConfig())
        self._hog = {
            name: base.with_model(model) for name, model in condition_models.items()
        }
        self._dark = dark_detector
        self.controller = LightingController(self.config.controller, initial=initial)
        self.fault_plan = fault_plan
        self._blind_until = float("-inf")
        self.results: list[FrameResult] = []
        self.degraded_frames = 0

    @property
    def condition(self) -> LightingCondition:
        return self.controller.condition

    @property
    def active_pipeline_name(self) -> str:
        if self.condition is LightingCondition.DARK:
            return self._dark.name
        return f"{self._hog[self.condition.value].name}:{self.condition.value}"

    def process(self, time_s: float, lux: float, frame: np.ndarray) -> FrameResult:
        """Classify the lighting, switch pipelines if needed, detect.

        During a reconfiguration blind window (dusk<->dark switches) the
        vehicle stream reports no detections — matching the hardware's one
        dropped frame at 50 fps.
        """
        change = self.controller.update(time_s, lux)
        if change is not None:
            plan = plan_switch(change.previous, change.new)
            if plan.kind is SwitchKind.PARTIAL_RECONFIG:
                self._blind_until = time_s + self.config.reconfiguration_s
        reconfiguring = time_s < self._blind_until
        condition = self.controller.condition
        degraded = False
        if reconfiguring:
            detections: list[Detection] = []
        else:
            try:
                if self.fault_plan is not None and self.fault_plan.fire(
                    FaultSite.PIPELINE_EXCEPTION, "vehicle", time_s
                ):
                    raise PipelineError(f"injected detector exception at t={time_s}")
                if condition is LightingCondition.DARK:
                    detections = self._dark.detect(frame)
                else:
                    detector = self._hog[condition.value]
                    if self.config.multiscale:
                        detections = detector.detect_multiscale(frame)
                    else:
                        detections = detector.detect(frame)
            except PipelineError:
                # Fail safe, not silent: report no detections for this
                # frame rather than killing the stream, and mark the frame
                # degraded so drives stay auditable.
                detections = []
                degraded = True
                self.degraded_frames += 1
        result = FrameResult(
            time_s=time_s,
            condition=condition,
            active_pipeline=self.active_pipeline_name,
            detections=detections,
            reconfiguring=reconfiguring,
            degraded=degraded,
        )
        self.results.append(result)
        return result

    def pipeline_for(self, condition: LightingCondition):
        """The pipeline the given condition routes to (introspection)."""
        if condition is LightingCondition.DARK:
            return self._dark
        return self._hog[condition.value]

    @staticmethod
    def configuration_for(condition: LightingCondition) -> VehicleConfigurationId:
        return CONFIG_FOR_CONDITION[condition]
