"""The functional adaptive detector: lux in, detections out.

A thin pixel stage over :class:`repro.core.system.AdaptiveDetectionSystem`.
Each :meth:`AdaptiveVehicleDetector.process` call is one system ``tick``,
the one ``run_drive`` makes, with the pipeline the vehicle partition has up
as its stage (day/dusk: HOG+SVM with the selected model; dark: the DBN
pipeline); the frame's lux is the tick's one sensor sample, so the system's
report holds the same audited frames a timing-only drive does.  A switch
takes effect from the next frame: a day<->dusk model swap is free, and a
dusk<->dark partial reconfiguration (20.51 ms, one period and a bit at 50
fps) leaves the next frame blind.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.adaptive.controller import ControllerConfig
from repro.adaptive.policy import VehicleConfigurationId
from repro.core.system import AdaptiveDetectionSystem, SystemConfig
from repro.datasets.lighting import LightingCondition
from repro.errors import ConfigurationError, PipelineError
from repro.faults.plan import FaultPlan
from repro.ml.linear import LinearModel
from repro.pipelines.base import Detection
from repro.pipelines.dark import DarkVehicleDetector
from repro.pipelines.day_dusk import HogSvmVehicleDetector
from repro.pipelines.hog_svm import VEHICLE_LEVELS, HogSvmConfig


@dataclass
class FrameResult:
    """Outcome of one functional frame.

    ``condition`` is the controller's condition and ``active_pipeline`` the
    image (and model) the vehicle partition holds when the frame is issued.
    ``reconfiguring`` marks a frame the partition could not take because it
    was being reconfigured.  ``degraded`` marks a frame the partition lost
    while up (a raising pipeline, a flushed tick or a busy ingress): it
    reports no detections instead of crashing the stream.
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
        multiscale: Scan the day/dusk pyramid's ``VEHICLE_LEVELS`` levels
            whatever the day/dusk configuration's ``levels``.  Kept because
            bench/workloads.py passes ``multiscale=True``.
    """

    controller: ControllerConfig = field(default_factory=ControllerConfig)
    multiscale: bool = False


class AdaptiveVehicleDetector:
    """Runs the pipeline the adaptive system's vehicle partition has up."""

    def __init__(
        self,
        condition_models: dict[str, LinearModel],
        dark_detector: DarkVehicleDetector,
        config: FunctionalConfig | None = None,
        day_dusk_config: HogSvmConfig | None = None,
        initial: LightingCondition = LightingCondition.DAY,
        fault_plan: FaultPlan | None = None,
    ):
        for required in ("day", "dusk"):
            if required not in condition_models:
                raise ConfigurationError(f"condition_models needs a {required!r} model")
        if dark_detector.dbn is None or dark_detector.matcher is None:
            raise PipelineError("dark detector must be trained")
        self.config = config or FunctionalConfig()
        hog_config = day_dusk_config or HogSvmConfig()
        if self.config.multiscale:
            hog_config = replace(hog_config, levels=VEHICLE_LEVELS)
        base = HogSvmVehicleDetector(hog_config)
        self._hog = {
            name: base.with_model(model) for name, model in condition_models.items()
        }
        self._dark = dark_detector
        self.system = AdaptiveDetectionSystem(
            SystemConfig(controller=self.config.controller, initial_condition=initial),
            fault_plan=fault_plan,
        )
        self.controller = self.system.controller
        self.results: list[FrameResult] = []

    def process(self, time_s: float, lux: float, frame: np.ndarray) -> FrameResult:
        """One system tick with the partition's pipeline as its stage.

        ``time_s`` must not decrease between calls.  The frame is served by
        the configuration and model the SoC has up when it is issued, so
        the frame whose lux triggers a switch still runs the outgoing one.
        """

        def stage(vehicle_ok: bool) -> None:
            soc = self.system.soc
            if soc.vehicle.configuration == VehicleConfigurationId.DARK.value:
                active, detect = self._dark.name, self._dark.detect
            else:
                hog = self._hog[soc.vehicle_model]
                # detect_multiscale, the name bench/layers.py times (= detect).
                active, detect = f"{hog.name}:{soc.vehicle_model}", hog.detect_multiscale
            reconfiguring = not soc.vehicle.available
            result = FrameResult(time_s, self.controller.condition, active, [], reconfiguring)
            result.degraded = not (vehicle_ok or reconfiguring)
            if vehicle_ok:
                try:
                    result.detections = detect(frame)
                except PipelineError as exc:
                    # Fail safe, not silent: no detections for this frame
                    # rather than a dead stream, the frame marked degraded
                    # and the error in the tick's audit trail.
                    result.degraded = True
                    self.system._degrade("pipeline-error", f"{active}: {exc}")
            self.results.append(result)

        self.system.tick(len(self.results), time_s, ((time_s, lux),), stage)
        return self.results[-1]
