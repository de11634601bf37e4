"""The adaptive detection system: sensor -> controller -> PR -> detectors.

This is the paper's end-to-end story.  A frame clock runs at 50 fps; every
tick, both hardware detectors (static pedestrian + reconfigurable vehicle)
receive the frame through the SoC model.  An ambient-light sensor drives the
hysteresis controller; condition changes either swap the SVM model (day <->
dusk, instantaneous) or trigger a partial reconfiguration (dusk <-> dark,
~20 ms through the PR controller), during which the vehicle detector drops
frames while the pedestrian detector "continues its operation ... and
guarantees the real-time and safe behavior of the system".

Every frame is one :meth:`AdaptiveDetectionSystem.tick`: the frame goes to
both partitions, an optional pixel stage runs on the image and model the
SoC has up, the due sensor samples go to the controller, and the frame's
audited :class:`FrameRecord` feeds the quality, telemetry and monitor
planes.  ``run_drive`` ticks with no stage and renders no pixels;
:class:`repro.core.functional.AdaptiveVehicleDetector` ticks with the real
pipelines as its stage, so both drivers share one controller, one switch
plan, one blind window and one audit trail.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from dataclasses import asdict, dataclass, field

from repro.adaptive.controller import ConditionChange, ControllerConfig, LightingController
from repro.adaptive.policy import (
    CONFIG_FOR_CONDITION,
    SwitchKind,
    VehicleConfigurationId,
    plan_switch,
)
from repro.adaptive.sensor import LightSensor, LuxTrace
from repro.core.spec import DriveSpec
from repro.datasets.lighting import LightingCondition
from repro.errors import ConfigurationError, ReconfigurationError
from repro.faults.plan import DegradationEvent, FaultPlan, FaultSite
from repro.monitor.session import NULL_MONITOR, Monitor
from repro.quality.observer import DETECTION_IOU_BUCKETS, NULL_QUALITY
from repro.telemetry.session import NULL_TELEMETRY, Telemetry
from repro.zynq.bitstream import BitstreamRepository, paper_bitstreams
from repro.zynq.pr import ALL_CONTROLLERS, BasePrController, PaperPrController, ReconfigReport
from repro.zynq.soc import ZynqSoC


@dataclass(frozen=True)
class DegradationPolicy:
    """How the system degrades when the reconfigurable side misbehaves.

    The guiding rule is the paper's safety argument inverted: the static
    pedestrian partition must stay correct no matter what, so every
    recovery action below touches only the vehicle side.

    Attributes:
        max_reconfig_retries: Retries after a failed partial
            reconfiguration before the system stays on the last-good image.
        backoff_initial_s: First retry delay.
        backoff_factor: Multiplier per subsequent retry.
        backoff_max_s: Ceiling on the retry delay.
        pr_timeout_s: Watchdog deadline for one reconfiguration attempt
            (``None`` disables the watchdog).
        repair_bitstreams: Re-stage a corrupt bitstream from flash before
            retrying (models the PS reloading PL DDR).
    """

    max_reconfig_retries: int = 3
    backoff_initial_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_max_s: float = 1.0
    pr_timeout_s: float | None = 0.1
    repair_bitstreams: bool = True

    def __post_init__(self) -> None:
        if self.max_reconfig_retries < 0:
            raise ConfigurationError("max_reconfig_retries must be >= 0")
        if self.backoff_initial_s <= 0 or self.backoff_max_s <= 0:
            raise ConfigurationError("backoff delays must be positive")
        if self.backoff_factor < 1.0:
            raise ConfigurationError("backoff_factor must be >= 1")
        if self.pr_timeout_s is not None and self.pr_timeout_s <= 0:
            raise ConfigurationError("pr_timeout_s must be positive or None")

    def retry_delay_s(self, attempt: int) -> float:
        """Bounded exponential backoff before retry ``attempt`` (1-based)."""
        return min(self.backoff_max_s, self.backoff_initial_s * self.backoff_factor ** (attempt - 1))


@dataclass(frozen=True)
class SystemConfig:
    """End-to-end system parameters.

    Attributes:
        fps: Frame clock (the paper's 50 fps).
        controller: Hysteresis controller settings.
        controller_cls: PR controller driving the vehicle partition.
        sensor_period_s: Ambient sensor sampling period.
        initial_condition: Lighting condition at t=0.
        degradation: Fault-recovery policy for the vehicle side.
    """

    fps: float = 50.0
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    controller_cls: type[BasePrController] = PaperPrController
    sensor_period_s: float = 0.1
    initial_condition: LightingCondition = LightingCondition.DAY
    degradation: DegradationPolicy = field(default_factory=DegradationPolicy)

    def __post_init__(self) -> None:
        if self.fps <= 0:
            raise ConfigurationError(f"fps must be positive, got {self.fps}")
        if self.sensor_period_s <= 0:
            raise ConfigurationError("sensor period must be positive")
        if not (
            isinstance(self.controller_cls, type)
            and issubclass(self.controller_cls, BasePrController)
        ):
            raise ConfigurationError(
                "controller_cls must be a BasePrController subclass, got "
                f"{self.controller_cls!r}"
            )

    def to_dict(self) -> dict:
        """JSON-safe dict form: the PR controller by name, the condition by value."""
        data = asdict(self)
        data["controller_cls"] = self.controller_cls.name
        data["initial_condition"] = self.initial_condition.value
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "SystemConfig":
        """Rebuild a config from :meth:`to_dict` output."""
        controllers = {c.name: c for c in ALL_CONTROLLERS}
        name = data["controller_cls"]
        if name not in controllers:
            raise ConfigurationError(
                f"unknown PR controller {name!r} (known: {sorted(controllers)})"
            )
        return cls(
            **{
                **data,
                "controller": ControllerConfig(**data["controller"]),
                "controller_cls": controllers[name],
                "initial_condition": LightingCondition(data["initial_condition"]),
                "degradation": DegradationPolicy(**data["degradation"]),
            }
        )


@dataclass
class FrameRecord:
    """Per-frame outcome of a drive.

    ``faults`` carries the labels of every fault-injection and
    degradation event that landed since the previous frame, so a drive's
    frame sequence is a complete audit trail.  ``degraded`` marks frames
    where the vehicle partition is up but running a configuration other
    than the one the lighting condition calls for (a fallback in effect).
    """

    index: int
    time_s: float
    condition: LightingCondition
    lux: float
    vehicle_accepted: bool
    pedestrian_accepted: bool
    vehicle_configuration: str
    reconfiguring: bool
    faults: tuple[str, ...] = ()
    degraded: bool = False
    #: Telemetry span id of this frame's ``drive.frame`` span (None when
    #: the drive records no spans) — the join key between the audit trail
    #: and an exported trace.
    span_id: int | None = None


@dataclass
class DriveReport:
    """Everything that happened during one simulated drive."""

    frames: list[FrameRecord] = field(default_factory=list)
    condition_changes: list[ConditionChange] = field(default_factory=list)
    model_swaps: list[tuple[float, str]] = field(default_factory=list)
    reconfigurations: list[ReconfigReport] = field(default_factory=list)
    degradations: list[DegradationEvent] = field(default_factory=list)
    #: The drive's telemetry session (None when run without telemetry).
    #: Deliberately excluded from :meth:`summary` so a report is identical
    #: whether or not the drive was observed.
    telemetry: Telemetry | None = field(default=None, repr=False, compare=False)
    #: The drive's monitor session (None when run unmonitored); excluded
    #: from :meth:`summary` for the same non-perturbation reason.
    monitor: Monitor | None = field(default=None, repr=False, compare=False)
    #: The drive's quality observer (None when run unscored); excluded
    #: from :meth:`summary` for the same non-perturbation reason.
    quality: object | None = field(default=None, repr=False, compare=False)

    @property
    def n_frames(self) -> int:
        return len(self.frames)

    @property
    def vehicle_dropped(self) -> int:
        return sum(1 for f in self.frames if not f.vehicle_accepted)

    @property
    def pedestrian_dropped(self) -> int:
        return sum(1 for f in self.frames if not f.pedestrian_accepted)

    def drops_per_reconfiguration(self) -> float:
        """Mean vehicle frames dropped per PR event (paper: ~1 at 50 fps)."""
        if not self.reconfigurations:
            return 0.0
        return self.vehicle_dropped / len(self.reconfigurations)

    @property
    def frames_degraded(self) -> int:
        return sum(1 for f in self.frames if f.degraded)

    @property
    def frames_with_faults(self) -> int:
        return sum(1 for f in self.frames if f.faults)

    @property
    def failed_reconfigurations(self) -> int:
        return sum(1 for r in self.reconfigurations if not r.ok)

    def summary(self, include_telemetry: bool = False) -> dict:
        """The drive in one dict.

        ``include_telemetry`` folds in an observability addendum (span and
        metric series counts) when the drive ran with telemetry; it
        defaults to off so the summary of an observed drive is *identical*
        to the summary of an unobserved one — the non-perturbation
        guarantee the telemetry tests pin down.
        """
        summary: dict = {
            "frames": self.n_frames,
            "vehicle_dropped": self.vehicle_dropped,
            "pedestrian_dropped": self.pedestrian_dropped,
            "condition_changes": len(self.condition_changes),
            "model_swaps": len(self.model_swaps),
            "reconfigurations": len(self.reconfigurations),
            "failed_reconfigurations": self.failed_reconfigurations,
            "drops_per_reconfiguration": self.drops_per_reconfiguration(),
            "reconfig_ms": [r.duration_s * 1e3 for r in self.reconfigurations],
            "degradations": len(self.degradations),
            "frames_degraded": self.frames_degraded,
            "frames_with_faults": self.frames_with_faults,
        }
        if include_telemetry and self.telemetry is not None and self.telemetry.enabled:
            summary["telemetry"] = {
                "spans": len(self.telemetry.tracer.spans),
                "metric_series": len(self.telemetry.metrics),
            }
        return summary


# Which SVM model the day-dusk configuration selects per condition.
MODEL_FOR_CONDITION = {
    LightingCondition.DAY: "day",
    LightingCondition.DUSK: "dusk",
}


class AdaptiveDetectionSystem:
    """The full Fig. 6 system with the adaptive switching loop."""

    def __init__(
        self,
        config: SystemConfig | None = None,
        repository: BitstreamRepository | None = None,
        fault_plan: FaultPlan | None = None,
        telemetry: Telemetry | None = None,
        monitor: Monitor | None = None,
        quality=None,
    ):
        self.config = config or SystemConfig()
        self.fault_plan = fault_plan
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.monitor = monitor if monitor is not None else NULL_MONITOR
        self.quality = quality if quality is not None else NULL_QUALITY
        policy = self.config.degradation
        self.soc = ZynqSoC(
            controller_cls=self.config.controller_cls,
            repository=repository or paper_bitstreams(),
            faults=fault_plan,
            pr_timeout_s=policy.pr_timeout_s,
            telemetry=self.telemetry,
        )
        initial = self.config.initial_condition
        self.controller = LightingController(self.config.controller, initial=initial)
        # Power on in the image and SVM model the initial condition calls
        # for (no switch happened, so nothing is traced).
        self.soc.vehicle.configuration = CONFIG_FOR_CONDITION[initial].value
        self.soc.pr.active_configuration = self.soc.vehicle.configuration
        self.soc.vehicle_model = MODEL_FOR_CONDITION.get(initial, self.soc.vehicle_model)
        self.report = DriveReport()
        if self.telemetry.enabled:
            self.report.telemetry = self.telemetry
            if fault_plan is not None:
                fault_plan.bind_telemetry(self.telemetry)
        if self.monitor.enabled:
            self.report.monitor = self.monitor
        if self.quality.enabled:
            self.report.quality = self.quality
        degradations, monitor = self.report.degradations, self.monitor

        def record_degradation(event: DegradationEvent) -> None:
            # Over the report's list and the monitor, never the system:
            # the SoC keeps this, and must not keep its owner.
            degradations.append(event)
            if monitor.enabled:
                monitor.on_degradation(event)

        self._record_degradation = self.soc.on_degradation = record_degradation
        self._pending_reconfig = False
        # What a tick carries to the next: the last sensor sample, and the
        # fault and degradation events its frames have labelled.
        self._lux = 0.0
        self._fault_cursor = len(fault_plan.events) if fault_plan is not None else 0
        self._degrade_cursor = 0
        # Per-frame series, each bound on its first use so series are
        # created in the order the frames first reach them.
        self._frames_total = self._vehicle_dropped = self._pedestrian_dropped = None
        self._scored_total = self._iou_hist = self._wall_hist = None
        #: True condition -> its (tp, fp, fn) counters.
        self._outcome_totals: dict[str, tuple] = {}

    @classmethod
    def from_spec(
        cls,
        spec: DriveSpec,
        telemetry: Telemetry | None = None,
        monitor: Monitor | None = None,
        repository: BitstreamRepository | None = None,
        quality=None,
    ) -> "AdaptiveDetectionSystem":
        """Materialise a system from a plain-data :class:`DriveSpec`.

        The spec carries no live objects — the fault plan is rebuilt fresh
        (fully re-armed) and the system config is derived from the spec's
        scalar fields, so the construction is identical in every process
        that receives the same spec dict.
        """
        config = SystemConfig(
            fps=spec.fps,
            initial_condition=LightingCondition(spec.initial_condition),
        )
        return cls(
            config=config,
            repository=repository,
            fault_plan=spec.build_fault_plan(),
            telemetry=telemetry,
            monitor=monitor,
            quality=quality,
        )

    @property
    def condition(self) -> LightingCondition:
        return self.controller.condition

    def _degrade(self, kind: str, detail: str = "") -> None:
        self._record_degradation(
            DegradationEvent(time_s=self.soc.sim.now, kind=kind, detail=detail)
        )
        telemetry = self.telemetry
        if telemetry.tracer.enabled:
            telemetry.event("degrade", time_s=self.soc.sim.now, action=kind, detail=detail)
        if telemetry.enabled:
            telemetry.counter("degradations_total", kind=kind).inc()

    def _handle_change(self, change: ConditionChange) -> None:
        """Apply the switching policy for one condition change."""
        self.report.condition_changes.append(change)
        if self.monitor.enabled:
            self.monitor.on_condition_change(change)
        telemetry = self.telemetry
        if telemetry.tracer.enabled:
            telemetry.event(
                "condition.change",
                time_s=change.time_s,
                previous=change.previous.value,
                new=change.new.value,
            )
        if telemetry.enabled:
            telemetry.counter("condition_changes").inc()
        plan = plan_switch(change.previous, change.new)
        if plan.kind is SwitchKind.MODEL_SWAP:
            model = MODEL_FOR_CONDITION[change.new]
            try:
                self.soc.swap_vehicle_model(model)
            except ReconfigurationError:
                # Partition busy: fall back to the last-good SVM model for
                # now — a stale model still detects, a half-swapped one
                # would not.
                self._degrade(
                    "model-swap-fallback",
                    f"kept {self.soc.vehicle_model!r} (wanted {model!r})",
                )
            else:
                self.report.model_swaps.append((change.time_s, model))
        elif plan.kind is SwitchKind.PARTIAL_RECONFIG:
            if self.soc.vehicle.available:
                self._start_reconfig(plan.target_configuration.value, attempt=1)
            else:
                # A reconfiguration is in flight; when it completes, the
                # image the controller's condition needs by then comes up.
                self._pending_reconfig = True

    # Reconfiguration with retry/backoff --------------------------------------

    def _start_reconfig(self, configuration: str, attempt: int) -> None:
        """One reconfiguration attempt; failures schedule bounded retries."""

        def done(report: ReconfigReport) -> None:
            report.attempt = attempt
            if report.ok and configuration == VehicleConfigurationId.DAY_DUSK.value:
                # The fresh day_dusk image selects the model of the
                # condition that asked for it.
                self.soc.vehicle_model = MODEL_FOR_CONDITION.get(
                    self.controller.condition, self.soc.vehicle_model
                )
            self.report.reconfigurations.append(report)
            if self.monitor.enabled:
                self.monitor.on_reconfig(report)
            if not report.ok:
                self._schedule_retry(configuration, attempt, report.error)
            elif self._pending_reconfig:
                self._pending_reconfig = False
                wanted = CONFIG_FOR_CONDITION[self.controller.condition].value
                if wanted != configuration:
                    self._start_reconfig(wanted, attempt=1)

        try:
            self.soc.reconfigure_vehicle(configuration, on_done=done)
        except ReconfigurationError as exc:
            # Synchronous rejection (integrity check): the failed report is
            # already on the PR controller's list; fold it into the drive.
            report = self.soc.pr.reports[-1]
            report.attempt = attempt
            self.report.reconfigurations.append(report)
            if self.monitor.enabled:
                self.monitor.on_reconfig(report)
            self._schedule_retry(configuration, attempt, str(exc))

    def _schedule_retry(self, configuration: str, attempt: int, error: str) -> None:
        policy = self.config.degradation
        if attempt > policy.max_reconfig_retries:
            # Out of retries: stay on the last-good image.  Degraded — the
            # active pipeline no longer matches the lighting — but alive.
            self._degrade(
                "reconfig-abandoned",
                f"{configuration} failed {attempt}x; staying on "
                f"{self.soc.vehicle.configuration}",
            )
            return
        if policy.repair_bitstreams and not self.soc.repository.get(configuration).verify():
            self.soc.repository.restage(configuration)
            self._degrade("bitstream-repair", f"re-staged {configuration} from flash")
        delay = policy.retry_delay_s(attempt)
        self._degrade(
            "reconfig-retry",
            f"{configuration} attempt {attempt + 1} in {delay * 1e3:.0f} ms ({error})",
        )

        def retry() -> None:
            if self.soc.vehicle.configuration == configuration:
                return  # another path already brought the image up
            if not self.soc.vehicle.available:
                # A competing reconfiguration is in flight; let it finish.
                self._degrade("reconfig-retry-skipped", f"{configuration}: partition busy")
                return
            self._start_reconfig(configuration, attempt + 1)

        self.soc.sim.schedule(delay, retry)

    # The tick ----------------------------------------------------------------

    def tick(
        self,
        index: int,
        t: float,
        samples: Iterable[tuple[float, float]],
        stage: Callable[[bool], None] | None = None,
    ) -> FrameRecord:
        """Frame ``index`` at time ``t``, the one per-frame body of a drive.

        The SoC runs up to ``t`` and hands the frame to both partitions;
        the vehicle side refuses it while it reconfigures, while its
        ingress is busy, or when a detector exception flushes it.  Then
        ``stage(vehicle_accepted)``, if given, runs on the image and model
        the SoC has up.  Then each ``(time, lux)`` of ``samples`` goes to
        the controller, so a switch takes effect from the next frame.  Last
        the frame's labels and record feed the quality, telemetry and
        monitor planes.
        """
        telemetry = self.telemetry
        observed = telemetry.enabled
        if observed:
            wall_start = telemetry.tracer.wall_clock()
        soc = self.soc
        vehicle = soc.vehicle
        controller = self.controller
        fault_plan = self.fault_plan
        with telemetry.span("drive.frame", index=index) as frame_span:
            soc.sim.run_until(t)
            # A detector exception on the vehicle accelerator costs that
            # frame: the partition's per-frame watchdog flushes the pipeline
            # and the stream resumes on the next tick.  The static pedestrian
            # partition is never consulted — it cannot be made to skip a frame.
            if fault_plan is not None and fault_plan.fire(
                FaultSite.PIPELINE_EXCEPTION, "vehicle", t
            ):
                veh_ok = False
                vehicle.frames_dropped += 1
                self._degrade("detector-flush", f"vehicle pipeline flushed at frame {index}")
            else:
                veh_ok = soc.submit_frame("vehicle")
            ped_ok = soc.submit_frame("pedestrian")
            if stage is not None:
                stage(veh_ok)
            # Read inside the frame's span, after the frame is issued: the
            # light sensor is asynchronous to the frame clock.
            for sample_t, lux in samples:
                self._lux = lux
                change = controller.update(sample_t, lux)
                if change is not None:
                    self._handle_change(change)
            # Fold every fault/degradation event since the last frame into
            # this frame's audit trail.
            events = fault_plan.events if fault_plan is not None else ()
            degradations = self.report.degradations
            labels = [e.label() for e in events[self._fault_cursor :]]
            labels += [d.label() for d in degradations[self._degrade_cursor :]]
            self._fault_cursor, self._degrade_cursor = len(events), len(degradations)
            expected_config = CONFIG_FOR_CONDITION[controller.condition].value
            reconfiguring = not vehicle.available
            record = FrameRecord(
                index=index,
                time_s=t,
                condition=controller.condition,
                lux=self._lux,
                vehicle_accepted=veh_ok,
                pedestrian_accepted=ped_ok,
                vehicle_configuration=vehicle.configuration or "",
                reconfiguring=reconfiguring,
                faults=tuple(labels),
                degraded=vehicle.available and vehicle.configuration != expected_config,
            )
            self.report.frames.append(record)
            # Ground-truth scoring is a pure read of the finished record (its
            # own RNG streams, no simulation state touched), so the frame
            # core is identical with or without the quality plane.
            quality = self.quality
            qrecord = quality.observe_frame(record, expected_config) if quality.enabled else None
            if telemetry.tracer.enabled:
                record.span_id = frame_span.span_id
                frame_span.set_attr("condition", record.condition.value)
                frame_span.set_attr("vehicle_accepted", veh_ok)
                frame_span.set_attr("pedestrian_accepted", ped_ok)
                if reconfiguring:
                    frame_span.set_attr("reconfiguring", True)
                if record.degraded:
                    frame_span.set_attr("degraded", True)
                if labels:
                    frame_span.set_attr("faults", ";".join(labels))
            if observed:
                if self._frames_total is None:
                    self._frames_total = telemetry.counter("drive_frames")
                self._frames_total.inc()
                if not veh_ok:
                    if self._vehicle_dropped is None:
                        self._vehicle_dropped = telemetry.counter("drive_vehicle_dropped")
                    self._vehicle_dropped.inc()
                if not ped_ok:
                    if self._pedestrian_dropped is None:
                        self._pedestrian_dropped = telemetry.counter("drive_pedestrian_dropped")
                    self._pedestrian_dropped.inc()
                if qrecord is not None:
                    if self._scored_total is None:
                        self._scored_total = telemetry.counter("quality_frames_scored_total")
                    self._scored_total.inc()
                    condition = qrecord.true_condition
                    totals = self._outcome_totals.get(condition)
                    if totals is None:
                        totals = self._outcome_totals[condition] = (
                            telemetry.counter("quality_tp_total", condition=condition),
                            telemetry.counter("quality_fp_total", condition=condition),
                            telemetry.counter("quality_fn_total", condition=condition),
                        )
                    tp_total, fp_total, fn_total = totals
                    tp_total.inc(qrecord.tp)
                    fp_total.inc(qrecord.fp)
                    fn_total.inc(qrecord.fn)
                    if qrecord.matched_ious:
                        if self._iou_hist is None:
                            self._iou_hist = telemetry.histogram(
                                "detection_iou", bounds=DETECTION_IOU_BUCKETS
                            )
                        for iou in qrecord.matched_ious:
                            self._iou_hist.observe(iou)
        wall_ms: float | None = None
        if observed:
            wall_ms = (telemetry.tracer.wall_clock() - wall_start) * 1e3
            if self._wall_hist is None:
                self._wall_hist = telemetry.histogram("frame_wall_ms")
            self._wall_hist.observe(wall_ms)
            if wall_ms > 1e3 / self.config.fps:
                telemetry.counter("frame_deadline_misses_total").inc()
        if self.monitor.enabled:
            self.monitor.observe_frame(record, expected_config, wall_ms=wall_ms, quality=qrecord)
        return record

    def run_drive(self, trace: LuxTrace, duration_s: float | None = None, sensor: LightSensor | None = None) -> DriveReport:
        """Drive the system over a lux trace, one stage-less :meth:`tick` a
        frame with the sensor samples due by it; returns the full report."""
        if duration_s is None:
            duration_s = trace.duration
        if duration_s <= 0:
            raise ConfigurationError("drive duration must be positive")
        sensor = sensor or LightSensor(trace, noise_rel=0.03, faults=self.fault_plan)
        frame_period = 1.0 / self.config.fps
        sensor_period = self.config.sensor_period_s
        n_frames = int(duration_s * self.config.fps)
        telemetry = self.telemetry
        monitor = self.monitor
        if monitor.enabled:
            monitor.begin_drive(self, trace, sensor, duration_s, n_frames)
        quality = self.quality
        if quality.enabled:
            quality.begin_drive(trace, duration_s, n_frames)
        # The power-on sample: no frame records it, but the read draws the
        # sensor's first noise and meets its faults.
        sensor.read(0.0)
        next_sensor_t = 0.0

        def due(t: float) -> Iterator[tuple[float, float]]:
            nonlocal next_sensor_t
            while next_sensor_t <= t:
                yield next_sensor_t, sensor.read(next_sensor_t)
                next_sensor_t += sensor_period

        drive_span = telemetry.tracer.begin(
            "drive", frames=n_frames, fps=self.config.fps, duration_s=duration_s
        )
        for i in range(n_frames):
            t = i * frame_period
            self.tick(i, t, due(t))
        self.soc.sim.run_until(duration_s + 0.1)
        if telemetry.tracer.enabled:
            telemetry.tracer.end(
                drive_span,
                vehicle_dropped=self.report.vehicle_dropped,
                pedestrian_dropped=self.report.pedestrian_dropped,
                reconfigurations=len(self.report.reconfigurations),
            )
        if telemetry.enabled:
            telemetry.counter("reconfigurations_total").inc(len(self.report.reconfigurations))
            telemetry.gauge("drops_per_reconfiguration").set(
                self.report.drops_per_reconfiguration()
            )
            self.soc.record_telemetry()
        if monitor.enabled:
            monitor.finish_drive()
        if quality.enabled:
            quality.finish_drive()
        return self.report


def run_drive_spec(
    spec: DriveSpec,
    telemetry: Telemetry | None = None,
    monitor: Monitor | None = None,
    repository: BitstreamRepository | None = None,
    quality=None,
) -> DriveReport:
    """One drive from a plain-data spec: the cheap, reentrant fleet unit.

    Everything the drive needs — system, fault plan, trace, seeded sensor —
    is materialised here from the spec's scalar fields, so the caller can
    hold nothing but a dict.  Two calls with equal specs produce reports
    whose frame cores are byte-identical (``frames_digest``), with or
    without telemetry/monitoring attached — the non-perturbation contract
    the fleet determinism tests pin.
    """
    system = AdaptiveDetectionSystem.from_spec(
        spec, telemetry=telemetry, monitor=monitor, repository=repository, quality=quality
    )
    trace = spec.build_trace()
    sensor = spec.build_sensor(trace, system.fault_plan)
    return system.run_drive(trace, duration_s=spec.duration_s, sensor=sensor)
