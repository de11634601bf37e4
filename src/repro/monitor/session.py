"""The monitor session: wiring between a drive and the observability stack.

:class:`Monitor` is the one object the drive loop talks to.  It owns a
:class:`~repro.monitor.slo.HealthMonitor` (SLO evaluation), a
:class:`~repro.monitor.recorder.FlightRecorder` (pre/post-roll incident
windows), and the provenance needed to write replayable incident bundles.

Like telemetry's ``NULL_TELEMETRY``, the default is :data:`NULL_MONITOR` —
a shared no-op whose ``enabled`` flag lets the drive loop skip monitoring
entirely with one attribute check, so an unmonitored drive is byte-identical
to one built before the monitor existed.

The monitor is a *pure consumer* of the simulation: it never schedules
events, never mutates SoC state, and never touches an RNG.  Incident
triggers are restricted to sim-deterministic causes (fault firings,
failed reconfigurations, CRITICAL health transitions, quality SLOs), so a
recorded window replays byte-identically from the bundle manifest.  A
frame-deadline miss is a wall-clock fact a replay on other hardware
cannot reproduce, so it only ever feeds the health state.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro import __version__
from repro.errors import MonitoringError
from repro.monitor.bundle import write_bundle
from repro.monitor.events import MONITOR_EVENT_KINDS
from repro.monitor.recorder import (
    FlightRecorder,
    FrameSnapshot,
    IncidentWindow,
    TriggerEvent,
)
from repro.monitor.slo import HealthMonitor, HealthState, SloBudgets
from repro.telemetry.exporters import jsonable
from repro.telemetry.session import NULL_TELEMETRY, Telemetry

if TYPE_CHECKING:
    from repro.adaptive.controller import ConditionChange
    from repro.adaptive.sensor import LightSensor, LuxTrace
    from repro.core.system import AdaptiveDetectionSystem, FrameRecord, SystemConfig
    from repro.faults.plan import DegradationEvent, FaultEvent, FaultPlan
    from repro.zynq.pr import ReconfigReport

#: Typed zynq events copied into frame snapshots.  The per-frame
#: ``dma.start``/``dma.done`` flood is deliberately excluded: at 50 fps it
#: would dominate every snapshot without saying anything a fault would not.
SNAPSHOT_ZYNQ_EVENT_KINDS: frozenset[str] = frozenset(
    {
        "dma.error",
        "dma.stall",
        "pr.start",
        "pr.done",
        "pr.stall",
        "pr.timeout",
        "soc.degrade",
        "frame.dropped",
        "partition.down",
        "partition.up",
        "model.swap",
    }
)


def frame_record_dict(
    record: "FrameRecord", expected_configuration: str, soc: Any
) -> dict:
    """The deterministic core of one frame snapshot.

    Built from the drive's :class:`~repro.core.system.FrameRecord` (minus
    the telemetry-only ``span_id``), the configuration the lighting
    condition *calls for*, and the SoC's cumulative counters.  Live
    monitoring and ``incident replay`` build this dict the same way, so a
    byte comparison of the two is apples-to-apples.
    """
    return {
        "index": record.index,
        "time_s": record.time_s,
        "condition": record.condition.value,
        "lux": record.lux,
        "vehicle_accepted": record.vehicle_accepted,
        "pedestrian_accepted": record.pedestrian_accepted,
        "vehicle_configuration": record.vehicle_configuration,
        "expected_configuration": expected_configuration,
        "reconfiguring": record.reconfiguring,
        "faults": list(record.faults),
        "degraded": record.degraded,
        "soc": soc.observability_snapshot(),
    }


def canonical_frame_bytes(record_dict: dict) -> bytes:
    """Canonical byte encoding of one frame core (the replay comparator)."""
    return json.dumps(record_dict, sort_keys=True).encode("utf-8")


@dataclass(frozen=True)
class MonitorConfig:
    """Knobs for one monitor session.

    Attributes:
        out_dir: Directory receiving incident bundles; ``None`` keeps
            incident windows in memory only (what replay uses).
        budgets: SLO budgets driving the health evaluation.
        capacity / pre_roll / post_roll / cooldown_frames / max_incidents:
            Flight-recorder geometry (see
            :class:`~repro.monitor.recorder.FlightRecorder`).
        trigger_on_fault: Freeze a window on every fault-plan firing.
        trigger_on_reconfig_failure: Freeze on a failed reconfiguration.
        trigger_on_critical: Freeze when health transitions to CRITICAL.
        trigger_on_quality: Freeze when a quality SLO fires
            (``quality-degraded`` windows).  Quality records come from the
            seeded ground-truth model — sim-deterministic — so these
            windows replay byte-identically: a quality collapse is as
            recordable as a fault firing.
        wall_clock_slos: Feed measured frame wall times into the SLO
            evaluators.  On by default (the PR-5 behaviour).  The fleet
            turns it off so per-drive health verdicts depend only on the
            simulation — frame wall times are still recorded in snapshots
            and latency histograms, they just cannot flip the health
            state, which keeps fleet rollups run-to-run deterministic.
        quality_slos: Feed scored quality records into the SLO
            evaluators.  On by default for single-drive monitoring.  The
            fleet turns it off for the symmetric reason it disables
            ``wall_clock_slos``: fleet verdicts stay quality-blind, so a
            quality-scored fleet folds the same OK/DEGRADED/CRITICAL
            verdicts as an unscored one (the non-perturbation contract).
    """

    out_dir: str | None = None
    budgets: SloBudgets = field(default_factory=SloBudgets)
    capacity: int = 512
    pre_roll: int = 32
    post_roll: int = 16
    cooldown_frames: int = 64
    max_incidents: int = 16
    trigger_on_fault: bool = True
    trigger_on_reconfig_failure: bool = True
    trigger_on_critical: bool = True
    trigger_on_quality: bool = True
    wall_clock_slos: bool = True
    quality_slos: bool = True

    def to_dict(self) -> dict:
        """JSON-safe dict form; ``out_dir`` says where bundles go, not how
        the drive was watched, so a replay never writes bundles."""
        data = asdict(self)
        del data["out_dir"]
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "MonitorConfig":
        """Rebuild a config from :meth:`to_dict` output."""
        return cls(**{**data, "budgets": SloBudgets(**data["budgets"])})


class NullMonitor:
    """The zero-cost default: a shared no-op with ``enabled = False``.

    The drive loop guards every monitor call behind one attribute check,
    exactly like ``NULL_TELEMETRY`` — an unmonitored drive allocates
    nothing and behaves byte-identically to the pre-monitor code.
    """

    enabled = False

    def begin_drive(self, system, trace, sensor, duration_s, n_frames) -> None:
        pass

    def observe_frame(self, record, expected_configuration, wall_ms=None, quality=None) -> None:
        pass

    def on_reconfig(self, report) -> None:
        pass

    def on_condition_change(self, change) -> None:
        pass

    def on_degradation(self, event) -> None:
        pass

    def emit_event(self, kind: str, time_s: float, **attrs: Any) -> None:
        pass

    def finish_drive(self) -> None:
        pass

    def summary(self) -> dict:
        return {}


#: Module-level no-op monitor shared by every unmonitored drive.
NULL_MONITOR = NullMonitor()


class Monitor:
    """One monitoring session over one (or more, sequentially) drives."""

    enabled = True

    def __init__(
        self,
        config: MonitorConfig | None = None,
        telemetry: Telemetry | None = None,
    ):
        self.config = config or MonitorConfig()
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.health = HealthMonitor(self.config.budgets)
        self.recorder = FlightRecorder(
            capacity=self.config.capacity,
            pre_roll=self.config.pre_roll,
            post_roll=self.config.post_roll,
            cooldown_frames=self.config.cooldown_frames,
            max_incidents=self.config.max_incidents,
        )
        #: Accepted trigger events, in firing order.
        self.triggers: list[TriggerEvent] = []
        #: Monitor-level typed events (also mirrored into telemetry).
        self.events: list[dict] = []
        #: Paths of bundles written this session (empty when out_dir=None).
        self.bundles: list[Path] = []
        #: The current drive's static replay inputs, captured at
        #: :meth:`begin_drive`; :attr:`provenance` is built from them.
        self._provenance_inputs: tuple | None = None
        self._provenance: dict | None = None
        self._system: "AdaptiveDetectionSystem | None" = None
        self._fault_listener = None
        self._trace_listener = None
        self._frames = 0
        self._recent_events: list[dict] = []
        self._metric_last: dict[str, float] = {}
        #: Counter series -> its ``_metric_deltas`` key, formatted once.
        self._metric_keys: dict[Any, str] = {}

    @classmethod
    def recording(
        cls,
        out_dir: str | Path,
        telemetry: Telemetry | None = None,
        **overrides: Any,
    ) -> "Monitor":
        """A monitor writing incident bundles under ``out_dir``."""
        return cls(MonitorConfig(out_dir=str(out_dir), **overrides), telemetry=telemetry)

    # Drive lifecycle ---------------------------------------------------------

    def begin_drive(
        self,
        system: "AdaptiveDetectionSystem",
        trace: "LuxTrace",
        sensor: "LightSensor",
        duration_s: float,
        n_frames: int,
    ) -> None:
        """Attach to a drive: capture replay inputs, hook event sources."""
        if self._system is not None:
            raise MonitoringError(
                "monitor is already attached to a drive; call finish_drive() first"
            )
        self._system = system
        # Ride the drive's telemetry session unless we were given our own.
        if not self.telemetry.enabled and system.telemetry.enabled:
            self.telemetry = system.telemetry
        plan = system.fault_plan
        if plan is not None:

            def on_fault(event: "FaultEvent") -> None:
                if self.config.trigger_on_fault:
                    self._trigger("fault", event.time_s, event.label())

            plan.listeners.append(on_fault)
            self._fault_listener = on_fault

        def on_trace_event(time_s: float, source: str, kind: str, attrs: dict) -> None:
            if kind in SNAPSHOT_ZYNQ_EVENT_KINDS:
                event = {"time_s": time_s, "source": source, "kind": kind}
                event.update((key, jsonable(value)) for key, value in attrs.items())
                self._recent_events.append(event)

        system.soc.trace.listeners.append(on_trace_event)
        self._trace_listener = on_trace_event
        self._provenance_inputs = (
            self.config,
            system.config,
            system.quality,
            plan,
            trace,
            sensor,
            duration_s,
            n_frames,
            self.telemetry.enabled,
        )
        self._provenance = None

    @property
    def provenance(self) -> dict:
        """The current (or last) drive's replay inputs: every bundle's
        manifest body (empty before the first drive).

        Built on first read, which is the first bundle written, from the
        static inputs :meth:`begin_drive` captured: a drive that writes no
        bundle never pays for it.
        """
        if self._provenance is None:
            if self._provenance_inputs is None:
                return {}
            self._provenance = self._build_provenance(*self._provenance_inputs)
        return self._provenance

    @staticmethod
    def _build_provenance(
        monitor_config: MonitorConfig,
        system_config: "SystemConfig",
        quality: Any,
        plan: "FaultPlan | None",
        trace: "LuxTrace",
        sensor: "LightSensor",
        duration_s: float,
        n_frames: int,
        telemetry_enabled: bool,
    ) -> dict:
        return {
            "repro_version": __version__,
            "monitor": monitor_config.to_dict(),
            # Everything needed to reattach an identical quality observer
            # on replay (None when the drive ran unscored).
            "quality": quality.provenance() if quality.enabled else None,
            "telemetry_enabled": telemetry_enabled,
            "drive": {
                "duration_s": duration_s,
                "n_frames": n_frames,
                "trace_points": [[float(t), float(lux)] for t, lux in trace.points],
                "sensor": {
                    "noise_rel": sensor.noise_rel,
                    "dropout_probability": sensor.dropout_probability,
                    "seed": sensor.seed,
                },
                "fault_plan": None if plan is None else plan.to_dict(),
                "system": system_config.to_dict(),
            },
        }

    def finish_drive(self) -> None:
        """Detach from the drive; a still-capturing window is flushed."""
        window = self.recorder.flush()
        if window is not None:
            self._on_window(window)
        system = self._system
        if system is not None:
            if self._fault_listener is not None and system.fault_plan is not None:
                try:
                    system.fault_plan.listeners.remove(self._fault_listener)
                except ValueError:
                    pass
            if self._trace_listener is not None:
                try:
                    system.soc.trace.listeners.remove(self._trace_listener)
                except ValueError:
                    pass
        self._fault_listener = None
        self._trace_listener = None
        self._system = None
        self._recent_events = []
        if self.telemetry.enabled:
            self.telemetry.gauge("health_state").set(self.health.state.severity)
            self.telemetry.gauge("monitor_incidents").set(len(self.recorder.incidents))

    # Observations ------------------------------------------------------------

    def observe_frame(
        self,
        record: "FrameRecord",
        expected_configuration: str,
        wall_ms: float | None = None,
        quality=None,
    ) -> None:
        """Fold one finished frame into health + recorder state.

        ``quality`` is the frame's scored quality record (``None`` on
        unscored frames or with the quality plane off); it only reaches
        the SLO evaluators when :attr:`MonitorConfig.quality_slos` is on.
        """
        if self._system is None:
            raise MonitoringError("observe_frame() before begin_drive()")
        index, time_s = record.index, record.time_s
        violations, transition = self.health.observe_frame(
            index,
            time_s,
            wall_ms=wall_ms if self.config.wall_clock_slos else None,
            degraded=record.degraded,
            quality=quality if self.config.quality_slos else None,
        )
        for violation in violations:
            self.emit_event(
                "slo.violation",
                time_s=violation.time_s,
                slo=violation.slo,
                severity=violation.severity.value,
                detail=violation.detail,
                frame_index=violation.frame_index,
            )
            if self.telemetry.enabled:
                self.telemetry.counter("slo_violations_total", slo=violation.slo).inc()
        if transition is not None:
            self.emit_event(
                "health.transition",
                time_s=transition.time_s,
                previous=transition.previous.value,
                new=transition.new.value,
                reason=transition.reason,
            )
            if self.telemetry.enabled:
                self.telemetry.gauge("health_state").set(transition.new.severity)
                self.telemetry.counter(
                    "health_transitions_total", to=transition.new.value
                ).inc()
            if (
                self.config.trigger_on_critical
                and transition.new is HealthState.CRITICAL
            ):
                self._trigger("health-critical", time_s, transition.reason)
        if self.config.trigger_on_quality:
            for violation in violations:
                if violation.slo.startswith("quality-"):
                    self._trigger(
                        "quality-degraded",
                        time_s,
                        f"{violation.slo}: {violation.detail}",
                    )
                    break
        snapshot = FrameSnapshot(
            record=frame_record_dict(record, expected_configuration, self._system.soc),
            wall_ms=wall_ms,
            health=self.health.state.value,
            violations=tuple(v.label() for v in violations),
            zynq_events=tuple(self._recent_events),
            metric_deltas=self._metric_deltas(),
        )
        self._recent_events = []
        window = self.recorder.push(snapshot)
        if window is not None:
            self._on_window(window)
        self._frames += 1

    def on_reconfig(self, report: "ReconfigReport") -> None:
        """One finished reconfiguration attempt (from the drive's callback)."""
        self.health.observe_reconfig(
            duration_ms=report.duration_s * 1e3,
            throughput_mbs=report.throughput_mb_s,
            ok=report.ok,
            time_s=report.end_s,
            detail=report.error or report.bitstream,
        )
        if not report.ok and self.config.trigger_on_reconfig_failure:
            self._trigger(
                "reconfig-failure",
                report.end_s,
                f"{report.bitstream}: {report.error or 'failed'}",
            )

    def on_condition_change(self, change: "ConditionChange") -> None:
        self.health.observe_condition_change(change.time_s)

    def on_degradation(self, event: "DegradationEvent") -> None:
        self.health.observe_degradation(event.kind, event.time_s, event.detail)

    # Events and triggers ------------------------------------------------------

    def emit_event(self, kind: str, time_s: float, **attrs: Any) -> None:
        """One typed monitor event; ``kind`` must be in the declared vocabulary.

        Mirrors ``Trace.emit``: runtime validation here, static validation by
        the ``event-vocabulary`` lint rule.
        """
        if kind not in MONITOR_EVENT_KINDS:
            raise MonitoringError(
                f"monitor event kind {kind!r} is not in the declared vocabulary; "
                "add it to repro.monitor.events.MONITOR_EVENT_KINDS first"
            )
        self.events.append({"kind": kind, "time_s": time_s, **attrs})
        if self.telemetry.tracer.enabled:
            self.telemetry.event(kind, time_s=time_s, **attrs)

    def _trigger(self, kind: str, time_s: float, detail: str) -> None:
        event = TriggerEvent(
            kind=kind, time_s=time_s, frame_index=self._frames, detail=detail
        )
        if not self.recorder.trigger(event):
            return
        if not self.recorder.capturing:
            # A zero post-roll closes the window inside trigger().
            self._on_window(self.recorder.incidents[-1])
        self.triggers.append(event)
        self.emit_event(
            "monitor.trigger",
            time_s=time_s,
            trigger=kind,
            frame_index=event.frame_index,
            detail=detail,
        )
        if self.telemetry.enabled:
            self.telemetry.counter("monitor_triggers_total", kind=kind).inc()

    # Incident writing ---------------------------------------------------------

    def _on_window(self, window: IncidentWindow) -> None:
        trigger = window.triggers[0]
        end_time = window.snapshots[-1].time_s if window.snapshots else trigger.time_s
        self.emit_event(
            "monitor.incident",
            time_s=end_time,
            trigger=trigger.kind,
            frames=len(window.snapshots),
            triggers=len(window.triggers),
        )
        if self.telemetry.enabled:
            self.telemetry.counter("monitor_incidents_total").inc()
        if self.config.out_dir is None:
            return
        self.bundles.append(self._write_bundle(window))

    def _write_bundle(self, window: IncidentWindow) -> Path:
        ordinal = len(self.recorder.incidents) - 1
        trigger = window.triggers[0]
        incident_id = f"incident-{ordinal:03d}-{trigger.kind}"
        manifest = dict(self.provenance)
        manifest["incident_id"] = incident_id
        manifest["trigger"] = trigger.to_dict()
        start, end = window.start_index, window.end_index
        violations = [
            v.to_dict()
            for v in self.health.violations
            if v.frame_index is not None and start <= v.frame_index <= end
        ]
        transitions = [
            t.to_dict()
            for t in self.health.transitions
            if t.frame_index is not None and start <= t.frame_index <= end
        ]
        spans: list[dict] = []
        if self.telemetry.tracer.enabled and window.snapshots:
            t0 = window.snapshots[0].time_s
            t1 = window.snapshots[-1].time_s
            for span in self.telemetry.tracer.spans:
                if span.end_s is not None and span.end_s < t0:
                    continue
                if span.start_s > t1:
                    continue
                spans.append(span.to_dict())
        metrics = self.telemetry.metrics.snapshot() if self.telemetry.enabled else []
        return write_bundle(
            Path(self.config.out_dir) / incident_id,
            manifest,
            window.snapshots,
            window.triggers,
            violations=violations,
            transitions=transitions,
            spans=spans,
            metrics=metrics,
        )

    # Reporting ----------------------------------------------------------------

    def _metric_deltas(self) -> dict[str, float]:
        """Per-frame deltas of every counter series (empty without telemetry)."""
        if not self.telemetry.enabled:
            return {}
        deltas: dict[str, float] = {}
        keys = self._metric_keys
        last_values = self._metric_last
        for series in self.telemetry.metrics.series():
            if series.kind != "counter":
                continue
            key = keys.get(series)
            if key is None:
                key = series.name
                if series.labels:
                    labels = ",".join(f"{k}={v}" for k, v in sorted(series.labels.items()))
                    key = f"{series.name}{{{labels}}}"
                keys[series] = key
            value = series.value
            last = last_values.get(key, 0.0)
            if value != last:
                deltas[key] = value - last
            last_values[key] = value
        return deltas

    def summary(self) -> dict:
        """Point-in-time digest of the whole monitoring session."""
        return {
            "health": self.health.summary(),
            "frames_monitored": self._frames,
            "triggers": len(self.triggers),
            "triggers_suppressed": self.recorder.triggers_suppressed,
            "incidents": len(self.recorder.incidents),
            "bundles": [str(p) for p in self.bundles],
        }

    def verdict(self) -> dict:
        """The compact per-drive verdict a fleet outcome carries.

        A flattened subset of :meth:`summary`: the folded health state,
        violation counts by SLO, and the trigger/incident tallies — plain
        scalars that merge cheaply into fleet rollups.  With
        ``wall_clock_slos=False`` every field is sim-deterministic.
        """
        health = self.health.summary()
        return {
            "state": health["state"],
            "violations": health["violations"],
            "violations_by_slo": health["violations_by_slo"],
            "transitions": health["transitions"],
            "triggers": len(self.triggers),
            "incidents": len(self.recorder.incidents),
        }
