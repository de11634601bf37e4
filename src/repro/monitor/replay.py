"""Deterministic replay of incident bundles.

``replay_bundle`` reconstructs the *entire* drive from a bundle's manifest
— lux-trace knots, sensor noise/seed, the full fault plan, the system
configuration — re-runs it with a fresh in-memory monitor, locates the
incident window matching the recorded trigger, and byte-compares every
frame core against the bundle.  Because the drive is a pure function of
those inputs (the fault-injection replay invariant), a clean bundle always
verifies; a mismatch means either the bundle was edited or the codebase no
longer reproduces the recorded behaviour — both worth knowing.

This module imports :mod:`repro.core.system` and therefore must stay out
of ``repro.monitor.__init__`` (the core imports the monitor session; going
the other way here would close an import cycle).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.adaptive.sensor import LightSensor, LuxTrace
from repro.core.system import AdaptiveDetectionSystem, SystemConfig
from repro.errors import MonitoringError
from repro.faults.plan import FaultPlan
from repro.monitor.bundle import IncidentBundle, load_bundle
from repro.monitor.recorder import IncidentWindow
from repro.monitor.session import Monitor, MonitorConfig, canonical_frame_bytes


@dataclass
class ReplayResult:
    """Outcome of replaying one bundle."""

    bundle: IncidentBundle
    ok: bool
    detail: str
    frames_compared: int = 0
    mismatched_indices: list[int] = field(default_factory=list)
    window: IncidentWindow | None = None
    monitor: Monitor | None = field(default=None, repr=False)

    def summary(self) -> dict:
        return {
            "incident_id": self.bundle.incident_id,
            "ok": self.ok,
            "detail": self.detail,
            "frames_compared": self.frames_compared,
            "mismatched_indices": list(self.mismatched_indices),
        }


def rebuild_drive(
    manifest: dict,
) -> tuple[AdaptiveDetectionSystem, LuxTrace, LightSensor, float, Monitor]:
    """Reconstruct (system, trace, sensor, duration, monitor) from a manifest."""
    drive = manifest.get("drive")
    if not drive:
        raise MonitoringError(
            "bundle manifest carries no 'drive' section; cannot replay"
        )
    trace = LuxTrace(points=tuple((float(t), float(lux)) for t, lux in drive["trace_points"]))
    plan = None if drive["fault_plan"] is None else FaultPlan.from_dict(drive["fault_plan"])
    sensor_cfg = drive["sensor"]
    sensor = LightSensor(
        trace,
        noise_rel=sensor_cfg["noise_rel"],
        dropout_probability=sensor_cfg["dropout_probability"],
        seed=sensor_cfg["seed"],
        faults=plan,
    )
    config = SystemConfig.from_dict(drive["system"])
    monitor = Monitor(MonitorConfig.from_dict(manifest["monitor"]))
    # A drive recorded with the quality plane attached must replay with an
    # identical observer: its records feed the quality SLOs, so the health
    # walk (and therefore the trigger window) depends on them.
    quality = None
    quality_prov = manifest.get("quality")
    if quality_prov is not None:
        from repro.quality.observer import observer_from_provenance

        quality = observer_from_provenance(quality_prov)
    system = AdaptiveDetectionSystem(
        config, fault_plan=plan, monitor=monitor, quality=quality
    )
    return system, trace, sensor, float(drive["duration_s"]), monitor


def _matching_window(monitor: Monitor, bundle: IncidentBundle) -> IncidentWindow | None:
    if not bundle.triggers:
        return None
    target = bundle.triggers[0]
    for window in monitor.recorder.incidents:
        first = window.triggers[0]
        if first.kind == target.kind and first.frame_index == target.frame_index:
            return window
    return None


def replay_bundle(bundle: IncidentBundle | str | Path) -> ReplayResult:
    """Re-run a bundle's drive and byte-verify the recorded frame window."""
    if not isinstance(bundle, IncidentBundle):
        bundle = load_bundle(bundle)
    system, trace, sensor, duration_s, monitor = rebuild_drive(bundle.manifest)
    system.run_drive(trace, duration_s=duration_s, sensor=sensor)
    window = _matching_window(monitor, bundle)
    if window is None:
        return ReplayResult(
            bundle=bundle,
            ok=False,
            detail=(
                "replay produced no incident window matching the recorded "
                f"trigger {bundle.triggers[0].label() if bundle.triggers else '<none>'} "
                f"({len(monitor.recorder.incidents)} windows reproduced)"
            ),
            monitor=monitor,
        )
    original = bundle.frame_records()
    replayed = [snapshot.record for snapshot in window.snapshots]
    if len(original) != len(replayed):
        return ReplayResult(
            bundle=bundle,
            ok=False,
            detail=(
                f"window length mismatch: bundle has {len(original)} frames, "
                f"replay produced {len(replayed)}"
            ),
            window=window,
            monitor=monitor,
        )
    mismatched = [
        rec["index"]
        for rec, rep in zip(original, replayed)
        if canonical_frame_bytes(rec) != canonical_frame_bytes(rep)
    ]
    ok = not mismatched
    detail = (
        f"{len(original)} frames byte-identical"
        if ok
        else f"{len(mismatched)} of {len(original)} frames differ"
    )
    return ReplayResult(
        bundle=bundle,
        ok=ok,
        detail=detail,
        frames_compared=len(original),
        mismatched_indices=mismatched,
        window=window,
        monitor=monitor,
    )
