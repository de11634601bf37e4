"""End-to-end incident determinism: record, bundle, replay, byte-verify."""

from __future__ import annotations

import enum
import math
from dataclasses import fields, is_dataclass, replace

import pytest

from repro.adaptive.sensor import LightSensor, sunset_trace
from repro.core.system import AdaptiveDetectionSystem, SystemConfig
from repro.faults.plan import FaultPlan, FaultSite, FaultSpec
from repro.faults.scenarios import SCENARIOS, get_scenario
from repro.monitor.analyzer import render_report, root_cause_hints
from repro.monitor.bundle import list_bundles, load_bundle, write_bundle
from repro.monitor.replay import rebuild_drive, replay_bundle
from repro.monitor.session import Monitor, MonitorConfig
from repro.zynq.pr import ALL_CONTROLLERS

pytestmark = pytest.mark.monitor

DURATION_S = 30.0


def record_scenario(tmp_path, name: str) -> Monitor:
    trace = sunset_trace(duration_s=DURATION_S)
    plan = get_scenario(name, DURATION_S)
    monitor = Monitor.recording(tmp_path)
    system = AdaptiveDetectionSystem(fault_plan=plan, monitor=monitor)
    sensor = LightSensor(trace, noise_rel=0.03, seed=23, faults=plan)
    system.run_drive(trace, duration_s=DURATION_S, sensor=sensor)
    return monitor


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_every_scenario_produces_a_replayable_bundle(tmp_path, name):
    monitor = record_scenario(tmp_path, name)
    bundles = list_bundles(tmp_path)
    assert bundles, f"scenario {name!r} produced no incident bundle"
    assert monitor.bundles == bundles
    # Replaying the first bundle re-runs the whole drive from the manifest
    # and must byte-verify every frame core in the window.
    result = replay_bundle(bundles[0])
    assert result.ok, f"{name}: {result.detail}"
    assert result.frames_compared > 0
    assert result.mismatched_indices == []


def test_worst_case_replays_every_bundle_and_names_the_fault(tmp_path):
    record_scenario(tmp_path, "worst_case")
    bundles = list_bundles(tmp_path)
    assert bundles
    for path in bundles:
        result = replay_bundle(path)
        assert result.ok, f"{path.name}: {result.detail}"
    # The acceptance criterion: the post-mortem names the injected fault.
    bundle = load_bundle(bundles[0])
    hints = root_cause_hints(bundle)
    assert hints
    top = hints[0]
    assert top.kind == "fault"
    assert "dma-error" in top.text
    report = render_report(bundle)
    assert "root-cause hints" in report
    assert "dma-error" in report


def test_tampered_bundle_fails_replay(tmp_path):
    record_scenario(tmp_path, "flaky_dma")
    bundle_dir = list_bundles(tmp_path)[0]
    records = bundle_dir / "records.jsonl"
    text = records.read_text(encoding="utf-8")
    assert '"lux"' in text
    records.write_text(text.replace('"lux"', '"xul"', 1), encoding="utf-8")
    result = replay_bundle(bundle_dir)
    assert not result.ok
    assert result.mismatched_indices


def test_bundle_manifest_carries_replay_provenance(tmp_path):
    record_scenario(tmp_path, "flaky_dma")
    bundle = load_bundle(list_bundles(tmp_path)[0])
    manifest = bundle.manifest
    assert manifest["schema_version"] == 2
    drive = manifest["drive"]
    assert drive["sensor"]["seed"] == 23
    assert drive["fault_plan"]["name"] == "flaky_dma"
    assert drive["system"]["controller_cls"] == "paper-pr"
    assert drive["trace_points"], "lux trace knots must be recorded"
    assert manifest["monitor"]["budgets"]["frame_budget_ms"] == 20.0


def _changed(value):
    """A valid value other than ``value`` for one config field."""
    if is_dataclass(value):
        return _all_changed(value)
    if isinstance(value, bool):
        return not value
    if isinstance(value, enum.Enum):
        members = list(type(value))
        return members[(members.index(value) + 1) % len(members)]
    if isinstance(value, type):
        return next(cls for cls in ALL_CONTROLLERS if cls is not value)
    if value is None:
        return 2
    if isinstance(value, str):
        return "vehicle"
    if isinstance(value, float) and math.isinf(value):
        return 25.0
    if isinstance(value, int):
        return value + 1
    return value * 1.1 if value else 0.5


def _all_changed(config, skip=()):
    """``config`` with every field (nested configs too) off its value."""
    changes = {
        f.name: _changed(getattr(config, f.name)) for f in fields(config) if f.name not in skip
    }
    for name, value in changes.items():
        assert value != getattr(config, name), name
    return replace(config, **changes)


def test_every_config_field_survives_bundle_and_rebuild(tmp_path):
    # Generic over dataclasses.fields: a field added to any of these
    # configs without a dict form fails here, not in a silent replay.
    system_config = _all_changed(SystemConfig())
    monitor_config = replace(
        _all_changed(MonitorConfig(), skip={"out_dir"}), out_dir=str(tmp_path)
    )
    plan = FaultPlan(
        [
            _all_changed(FaultSpec(FaultSite.DMA_ERROR)),
            FaultSpec(FaultSite.SENSOR_SPIKE, start_s=1.0, magnitude=5.0),
        ],
        name="round-trip",
    )
    trace = sunset_trace(duration_s=2.0)
    monitor = Monitor(monitor_config)
    system = AdaptiveDetectionSystem(system_config, fault_plan=plan, monitor=monitor)
    sensor = LightSensor(trace, noise_rel=0.05, seed=11, faults=plan)
    system.run_drive(trace, duration_s=2.0, sensor=sensor)

    manifest = load_bundle(write_bundle(tmp_path / "bundle", monitor.provenance, [], [])).manifest
    rebuilt, _, rebuilt_sensor, duration_s, rebuilt_monitor = rebuild_drive(manifest)

    assert rebuilt.config == system_config
    assert rebuilt_monitor.config == replace(monitor_config, out_dir=None)
    assert rebuilt.fault_plan.name == plan.name
    assert rebuilt.fault_plan.specs == plan.specs
    assert math.isinf(rebuilt.fault_plan.specs[1].end_s)
    assert rebuilt_sensor.seed == 11
    assert duration_s == 2.0
