"""Monitoring must not perturb the drive: observed == unobserved, byte for byte."""

from __future__ import annotations

import dataclasses

import pytest

from repro.adaptive.sensor import LightSensor, sunset_trace
from repro.core.system import AdaptiveDetectionSystem, DriveReport
from repro.faults.scenarios import get_scenario
from repro.monitor.session import Monitor

pytestmark = pytest.mark.monitor

DURATION_S = 20.0


def run_drive(monitor: Monitor | None, scenario: str | None) -> DriveReport:
    trace = sunset_trace(duration_s=DURATION_S)
    plan = get_scenario(scenario, DURATION_S) if scenario else None
    system = AdaptiveDetectionSystem(fault_plan=plan, monitor=monitor)
    sensor = LightSensor(trace, noise_rel=0.03, seed=11, faults=plan)
    return system.run_drive(trace, duration_s=DURATION_S, sensor=sensor)


def frame_bytes(report: DriveReport) -> bytes:
    return repr([dataclasses.astuple(f) for f in report.frames]).encode()


@pytest.mark.parametrize("scenario", [None, "worst_case"])
def test_monitored_drive_is_byte_identical(scenario):
    plain = run_drive(None, scenario)
    monitored = run_drive(Monitor(), scenario)
    assert frame_bytes(plain) == frame_bytes(monitored)
    assert plain.summary() == monitored.summary()
    assert [d.label() for d in plain.degradations] == [
        d.label() for d in monitored.degradations
    ]


def test_report_carries_the_monitor_only_when_enabled():
    plain = run_drive(None, None)
    assert plain.monitor is None
    monitor = Monitor()
    monitored = run_drive(monitor, None)
    assert monitored.monitor is monitor


def test_monitored_replay_of_a_monitored_drive_matches_itself():
    # Monitoring twice with identical inputs is also deterministic.
    first = run_drive(Monitor(), "worst_case")
    second = run_drive(Monitor(), "worst_case")
    assert frame_bytes(first) == frame_bytes(second)
    assert first.monitor is not None and second.monitor is not None
    assert [t.to_dict() for t in first.monitor.triggers] == [
        t.to_dict() for t in second.monitor.triggers
    ]
