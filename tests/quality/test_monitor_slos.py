"""Quality SLOs inside the health monitor: budgets, detectors, the walk."""

from __future__ import annotations

from dataclasses import asdict, dataclass

import pytest

from repro.errors import ConfigurationError
from repro.monitor.slo import HealthMonitor, HealthState, SloBudgets

pytestmark = [pytest.mark.quality, pytest.mark.monitor]


@dataclass
class Scored:
    """The duck-typed scored-frame surface `_quality_violations` reads."""

    tp: int = 0
    fp: int = 0
    fn: int = 0


def small_budgets(**overrides) -> SloBudgets:
    defaults = dict(
        quality_window=8,
        quality_min_samples=4,
        recovery_frames=3,
    )
    defaults.update(overrides)
    return SloBudgets(**defaults)


def feed(monitor, frames, start_index=0):
    """Feed (quality, ...) frames; returns all violations and transitions."""
    violations, transitions = [], []
    for offset, quality in enumerate(frames):
        index = start_index + offset
        found, transition = monitor.observe_frame(
            index, index * 0.02, quality=quality
        )
        violations.extend(found)
        if transition is not None:
            transitions.append(transition)
    return violations, transitions


class TestBudgetValidation:
    def test_quality_window_must_hold_two_samples(self):
        with pytest.raises(ConfigurationError, match="quality windows"):
            SloBudgets(quality_window=1)
        with pytest.raises(ConfigurationError, match="quality windows"):
            SloBudgets(quality_min_samples=1)

    def test_collapse_must_not_exceed_floor(self):
        with pytest.raises(ConfigurationError, match="collapse <= floor"):
            SloBudgets(quality_collapse_recall=0.7, quality_recall_floor=0.6)

    def test_fp_ceiling_and_drift_params_positive(self):
        with pytest.raises(ConfigurationError, match="fp_per_frame"):
            SloBudgets(quality_fp_per_frame_max=0.0)
        with pytest.raises(ConfigurationError, match="drift parameters"):
            SloBudgets(quality_drift_mad_k=0.0)

    def test_to_dict_round_trips(self):
        budgets = small_budgets(quality_recall_floor=0.7)
        assert SloBudgets(**asdict(budgets)) == budgets

    def test_pre_quality_budget_dicts_still_load(self):
        # Bundles written before the quality plane carry no quality keys;
        # SloBudgets(**manifest["budgets"]) must keep loading them.
        old = {
            k: v
            for k, v in asdict(SloBudgets()).items()
            if not k.startswith("quality_")
        }
        budgets = SloBudgets(**old)
        assert budgets.quality_window == SloBudgets().quality_window


class TestQualityDetectors:
    def test_quiet_below_min_samples(self):
        monitor = HealthMonitor(small_budgets())
        violations, _ = feed(monitor, [Scored(tp=0, fn=1)] * 3)
        assert violations == []

    def test_fp_rate_ceiling(self):
        monitor = HealthMonitor(small_budgets(quality_fp_per_frame_max=1.0))
        violations, _ = feed(monitor, [Scored(tp=1, fp=2)] * 6)
        assert any(v.slo == "quality-fp-rate" for v in violations)
        assert all(v.severity is HealthState.DEGRADED for v in violations)

    def test_recall_undefined_window_stays_quiet(self):
        # No ground-truth vehicles anywhere: recall is undefined, and an
        # undefined recall must never alarm.
        monitor = HealthMonitor(small_budgets())
        violations, _ = feed(monitor, [Scored()] * 20)
        assert violations == []

    def test_unscored_frames_do_not_engage_quality_slos(self):
        monitor = HealthMonitor(small_budgets())
        violations, transitions = feed(monitor, [None] * 20)
        assert violations == []
        assert transitions == []
        assert monitor.state is HealthState.OK

    def test_absolute_floor_flags_low_recall(self):
        monitor = HealthMonitor(small_budgets())
        violations, _ = feed(
            monitor, [Scored(tp=1, fn=1)] * 8  # windowed recall 0.5 < 0.6
        )
        assert any(v.slo == "quality-recall" for v in violations)

    def test_drift_flags_downward_slides_only(self):
        budgets = small_budgets(quality_drift_mad_k=4.0, quality_drift_floor=0.05)
        # Downward: perfect recall history, then misses.
        down = HealthMonitor(budgets)
        feed(down, [Scored(tp=1)] * 10)
        violations, _ = feed(down, [Scored(tp=0, fn=1)] * 2, start_index=10)
        assert any(v.slo == "quality-drift" for v in violations)
        # Upward: poor-but-legal recall history, then perfection — the
        # same magnitude of change in the other direction must not flag.
        up = HealthMonitor(budgets)
        feed(up, [Scored(tp=2, fn=1)] * 10)  # recall 0.67, above the floor
        violations, _ = feed(up, [Scored(tp=3)] * 10, start_index=10)
        assert not any(v.slo == "quality-drift" for v in violations)


class TestQualityWalk:
    def test_ok_degraded_critical_recovery(self):
        """The acceptance walk: OK -> DEGRADED -> CRITICAL -> back to OK."""
        monitor = HealthMonitor(small_budgets())
        # Healthy traffic: state stays OK.
        _, transitions = feed(monitor, [Scored(tp=1)] * 8)
        assert transitions == []
        assert monitor.state is HealthState.OK
        # Detections die: drift fires first (DEGRADED), the collapse
        # line later (CRITICAL).
        violations, transitions = feed(
            monitor, [Scored(tp=0, fn=1)] * 10, start_index=8
        )
        slos = [v.slo for v in violations]
        assert "quality-drift" in slos
        assert "quality-collapse" in slos
        assert [t.new for t in transitions] == [
            HealthState.DEGRADED,
            HealthState.CRITICAL,
        ]
        assert all("quality-" in t.reason for t in transitions)
        assert monitor.state is HealthState.CRITICAL
        # Detections return: windowed recall climbs back over the floor,
        # clean frames accumulate, and hysteresis steps back down.
        _, transitions = feed(monitor, [Scored(tp=1)] * 14, start_index=18)
        assert [t.new for t in transitions] == [
            HealthState.DEGRADED,
            HealthState.OK,
        ]
        assert monitor.state is HealthState.OK
