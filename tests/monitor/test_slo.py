"""HealthMonitor: paper-budget SLO evaluation and hysteretic recovery."""

from __future__ import annotations

from dataclasses import asdict

import pytest

from repro.errors import ConfigurationError
from repro.monitor.slo import (
    PAPER_FRAME_BUDGET_MS,
    PAPER_ICAP_MBS,
    PAPER_RECONFIG_MS,
    HealthMonitor,
    HealthState,
    SloBudgets,
)

pytestmark = pytest.mark.monitor


class TestSloBudgets:
    def test_defaults_derive_from_paper_numbers(self):
        budgets = SloBudgets()
        assert budgets.frame_budget_ms == PAPER_FRAME_BUDGET_MS == 20.0
        assert budgets.reconfig_budget_ms == PAPER_RECONFIG_MS == 20.0
        assert budgets.icap_floor_mbs == pytest.approx(PAPER_ICAP_MBS * 0.9)

    def test_reconfig_limit_adds_margin(self):
        assert SloBudgets().reconfig_limit_ms == pytest.approx(25.0)
        assert SloBudgets(reconfig_margin_rel=0.0).reconfig_limit_ms == pytest.approx(20.0)

    def test_for_fps_derives_frame_budget(self):
        assert SloBudgets.for_fps(50.0).frame_budget_ms == pytest.approx(20.0)
        assert SloBudgets.for_fps(25.0).frame_budget_ms == pytest.approx(40.0)
        with pytest.raises(ConfigurationError):
            SloBudgets.for_fps(0.0)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"frame_budget_ms": 0.0},
            {"reconfig_budget_ms": -1.0},
            {"reconfig_margin_rel": -0.1},
            {"icap_floor_mbs": 0.0},
            {"flap_max_changes": 0},
            {"quality_window": 1},
            {"quality_drift_floor": 0.0},
            {"recovery_frames": 0},
        ],
    )
    def test_validation(self, overrides):
        with pytest.raises(ConfigurationError):
            SloBudgets(**overrides)

    def test_to_dict_round_trips(self):
        budgets = SloBudgets(recovery_frames=7, flap_max_changes=2)
        assert SloBudgets(**asdict(budgets)) == budgets


class TestEvaluators:
    def test_frame_over_budget_is_degraded(self):
        hm = HealthMonitor()
        found, _ = hm.observe_frame(0, 0.0, wall_ms=2 * PAPER_FRAME_BUDGET_MS)
        assert [v.slo for v in found] == ["frame-deadline"]
        assert found[0].severity is HealthState.DEGRADED

    def test_reconfig_overrun_and_icap_floor(self):
        hm = HealthMonitor()
        found = hm.observe_reconfig(
            duration_ms=30.0, throughput_mbs=200.0, ok=True, time_s=1.0
        )
        assert sorted(v.slo for v in found) == ["icap-throughput", "reconfig-overrun"]
        assert all(v.severity is HealthState.DEGRADED for v in found)

    def test_paper_reconfig_passes_clean(self):
        hm = HealthMonitor()
        found = hm.observe_reconfig(
            duration_ms=PAPER_RECONFIG_MS, throughput_mbs=PAPER_ICAP_MBS, ok=True, time_s=1.0
        )
        assert found == []

    def test_failed_reconfig_is_critical(self):
        hm = HealthMonitor()
        found = hm.observe_reconfig(
            duration_ms=5.0, throughput_mbs=0.0, ok=False, time_s=1.0, detail="watchdog"
        )
        assert found[0].slo == "reconfig-failed"
        assert found[0].severity is HealthState.CRITICAL

    def test_condition_flapping(self):
        hm = HealthMonitor(SloBudgets(flap_window_s=10.0, flap_max_changes=2))
        assert hm.observe_condition_change(0.0) == []
        assert hm.observe_condition_change(1.0) == []
        found = hm.observe_condition_change(2.0)
        assert [v.slo for v in found] == ["condition-flapping"]
        # Changes outside the trailing window age out.
        assert hm.observe_condition_change(50.0) == []

    def test_reconfig_abandoned_degradation_is_critical(self):
        hm = HealthMonitor()
        found = hm.observe_degradation("reconfig-abandoned", 1.0, "gave up on dark")
        assert found[0].severity is HealthState.CRITICAL
        found = hm.observe_degradation("dma-reset", 2.0)
        assert found[0].severity is HealthState.DEGRADED


class TestHealthFolding:
    def test_ok_degraded_critical_and_stepped_recovery(self):
        """The acceptance walk: OK -> DEGRADED -> CRITICAL -> DEGRADED -> OK."""
        hm = HealthMonitor(SloBudgets(recovery_frames=5))
        assert hm.state is HealthState.OK

        # A frame over the paper's 20 ms budget degrades the system.
        _, transition = hm.observe_frame(0, 0.0, wall_ms=25.0)
        assert transition is not None
        assert (transition.previous, transition.new) == (HealthState.OK, HealthState.DEGRADED)

        # A failed reconfiguration folded into the next frame is CRITICAL.
        hm.observe_reconfig(duration_ms=30.0, throughput_mbs=0.0, ok=False, time_s=0.02)
        _, transition = hm.observe_frame(1, 0.02)
        assert transition is not None and transition.new is HealthState.CRITICAL
        assert hm.state is HealthState.CRITICAL

        # Recovery is hysteretic: one severity level per clean streak.
        transitions = []
        for i in range(2, 12):
            _, transition = hm.observe_frame(i, i * 0.02)
            if transition is not None:
                transitions.append(transition)
        assert [t.new for t in transitions] == [HealthState.DEGRADED, HealthState.OK]
        assert hm.state is HealthState.OK
        assert all("recovered" in t.reason for t in transitions)

    def test_violation_during_recovery_resets_the_streak(self):
        hm = HealthMonitor(SloBudgets(recovery_frames=5))
        hm.observe_frame(0, 0.0, wall_ms=25.0)
        for i in range(1, 4):
            hm.observe_frame(i, i * 0.02)
        hm.observe_frame(4, 0.08, wall_ms=25.0)  # streak broken at 3
        for i in range(5, 9):
            _, transition = hm.observe_frame(i, i * 0.02)
            assert transition is None
        _, transition = hm.observe_frame(9, 0.18)
        assert transition is not None and transition.new is HealthState.OK

    def test_worse_violations_never_lower_the_state(self):
        hm = HealthMonitor()
        hm.observe_reconfig(duration_ms=5.0, throughput_mbs=0.0, ok=False, time_s=0.0)
        hm.observe_frame(0, 0.0)
        assert hm.state is HealthState.CRITICAL
        # A mere DEGRADED violation afterwards does not pull CRITICAL down.
        _, transition = hm.observe_frame(1, 0.02, wall_ms=25.0)
        assert transition is None
        assert hm.state is HealthState.CRITICAL

    def test_summary_counts_by_slo(self):
        hm = HealthMonitor()
        hm.observe_frame(0, 0.0, wall_ms=25.0)
        hm.observe_frame(1, 0.02, wall_ms=25.0)
        summary = hm.summary()
        assert summary["state"] == "degraded"
        assert summary["violations_by_slo"] == {"frame-deadline": 2}
        assert summary["frames_observed"] == 2
        assert summary["transitions"] == 1
