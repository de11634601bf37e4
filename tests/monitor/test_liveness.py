"""Heartbeat liveness: the pure alive/suspect/hung state machine."""

from __future__ import annotations

from dataclasses import asdict

import pytest

from repro.errors import ConfigurationError
from repro.monitor.liveness import (
    DEFAULT_HEARTBEAT_INTERVAL_S,
    DEFAULT_HUNG_AFTER_S,
    DEFAULT_SUSPECT_AFTER_S,
    LIVENESS_STATES,
    LivenessConfig,
    WorkerLiveness,
)

pytestmark = pytest.mark.monitor


def config() -> LivenessConfig:
    return LivenessConfig(
        heartbeat_interval_s=0.1, suspect_after_s=0.5, hung_after_s=1.0
    )


class TestLivenessConfig:
    def test_defaults_are_ordered(self):
        assert (
            DEFAULT_HEARTBEAT_INTERVAL_S
            < DEFAULT_SUSPECT_AFTER_S
            < DEFAULT_HUNG_AFTER_S
        )
        LivenessConfig()  # defaults must validate

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"heartbeat_interval_s": 0.0},
            {"heartbeat_interval_s": -1.0},
            # suspect threshold must leave headroom above the beat cadence
            {"heartbeat_interval_s": 0.5, "suspect_after_s": 0.5},
            # hung must escalate beyond suspect
            {"suspect_after_s": 2.0, "hung_after_s": 2.0},
            {"suspect_after_s": 2.0, "hung_after_s": 1.0},
        ],
    )
    def test_bad_thresholds_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            LivenessConfig(**kwargs)

    def test_to_dict_round_trips(self):
        cfg = config()
        assert LivenessConfig(**asdict(cfg)) == cfg


class TestWorkerLiveness:
    def test_states_escalate_with_silence(self):
        live = WorkerLiveness(config(), now_s=100.0)
        assert live.state(100.0) == "alive"
        assert live.state(100.4) == "alive"
        assert live.state(100.5) == "suspect"
        assert live.state(100.99) == "suspect"
        assert live.state(101.0) == "hung"
        assert set(LIVENESS_STATES) == {"alive", "suspect", "hung"}

    def test_a_beat_resets_the_escalation(self):
        live = WorkerLiveness(config(), now_s=100.0)
        assert live.state(100.7) == "suspect"
        live.observe(100.7)
        assert live.state(100.7) == "alive"
        assert live.age_s(100.7) == 0.0

    def test_time_never_runs_backwards(self):
        live = WorkerLiveness(config(), now_s=100.0)
        live.observe(105.0)
        live.observe(101.0)  # stale arrival must not rewind the clock
        assert live.age_s(105.0) == 0.0
        assert live.age_s(104.0) == 0.0  # age is clamped non-negative

    def test_reset_rewinds_deliberately(self):
        live = WorkerLiveness(config(), now_s=100.0)
        live.observe(105.0)
        live.reset(102.0)  # new drive dispatched at 102
        assert live.age_s(103.0) == 1.0
