"""The drive-execution unit: outcomes, containment, determinism filters."""

from __future__ import annotations

import queue
from collections import Counter

import pytest

from repro.core.spec import WALL_KEYS, DriveSpec
from repro.errors import FleetError
from repro.fleet.outcome import (
    DriveOutcome,
    deterministic_metrics,
    deterministic_outcome_dict,
)
from repro.fleet.worker import TASK_POLL_TIMEOUT_S, execute_spec, worker_main
from repro.monitor.session import Monitor, MonitorConfig
from repro.monitor.slo import SloBudgets
from repro.quality.observer import ModelQualityObserver
from repro.telemetry.exporters import load_dump
from repro.telemetry.session import Telemetry

pytestmark = pytest.mark.fleet


@pytest.fixture(scope="module")
def ok_outcome() -> DriveOutcome:
    """One fully observed drive, shared by the read-only assertions."""
    return execute_spec(DriveSpec(name="unit", duration_s=2.0, seed=4))


class TestExecuteSpec:
    def test_status_and_digest(self, ok_outcome):
        assert ok_outcome.ok
        assert ok_outcome.status == "ok"
        assert len(ok_outcome.frames_digest) == 64  # sha256 hex

    def test_summary_covers_the_whole_drive(self, ok_outcome):
        assert ok_outcome.summary["frames"] == 100  # 2 s at 50 fps

    def test_verdict_and_latency_present_when_observed(self, ok_outcome):
        assert ok_outcome.verdict["state"] in ("ok", "degraded", "critical")
        assert ok_outcome.latency_ms["count"] == 100
        assert any(s["name"] == "drive_frames" for s in ok_outcome.metrics)
        assert ok_outcome.wall_s > 0

    def test_accepts_spec_dicts(self, ok_outcome):
        spec = DriveSpec(name="unit", duration_s=2.0, seed=4)
        again = execute_spec(spec.to_dict())
        assert again.frames_digest == ok_outcome.frames_digest

    def test_unmonitored_drive_has_no_verdict(self):
        outcome = execute_spec(
            DriveSpec(duration_s=1.0), monitored=False, record_latency=False
        )
        assert outcome.ok
        assert outcome.verdict == {}
        assert outcome.latency_ms is None
        assert outcome.metrics == []

    def test_observation_never_changes_the_digest(self):
        spec = DriveSpec(duration_s=2.0, seed=8, fault_scenario="flaky_dma")
        observed = execute_spec(spec)
        bare = execute_spec(spec, monitored=False, record_latency=False)
        assert observed.frames_digest == bare.frames_digest

    def test_drive_exceptions_become_failed_outcomes(self, monkeypatch):
        import repro.core.system as system

        def boom(*args, **kwargs):
            raise RuntimeError("detector fell over")

        monkeypatch.setattr(system, "run_drive_spec", boom)
        outcome = execute_spec(DriveSpec(duration_s=1.0))
        assert outcome.status == "failed"
        assert "detector fell over" in outcome.error

    def test_incident_bundles_are_harvested(self, tmp_path):
        outcome = execute_spec(
            DriveSpec(name="faulty", duration_s=4.0, fault_scenario="worst_case"),
            incidents_dir=tmp_path,
        )
        assert outcome.ok
        assert outcome.verdict["incidents"] == len(outcome.incidents)
        for path in outcome.incidents:
            assert str(tmp_path) in path


FAULTED = DriveSpec(name="faulted", duration_s=4.0, seed=8, fault_scenario="worst_case")


def _recorded(spec: DriveSpec) -> Telemetry:
    """The telemetry of ``execute_spec(spec, quality=True)`` recording spans."""
    from repro.core.system import run_drive_spec

    telemetry = Telemetry.recording()
    monitor = Monitor(
        MonitorConfig(
            budgets=SloBudgets.for_fps(spec.fps),
            wall_clock_slos=False,
            quality_slos=False,
            trigger_on_quality=False,
        ),
        telemetry=telemetry,
    )
    observer = ModelQualityObserver.for_spec(spec)
    run_drive_spec(spec, telemetry=telemetry, monitor=monitor, quality=observer)
    return telemetry


def _sim_series(metrics: list[dict]) -> list[dict]:
    return [s for s in metrics if s["name"] not in WALL_KEYS]


class TestSpansRecordedWhenRead:
    """Spans are recorded exactly when a trace dump or a bundle reads them."""

    def test_trace_dump_holds_the_recorded_spans(self, tmp_path):
        path = tmp_path / "drive.jsonl"
        outcome = execute_spec(FAULTED, quality=True, trace_path=path)
        assert outcome.ok
        dumped = load_dump(str(path)).spans
        recorded = _recorded(FAULTED).tracer.spans
        assert Counter(s.name for s in dumped) == Counter(s.name for s in recorded)
        assert sum(len(s.events) for s in dumped) == sum(len(s.events) for s in recorded)

    def test_incident_bundles_still_carry_spans(self, tmp_path):
        outcome = execute_spec(FAULTED, incidents_dir=tmp_path)
        assert outcome.incidents
        for bundle in outcome.incidents:
            names = {span.name for span in load_dump(bundle).spans}
            assert "drive.frame" in names

    def test_unread_spans_are_not_recorded(self, monkeypatch):
        recorded = _recorded(FAULTED).metrics.snapshot()

        def no_spans(cls, *args, **kwargs):
            pytest.fail("a drive nothing reads spans from recorded them")

        monkeypatch.setattr(Telemetry, "recording", classmethod(no_spans))
        outcome = execute_spec(FAULTED, quality=True)
        assert outcome.ok
        assert outcome.latency_ms["count"] == outcome.summary["frames"]
        assert [s["name"] for s in outcome.metrics if s["name"] in WALL_KEYS]
        assert _sim_series(outcome.metrics) == _sim_series(recorded)


class TestChaosContainment:
    def test_contained_crash_becomes_a_crashed_outcome(self):
        outcome = execute_spec(DriveSpec(duration_s=1.0, chaos="crash"))
        assert outcome.status == "crashed"
        assert "chaos" in outcome.error
        assert outcome.frames_digest is None

    def test_contained_hang_becomes_a_timeout_outcome(self):
        outcome = execute_spec(DriveSpec(duration_s=1.0, chaos="hang"))
        assert outcome.status == "timeout"
        assert "chaos" in outcome.error


class _ScriptedQueue:
    """A queue that replays a script of items and ``queue.Empty`` markers."""

    def __init__(self, script):
        self.script = list(script)
        self.timeouts = []

    def get(self, timeout=None):
        self.timeouts.append(timeout)
        if not self.script:
            raise queue.Empty
        item = self.script.pop(0)
        if item is queue.Empty:
            raise queue.Empty
        return item


class _ListQueue:
    def __init__(self):
        self.items = []

    def put(self, item):
        self.items.append(item)


class TestWorkerLoop:
    """Pins the timed-poll contract: a worker never blocks forever on its
    task queue, so scheduler containment (or SIGTERM) always gets a turn."""

    def test_poll_timeout_is_bounded(self):
        assert 0 < TASK_POLL_TIMEOUT_S <= 5.0

    def test_empty_poll_retries_then_sentinel_exits(self):
        tasks = _ScriptedQueue([queue.Empty, queue.Empty, None])
        results = _ListQueue()
        worker_main(0, tasks, results, None, False, False)
        assert tasks.timeouts == [TASK_POLL_TIMEOUT_S] * 3
        assert results.items == []

    def test_task_after_empty_poll_is_still_executed(self):
        spec = DriveSpec(name="poll", duration_s=1.0, seed=3)
        tasks = _ScriptedQueue([queue.Empty, (7, spec.to_dict()), None])
        results = _ListQueue()
        worker_main(2, tasks, results, None, False, False)
        assert len(results.items) == 1
        index, outcome_dict = results.items[0]
        assert index == 7
        outcome = DriveOutcome.from_dict(outcome_dict)
        assert outcome.ok
        assert outcome.worker_id == 2


class TestOutcomeWire:
    def test_round_trip(self, ok_outcome):
        assert DriveOutcome.from_dict(ok_outcome.to_dict()).to_dict() == ok_outcome.to_dict()

    def test_unknown_fields_rejected(self, ok_outcome):
        data = ok_outcome.to_dict()
        data["surprise"] = 1
        with pytest.raises(FleetError, match="surprise"):
            DriveOutcome.from_dict(data)

    def test_unknown_status_rejected(self):
        with pytest.raises(FleetError, match="status"):
            DriveOutcome(spec={}, status="winning")

    def test_deterministic_dict_strips_wall_fields(self, ok_outcome):
        data = deterministic_outcome_dict(ok_outcome)
        for field in ("latency_ms", "wall_s", "worker_id", "hang_verdict", "last_heartbeat_age_s"):
            assert field not in data
        names = {s["name"] for s in data["metrics"]}
        assert not names & WALL_KEYS
        assert "drive_frames" in names

    def test_deterministic_metrics_filter(self):
        series = [{"name": "frame_wall_ms"}, {"name": "drive_frames"}]
        assert deterministic_metrics(series) == [{"name": "drive_frames"}]
