"""The fleet scheduler: sharded determinism, containment, backpressure.

This file carries the subsystem's acceptance tests: a 64-drive sweep
sharded over 4 workers must be byte-identical (per-drive frame digests
and the whole deterministic rollup view) to the sequential in-process
reference run, and injected worker crashes/hangs must cost exactly one
outcome each while the run completes.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.core.spec import DriveSpec
from repro.errors import FleetError
from repro.fleet.rollup import deterministic_view, validate_rollup
from repro.fleet.scheduler import (
    JOIN_TIMEOUT_S,
    FleetConfig,
    FleetScheduler,
    _reap,
    run_fleet,
)
from repro.fleet.specs import sweep_specs
from repro.fleet.trace import load_drive_dumps

pytestmark = pytest.mark.fleet


def canonical(view: dict) -> str:
    return json.dumps(view, sort_keys=True)


class TestShardedDeterminism:
    def test_64_drives_over_4_workers_match_the_inline_reference(self):
        # The acceptance criterion of the subsystem: same specs, same
        # seeds, different executors -> byte-identical deterministic view.
        specs = sweep_specs(64, fleet_seed=2026, duration_s=1.0)
        sharded = run_fleet(specs, FleetConfig(workers=4))
        inline = run_fleet(specs, FleetConfig(workers=0))
        validate_rollup(sharded)
        validate_rollup(inline)
        assert sharded["fleet"]["by_status"] == {"ok": 64}

        sharded_digests = [o["frames_digest"] for o in sharded["outcomes"]]
        inline_digests = [o["frames_digest"] for o in inline["outcomes"]]
        assert sharded_digests == inline_digests

        assert canonical(deterministic_view(sharded)) == canonical(
            deterministic_view(inline)
        )

    def test_sharded_run_twice_is_identical(self):
        specs = sweep_specs(8, fleet_seed=5, duration_s=1.0)
        first = run_fleet(specs, FleetConfig(workers=2))
        second = run_fleet(specs, FleetConfig(workers=2))
        assert canonical(deterministic_view(first)) == canonical(
            deterministic_view(second)
        )

    def test_outcomes_come_back_in_submission_order(self):
        specs = sweep_specs(9, fleet_seed=1, duration_s=1.0)
        rollup = run_fleet(specs, FleetConfig(workers=3))
        assert [o["spec"]["name"] for o in rollup["outcomes"]] == [s.name for s in specs]


class TestContainment:
    def test_worker_crash_is_one_outcome_not_the_run(self):
        specs = list(sweep_specs(6, fleet_seed=4, duration_s=1.0))
        specs[2] = dataclasses.replace(specs[2], chaos="crash")
        scheduler = FleetScheduler(FleetConfig(workers=2))
        scheduler.submit_all(specs)
        outcomes = scheduler.run()
        assert [o.status for o in outcomes] == ["ok", "ok", "crashed", "ok", "ok", "ok"]
        assert "died" in outcomes[2].error
        assert scheduler.events_by_kind["fleet.worker.crash"] == 1
        # The dead worker was replaced: one spawn beyond the initial two.
        assert scheduler.events_by_kind["fleet.worker.spawn"] == 3

    def test_worker_hang_times_out_and_the_run_completes(self):
        specs = list(sweep_specs(4, fleet_seed=4, duration_s=1.0))
        specs[1] = dataclasses.replace(specs[1], chaos="hang")
        scheduler = FleetScheduler(FleetConfig(workers=2, drive_timeout_s=1.0))
        scheduler.submit_all(specs)
        outcomes = scheduler.run()
        statuses = [o.status for o in outcomes]
        assert statuses[1] == "timeout"
        assert statuses.count("ok") == 3
        assert scheduler.events_by_kind["fleet.worker.timeout"] == 1

    def test_inline_reference_contains_the_same_chaos(self):
        specs = [
            DriveSpec(name="a", duration_s=1.0),
            DriveSpec(name="b", duration_s=1.0, chaos="crash"),
            DriveSpec(name="c", duration_s=1.0, chaos="hang"),
        ]
        scheduler = FleetScheduler(FleetConfig(workers=0))
        scheduler.submit_all(specs)
        outcomes = scheduler.run()
        assert [o.status for o in outcomes] == ["ok", "crashed", "timeout"]


class TestTraceDir:
    def test_missing_trace_dir_is_created_before_workers_start(self, tmp_path):
        # Workers write drive-NNNN.jsonl straight into the trace dir; a
        # path that does not exist yet must not crash every one of them.
        trace_dir = tmp_path / "missing" / "traces"
        scheduler = FleetScheduler(
            FleetConfig(workers=1, drive_timeout_s=30.0, trace_dir=str(trace_dir))
        )
        scheduler.submit_all(sweep_specs(2, fleet_seed=5, duration_s=0.5))
        outcomes = scheduler.run()
        assert [o.status for o in outcomes] == ["ok", "ok"]
        assert len(load_drive_dumps(trace_dir)) == 2


class TestAdmissionControl:
    def test_queue_capacity_rejects_with_reason(self):
        scheduler = FleetScheduler(FleetConfig(workers=0, queue_capacity=2))
        admissions = scheduler.submit_all(sweep_specs(4, duration_s=1.0))
        assert [a.accepted for a in admissions] == [True, True, False, False]
        assert "queue full" in admissions[2].reason
        assert admissions[0].index == 0 and admissions[1].index == 1
        assert [o.status for o in scheduler.rejected] == ["rejected", "rejected"]
        assert scheduler.events_by_kind["fleet.reject"] == 2

    def test_finished_scheduler_rejects_late_submissions(self):
        scheduler = FleetScheduler(FleetConfig(workers=0))
        scheduler.submit(DriveSpec(duration_s=1.0))
        scheduler.run()
        late = scheduler.submit(DriveSpec(name="late", duration_s=1.0))
        assert not late.accepted
        assert "run finished" in late.reason

    def test_rejections_reach_the_rollup(self):
        specs = sweep_specs(3, duration_s=1.0)
        rollup = run_fleet(specs, FleetConfig(workers=0, queue_capacity=2))
        assert rollup["fleet"]["drives"] == 2
        assert rollup["fleet"]["rejected"] == 1
        statuses = [o["status"] for o in rollup["outcomes"]]
        assert statuses == ["ok", "ok", "rejected"]


class _FakeProcess:
    """Records join/kill calls; ``alive_script`` answers is_alive() in order."""

    def __init__(self, alive_script):
        self.alive_script = list(alive_script)
        self.joins = []
        self.kills = 0

    def join(self, timeout=None):
        self.joins.append(timeout)

    def is_alive(self):
        return self.alive_script.pop(0)

    def kill(self):
        self.kills += 1


class TestReap:
    """Pins the bounded-join contract: reaping a worker can never hang the
    scheduler, even when the child ignores terminate()."""

    def test_join_timeout_is_bounded(self):
        assert 0 < JOIN_TIMEOUT_S <= 30.0

    def test_cooperative_exit_needs_no_kill(self):
        process = _FakeProcess(alive_script=[False])
        _reap(process)
        assert process.joins == [JOIN_TIMEOUT_S]
        assert process.kills == 0

    def test_stuck_process_is_killed(self):
        process = _FakeProcess(alive_script=[True])
        _reap(process)
        assert process.kills == 1
        assert process.joins == [JOIN_TIMEOUT_S, JOIN_TIMEOUT_S]


class TestEvents:
    def test_lifecycle_events_are_counted(self):
        scheduler = FleetScheduler(FleetConfig(workers=0))
        scheduler.submit_all(sweep_specs(2, duration_s=1.0))
        scheduler.run()
        counts = scheduler.events_by_kind
        assert counts["fleet.submit"] == 2
        assert counts["fleet.drive.start"] == 2
        assert counts["fleet.drive.done"] == 2
        assert counts["fleet.run.start"] == 1
        assert counts["fleet.run.done"] == 1

    def test_unknown_event_kind_is_rejected_at_runtime(self):
        scheduler = FleetScheduler(FleetConfig(workers=0))
        with pytest.raises(FleetError, match="vocabulary"):
            scheduler.fleet_event("fleet.party")


class TestFleetConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"workers": -1},
            {"queue_capacity": 0},
            {"drive_timeout_s": 0.0},
            {"status_interval_s": 0.0},
        ],
    )
    def test_bad_configs_rejected(self, kwargs):
        with pytest.raises(FleetError):
            FleetConfig(**kwargs)
