"""The status board: fold side-channel records into FleetStatus snapshots.

All tests drive the board with a simulated clock — the board never reads
a clock itself (arrival-time semantics), which is exactly what makes the
suspect/hung escalation deterministic under test.
"""

from __future__ import annotations

import pytest

from repro.core.spec import WALL_KEYS
from repro.errors import FleetError
from repro.fleet.outcome import DriveOutcome
from repro.fleet.status import (
    STATUS_SCHEMA,
    STATUS_SCHEMA_VERSION,
    WORKER_STATES,
    StatusBoard,
    render_status,
    status_metrics_snapshot,
    validate_status,
)
from repro.monitor.liveness import LivenessConfig
from repro.telemetry.openmetrics import parse_openmetrics, render_openmetrics

pytestmark = pytest.mark.fleet


def make_board(now_s: float = 100.0) -> StatusBoard:
    return StatusBoard(
        liveness=LivenessConfig(
            heartbeat_interval_s=0.1, suspect_after_s=0.5, hung_after_s=1.0
        ),
        rate_window_s=10.0,
        now_s=now_s,
    )


def heartbeat(worker_id: int, busy: bool = True, index: int = 0, frames: int = 0) -> dict:
    return {
        "kind": "fleet.worker.heartbeat",
        "worker_id": worker_id,
        "busy": busy,
        "index": index if busy else None,
        "name": f"drive-{index}" if busy else None,
        "frames": frames,
    }


def progress(worker_id: int, index: int, phase: str) -> dict:
    return {
        "kind": "fleet.drive.progress",
        "worker_id": worker_id,
        "index": index,
        "name": f"drive-{index}",
        "phase": phase,
        "status": "ok" if phase == "done" else None,
    }


def ok_outcome(name: str = "d") -> DriveOutcome:
    return DriveOutcome(
        spec={"name": name},
        status="ok",
        summary={"frames": 50},
        latency_ms={
            "kind": "histogram",
            "name": "frame_wall_ms",
            "labels": {},
            "bounds": [1.0, 5.0],
            "bucket_counts": [10, 30, 10],
            "count": 50,
            "sum": 120.0,
            "min": 0.4,
            "max": 9.0,
        },
    )


class TestWorkerLifecycle:
    def test_dispatch_starts_the_clock_before_any_beat(self):
        # A worker that wedges before its first beat must still age into
        # suspect/hung from the moment work was handed to it.
        board = make_board()
        board.ensure_worker(0, 100.0)
        board.mark_dispatch(0, index=3, name="d3", now_s=100.0)
        view = board.workers[0]
        assert view.state(100.2) == "running"
        assert view.state(100.7) == "suspect"
        assert view.state(101.5) == "hung"

    def test_idle_workers_are_never_suspect(self):
        board = make_board()
        board.ensure_worker(0, 100.0)
        assert board.workers[0].state(200.0) == "idle"

    def test_heartbeats_keep_a_running_worker_alive(self):
        board = make_board()
        board.mark_dispatch(0, index=0, name="d0", now_s=100.0)
        for tick in range(1, 20):
            board.ingest(heartbeat(0, frames=tick * 10), 100.0 + tick * 0.1)
        assert board.workers[0].state(101.9) == "running"
        assert board.workers[0].frames == 190
        assert board.workers[0].beats == 19

    def test_progress_done_returns_the_worker_to_idle(self):
        board = make_board()
        board.mark_dispatch(0, index=0, name="d0", now_s=100.0)
        board.ingest(progress(0, 0, "done"), 100.8)
        assert board.workers[0].state(100.8) == "idle"
        assert board.workers[0].drives_done == 1

    def test_respawn_resets_the_slot(self):
        board = make_board()
        board.mark_dispatch(0, index=0, name="d0", now_s=100.0)
        board.ensure_worker(0, 103.0, respawn=True)
        view = board.workers[0]
        assert view.respawns == 1
        assert not view.busy
        assert view.state(103.2) == "idle"


class TestSuspectEscalation:
    def test_take_new_suspects_is_one_shot_per_drive(self):
        board = make_board()
        board.mark_dispatch(0, index=0, name="d0", now_s=100.0)
        board.mark_dispatch(1, index=1, name="d1", now_s=100.0)
        board.ingest(heartbeat(1, index=1), 100.6)  # worker 1 is fine
        fresh = board.take_new_suspects(100.7)
        assert [v.worker_id for v in fresh] == [0]
        assert board.take_new_suspects(100.9) == []  # already flagged
        # a new drive on the slot re-arms the flag
        board.ingest(progress(0, 0, "done"), 100.9)
        board.mark_dispatch(0, index=2, name="d2", now_s=101.0)
        board.ingest(heartbeat(1, index=1), 101.7)  # keep worker 1 alive
        assert [v.worker_id for v in board.take_new_suspects(101.8)] == [0]

    def test_ingest_rejects_non_side_channel_kinds(self):
        board = make_board()
        with pytest.raises(FleetError, match="cannot ingest"):
            board.ingest({"kind": "fleet.run.start", "worker_id": 0}, 100.0)
        with pytest.raises(FleetError, match="vocabulary"):
            board.ingest({"kind": "fleet.party", "worker_id": 0}, 100.0)


class TestSnapshots:
    def test_snapshot_envelope_and_counts(self):
        board = make_board()
        board.mark_dispatch(0, index=0, name="d0", now_s=100.0)
        board.ensure_worker(1, 100.0)
        board.ingest(heartbeat(0, frames=10), 100.9)
        board.record_outcome(ok_outcome(), 101.0)
        snapshot = board.snapshot(
            101.0, backlog=3, capacity=64, submitted=10, rejected=1
        )
        validate_status(snapshot)
        assert snapshot["schema"] == STATUS_SCHEMA
        assert snapshot["schema_version"] == STATUS_SCHEMA_VERSION
        assert snapshot["queue"] == {
            "backlog": 3,
            "capacity": 64,
            "submitted": 10,
            "rejected": 1,
        }
        assert snapshot["drives"]["done"] == 1
        assert snapshot["drives"]["in_flight"] == 1
        assert snapshot["frames_total"] == 50
        assert snapshot["elapsed_s"] == 1.0
        assert set(snapshot["worker_states"]) == set(WORKER_STATES)
        assert snapshot["worker_states"]["running"] == 1
        assert snapshot["worker_states"]["idle"] == 1
        assert snapshot["latency_ms"]["count"] == 50

    def test_latency_histograms_merge_across_outcomes(self):
        board = make_board()
        board.record_outcome(ok_outcome("a"), 100.5)
        board.record_outcome(ok_outcome("b"), 100.9)
        snapshot = board.snapshot(101.0)
        assert snapshot["latency_ms"]["count"] == 100
        assert snapshot["latency_ms"]["bucket_counts"] == [20, 60, 20]

    def test_drives_per_s_uses_the_trailing_window(self):
        board = make_board()
        for k in range(5):
            board.record_outcome(ok_outcome(str(k)), 100.0 + k)
        # Run is 5 s old (younger than the window): clamp to run age.
        assert board.drives_per_s(105.0) == pytest.approx(1.0)
        # 20 s in, only completions younger than 10 s count — none are.
        assert board.drives_per_s(120.0) == 0.0

    def test_unknown_phase_is_rejected(self):
        board = make_board()
        with pytest.raises(FleetError, match="phase"):
            board.snapshot(100.0, phase="paused")
        with pytest.raises(FleetError, match="schema"):
            validate_status({"schema": "something/else"})

    def test_render_status_is_human_readable(self):
        board = make_board()
        board.mark_dispatch(0, index=4, name="drive-4", now_s=100.0)
        board.record_outcome(ok_outcome(), 100.3)
        text = render_status(board.snapshot(100.4, backlog=2, capacity=8))
        assert "fleet status" in text
        assert "phase=running" in text
        assert "2/8 backlog" in text
        assert "#4 drive-4" in text
        assert "1 running" in text


class TestMetricsExposition:
    def test_snapshot_exposes_as_openmetrics(self):
        board = make_board()
        board.mark_dispatch(0, index=0, name="d0", now_s=100.0)
        board.record_outcome(ok_outcome(), 100.5)
        snapshot = board.snapshot(101.0, backlog=2, capacity=8)
        series = status_metrics_snapshot(snapshot)
        text = render_openmetrics(series)
        assert text.endswith("# EOF\n")
        parsed = {s["name"]: s for s in parse_openmetrics(text)}
        assert parsed["fleet_queue_backlog"]["value"] == 2.0
        assert parsed["fleet_drives_in_flight"]["value"] == 1.0
        assert parsed["fleet_frames_total"]["value"] == 50.0
        assert parsed["fleet_frame_wall_ms"]["count"] == 50
        done = [
            s
            for s in parse_openmetrics(text)
            if s["name"] == "fleet_drives_done_total"
        ]
        counts = {d["labels"]["status"]: d["value"] for d in done}
        assert counts["ok"] == 1.0
        assert all(v == 0.0 for s, v in counts.items() if s != "ok")
        states = [
            s for s in parse_openmetrics(text) if s["name"] == "fleet_workers"
        ]
        assert {s["labels"]["state"] for s in states} == set(WORKER_STATES)

    def test_metrics_require_a_valid_snapshot(self):
        with pytest.raises(FleetError):
            status_metrics_snapshot({"schema": "nope"})


class TestWallSegregation:
    def test_wall_status_keys_cover_the_plane_fields(self):
        # The taint rule launders exactly these names; the snapshot's
        # wall-valued fields must all be declared.
        for key in ("elapsed_s", "drives_per_s", "heartbeat_age_s", "drive_age_s"):
            assert key in WALL_KEYS

    def test_lint_config_launders_status_keys(self):
        from repro.analysis.config import LintConfig

        assert WALL_KEYS <= LintConfig().wall_strip_keys
