"""Cross-process trace stitching: one Chrome trace, stable lanes.

The stitched document merges per-drive span dumps (written by workers)
with the scheduler's own spans on one shared wall epoch.  The lane
contract pinned here: the scheduler is pid 1, worker ``w`` is pid
``w + 2`` keyed by worker *id* — so a crash-respawned slot keeps its
lane — and within a pid, tids are assigned in sorted track-name order.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.errors import FleetError
from repro.fleet.scheduler import FleetConfig, FleetScheduler
from repro.fleet.specs import sweep_specs
from repro.fleet.trace import (
    SCHEDULER_PID,
    load_drive_dumps,
    stitch_fleet_trace,
    worker_pid,
)
from repro.telemetry.exporters import load_dump

pytestmark = pytest.mark.fleet


def run_sharded(tmp_path, specs, workers=2):
    trace_dir = tmp_path / "traces"
    trace_dir.mkdir()
    scheduler = FleetScheduler(
        FleetConfig(workers=workers, drive_timeout_s=30.0, trace_dir=str(trace_dir))
    )
    scheduler.submit_all(specs)
    outcomes = scheduler.run()
    return scheduler, trace_dir, outcomes


class TestWorkerPid:
    def test_lane_assignment_is_stable_and_keyed_by_worker_id(self):
        assert worker_pid(None) == SCHEDULER_PID
        assert worker_pid(0) == 2
        assert worker_pid(3) == 5

    def test_missing_trace_dir_is_an_error(self, tmp_path):
        with pytest.raises(FleetError, match="does not exist"):
            load_drive_dumps(tmp_path / "nope")


class TestStitching:
    def test_stitched_trace_merges_drives_and_scheduler_spans(self, tmp_path):
        specs = sweep_specs(4, fleet_seed=21, duration_s=1.0)
        scheduler, trace_dir, outcomes = run_sharded(tmp_path, specs)
        assert all(o.ok for o in outcomes)
        assert len(load_drive_dumps(trace_dir)) == 4

        out = tmp_path / "fleet-trace.json"
        n_events = stitch_fleet_trace(
            trace_dir, out, scheduler_telemetry=scheduler.telemetry
        )
        document = json.loads(out.read_text())
        events = document["traceEvents"]
        assert n_events == len(events)

        spans = [e for e in events if e["ph"] == "X"]
        names = {e["name"] for e in spans}
        # Scheduler-side lifecycle spans sit next to worker drive spans.
        assert "fleet.run" in names
        assert "fleet.queue.wait" in names
        assert "fleet.worker.lifetime" in names
        assert "fleet.reap" in names
        assert any(name.startswith("drive.") for name in names)

        # One shared wall epoch: every timestamp is relative and sane.
        assert all(e["ts"] >= 0 for e in spans)
        assert min(e["ts"] for e in spans) == 0

        # Scheduler lane + one lane per worker id, correctly labelled.
        process_names = {
            e["pid"]: e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert process_names[SCHEDULER_PID] == "fleet scheduler"
        assert process_names[worker_pid(0)] == "worker 0"
        assert process_names[worker_pid(1)] == "worker 1"

        # tids are per-(pid, track) and every lane is named exactly once.
        thread_names = [
            (e["pid"], e["tid"])
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        ]
        assert len(thread_names) == len(set(thread_names))
        assert all(tid >= 1 for _, tid in thread_names)

        # The document reloads like any Chrome export.
        dump = load_dump(str(out))
        assert dump.meta["source"] == "fleet-trace"
        assert dump.meta["drives"] == 4
        assert len(dump.spans) == len(spans)

    def test_lanes_survive_worker_respawn(self, tmp_path):
        # A chaos crash kills worker processes; the slot respawns under
        # the same worker id, so the stitched trace keeps one pid lane
        # per slot — generations stack inside it instead of minting a
        # fresh process per respawn.
        specs = list(sweep_specs(5, fleet_seed=22, duration_s=1.0))
        specs[1] = dataclasses.replace(specs[1], chaos="crash")
        scheduler, trace_dir, outcomes = run_sharded(tmp_path, specs)
        assert [o.status for o in outcomes].count("crashed") == 1
        assert scheduler.events_by_kind["fleet.worker.spawn"] == 3  # 2 + respawn

        out = tmp_path / "fleet-trace.json"
        stitch_fleet_trace(trace_dir, out, scheduler_telemetry=scheduler.telemetry)
        events = json.loads(out.read_text())["traceEvents"]

        lifetimes = [
            e for e in events if e["ph"] == "X" and e["name"] == "fleet.worker.lifetime"
        ]
        assert len(lifetimes) == 3
        by_worker: dict[int, set[int]] = {}
        generations: dict[int, set[int]] = {}
        for e in lifetimes:
            wid = int(e["args"]["worker"])
            by_worker.setdefault(wid, set()).add(e["pid"])
            generations.setdefault(wid, set()).add(int(e["args"]["generation"]))
        # Both generations of the crashed slot share one pid lane.
        assert all(len(pids) == 1 for pids in by_worker.values())
        assert {wid: pids.pop() for wid, pids in by_worker.items()} == {
            0: worker_pid(0),
            1: worker_pid(1),
        }
        assert sorted(g for gens in generations.values() for g in gens) == [1, 1, 2]

        # Same-named tracks map to the same tid on both sides of the
        # respawn: drive spans from generation 1 and 2 share lanes.
        tid_of = {}
        for e in events:
            if e["ph"] != "X":
                continue
            key = (e["pid"], e["name"])
            tid_of.setdefault(key, set()).add(e["tid"])
        for key, tids in tid_of.items():
            assert len(tids) == 1, f"track {key} rendered on multiple tids {tids}"

    def test_empty_trace_dir_stitches_to_an_empty_document(self, tmp_path):
        empty = tmp_path / "traces"
        empty.mkdir()
        out = tmp_path / "fleet-trace.json"
        assert stitch_fleet_trace(empty, out) == 0
        assert json.loads(out.read_text())["traceEvents"] == []
