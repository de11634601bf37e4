"""The live plane's acceptance tests: non-perturbation and hang verdicts.

Two contracts are pinned here.  First, the observability plane is a pure
side channel: a 64-drive sharded sweep produces a byte-identical
deterministic rollup view with streaming on, streaming off, and inline —
heartbeats, snapshots, and expositions change *when* things are
observed, never *what* the drives compute.  Second, heartbeat liveness
splits the old catch-all timeout: a chaos ``hang`` (beats stop) is
reported ``hung``, a chaos ``slow`` (beats keep flowing) ``deadline``.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.fleet import scheduler as scheduler_module
from repro.fleet.outcome import HANG_VERDICTS
from repro.fleet.rollup import deterministic_view, validate_rollup
from repro.fleet.scheduler import FleetConfig, FleetScheduler, run_fleet
from repro.fleet.specs import sweep_specs
from repro.fleet.status import validate_status
from repro.monitor.liveness import LivenessConfig

pytestmark = pytest.mark.fleet


def canonical(view: dict) -> str:
    return json.dumps(view, sort_keys=True)


@pytest.fixture()
def tight_liveness(monkeypatch):
    """Tight liveness for chaos tests: beats every 50 ms, suspect after
    300 ms of silence, hung after 600 ms, so a silent worker is judged
    hung well before the 2 s drive deadline of :func:`chaos_config`."""
    monkeypatch.setattr(
        scheduler_module,
        "LIVENESS",
        LivenessConfig(heartbeat_interval_s=0.05, suspect_after_s=0.3, hung_after_s=0.6),
    )


def chaos_config(**overrides) -> FleetConfig:
    defaults = dict(workers=2, drive_timeout_s=2.0, status_interval_s=0.2)
    defaults.update(overrides)
    return FleetConfig(**defaults)


class TestNonPerturbation:
    def test_64_drives_streaming_on_off_inline_byte_identical(self, tmp_path):
        # The acceptance criterion of this PR: the plane must not perturb
        # the computation.  Same specs, three executions — live plane on
        # (with status + exposition outputs), plane off, and the inline
        # sequential reference — one deterministic view.
        specs = sweep_specs(64, fleet_seed=2027, duration_s=1.0)
        status_path = tmp_path / "status.jsonl"
        metrics_path = tmp_path / "fleet.om"
        on = run_fleet(
            specs,
            FleetConfig(workers=4, streaming=True, status_interval_s=0.2),
            status_out=status_path,
            metrics_out=metrics_path,
        )
        off = run_fleet(specs, FleetConfig(workers=4, streaming=False))
        inline = run_fleet(specs, FleetConfig(workers=0))
        for rollup in (on, off, inline):
            validate_rollup(rollup)
            assert rollup["fleet"]["by_status"] == {"ok": 64}
        assert (
            canonical(deterministic_view(on))
            == canonical(deterministic_view(off))
            == canonical(deterministic_view(inline))
        )
        # ... and the plane genuinely ran while producing that identity:
        snapshots = [
            json.loads(line) for line in status_path.read_text().splitlines() if line
        ]
        assert snapshots, "streaming run published no status snapshots"
        for snapshot in snapshots:
            validate_status(snapshot)
        assert snapshots[-1]["phase"] == "done"
        assert snapshots[-1]["drives"]["done"] == 64
        assert metrics_path.read_text().rstrip().endswith("# EOF")
        assert on["events_by_kind"]["fleet.worker.heartbeat"] > 0
        assert on["events_by_kind"]["fleet.drive.progress"] == 2 * 64
        # The off/inline runs carry no side-channel event kinds at all.
        assert "fleet.worker.heartbeat" not in off["events_by_kind"]
        assert "fleet.worker.heartbeat" not in inline["events_by_kind"]


@pytest.mark.usefixtures("tight_liveness")
class TestHangVerdicts:
    def test_chaos_hang_is_judged_hung(self):
        # A hung worker wedges its emitter: beats stop, the liveness age
        # crosses hung_after_s, and the timeout outcome says so.
        specs = list(sweep_specs(4, fleet_seed=9, duration_s=1.0))
        specs[1] = dataclasses.replace(specs[1], chaos="hang")
        scheduler = FleetScheduler(chaos_config())
        scheduler.submit_all(specs)
        outcomes = scheduler.run()
        assert outcomes[1].status == "timeout"
        assert outcomes[1].hang_verdict == "hung"
        assert outcomes[1].last_heartbeat_age_s is not None
        assert outcomes[1].last_heartbeat_age_s >= 0.6
        assert [o.status for o in outcomes].count("ok") == 3
        # The suspect early warning fired before the deadline did.
        assert scheduler.events_by_kind.get("fleet.worker.suspect", 0) >= 1
        suspects = [
            e for e in scheduler.events if e["kind"] == "fleet.worker.suspect"
        ]
        assert suspects[0]["index"] == 1
        assert suspects[0]["heartbeat_age_s"] >= 0.3
        timeout_events = [
            e for e in scheduler.events if e["kind"] == "fleet.worker.timeout"
        ]
        assert timeout_events[0]["hang_verdict"] == "hung"

    def test_chaos_slow_is_judged_deadline(self):
        # A slow worker keeps beating: same deadline, different verdict.
        specs = list(sweep_specs(4, fleet_seed=9, duration_s=1.0))
        specs[2] = dataclasses.replace(specs[2], chaos="slow")
        scheduler = FleetScheduler(chaos_config())
        scheduler.submit_all(specs)
        outcomes = scheduler.run()
        assert outcomes[2].status == "timeout"
        assert outcomes[2].hang_verdict == "deadline"
        assert outcomes[2].last_heartbeat_age_s is not None
        assert outcomes[2].last_heartbeat_age_s < 0.6
        assert [o.status for o in outcomes].count("ok") == 3

    def test_verdicts_reach_the_rollup_wall_section(self):
        specs = list(sweep_specs(5, fleet_seed=9, duration_s=1.0))
        specs[1] = dataclasses.replace(specs[1], chaos="hang")
        specs[3] = dataclasses.replace(specs[3], chaos="slow")
        rollup = run_fleet(specs, chaos_config())
        validate_rollup(rollup)
        assert rollup["wall"]["timeouts_by_verdict"] == {"hung": 1, "deadline": 1}
        # ... and the verdict fields are wall territory: stripped from the
        # deterministic view's outcomes.
        for outcome in deterministic_view(rollup)["outcomes"]:
            assert "hang_verdict" not in outcome
            assert "last_heartbeat_age_s" not in outcome

    def test_streaming_off_timeouts_have_no_verdict(self):
        specs = list(sweep_specs(3, fleet_seed=9, duration_s=1.0))
        specs[1] = dataclasses.replace(specs[1], chaos="hang")
        rollup = run_fleet(specs, chaos_config(streaming=False))
        assert rollup["wall"]["timeouts_by_verdict"] == {"unknown": 1}
        (timeout,) = [o for o in rollup["outcomes"] if o["status"] == "timeout"]
        assert timeout["hang_verdict"] is None
        assert timeout["last_heartbeat_age_s"] is None

    def test_hang_verdict_vocabulary_is_validated(self):
        from repro.errors import FleetError
        from repro.fleet.outcome import DriveOutcome

        assert set(HANG_VERDICTS) == {"hung", "deadline"}
        with pytest.raises(FleetError, match="hang_verdict"):
            DriveOutcome(spec={"name": "x"}, status="timeout", hang_verdict="wedged")


class TestStatusListeners:
    def test_listeners_see_running_then_done_phases(self):
        specs = sweep_specs(6, fleet_seed=3, duration_s=1.0)
        seen: list[dict] = []
        scheduler = FleetScheduler(
            FleetConfig(workers=2, status_interval_s=0.1)
        )
        scheduler.status_listeners.append(seen.append)
        scheduler.submit_all(specs)
        scheduler.run()
        assert seen, "no snapshots published"
        assert seen[-1]["phase"] == "done"
        assert seen[-1]["drives"]["done"] == 6
        assert scheduler.last_status is seen[-1]
        # Snapshot cadence events were counted, not appended per beat.
        assert scheduler.events_by_kind["fleet.status.snapshot"] == len(seen)
        assert all(
            e["kind"] != "fleet.worker.heartbeat" for e in scheduler.events
        )
