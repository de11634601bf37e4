"""The declared vocabulary of fleet scheduler events.

Mirrors :data:`repro.monitor.events.MONITOR_EVENT_KINDS`: every typed
event the fleet scheduler emits (through
:meth:`~repro.fleet.scheduler.FleetScheduler.fleet_event`) must use a kind
from this set, so rollup readers, the fleet CLI report, and the acceptance
tests can rely on the names being exhaustive.  The ``event-vocabulary``
lint rule enforces the same contract statically;
:func:`check_fleet_event_kind` enforces it at runtime.
"""

from __future__ import annotations

from repro.errors import FleetError

#: Legal ``FleetScheduler.fleet_event`` kinds.
FLEET_EVENT_KINDS: frozenset[str] = frozenset(
    {
        # A fleet run started draining the admission queue.
        "fleet.run.start",
        # The run finished; every submitted drive has an outcome.
        "fleet.run.done",
        # One drive spec was admitted to the bounded submission queue.
        "fleet.submit",
        # Admission control rejected a spec (queue full / run finished).
        "fleet.reject",
        # A worker began executing one drive.
        "fleet.drive.start",
        # A drive finished and its outcome was recorded.
        "fleet.drive.done",
        # A worker process was spawned (initial shard or a respawn).
        "fleet.worker.spawn",
        # A worker process died while executing a drive; the drive was
        # recorded as a crashed outcome and the worker replaced.
        "fleet.worker.crash",
        # A drive overran the per-drive wall-clock deadline; its worker
        # was terminated and the drive recorded as a timeout outcome.
        "fleet.worker.timeout",
        # A fleet rollup artefact was written to disk.
        "fleet.rollup.write",
        # A worker's periodic liveness beat (side-channel; counted, not
        # appended to the scheduler event log).
        "fleet.worker.heartbeat",
        # A worker reported per-drive lifecycle progress (started /
        # finished executing a spec) over the side channel.
        "fleet.drive.progress",
        # A running worker's heartbeats went quiet past the suspect
        # threshold — early warning before the wall deadline fires.
        "fleet.worker.suspect",
        # The scheduler published a FleetStatus snapshot (live plane).
        "fleet.status.snapshot",
        # Per-drive span dumps were stitched into one fleet trace.
        "fleet.trace.stitch",
    }
)


def check_fleet_event_kind(kind: str) -> None:
    """Reject event kinds outside the declared vocabulary (runtime gate)."""
    if kind not in FLEET_EVENT_KINDS:
        raise FleetError(
            f"fleet event kind {kind!r} is not in the declared vocabulary; "
            "add it to repro.fleet.events.FLEET_EVENT_KINDS first"
        )
