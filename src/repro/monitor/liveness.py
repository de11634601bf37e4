"""Heartbeat-driven liveness: is a worker alive, suspect, or hung?

A worker that is *slow* still heartbeats; a worker that is *hung* went
silent mid-drive.  The fleet scheduler's wall deadline alone cannot tell
the two apart — both simply fail to return an outcome in time.  This
module is the pure state machine that can: feed it heartbeat arrival
times (scheduler-side clock, never the sender's) and ask for the state
at any instant.

The thresholds escalate: a worker is ``alive`` while its last beat is
younger than ``suspect_after_s``, ``suspect`` once it crosses that line,
and ``hung`` past ``hung_after_s``.  The scheduler surfaces the suspect
transition as a ``fleet.worker.suspect`` event (early warning) and uses
the hung/not-hung answer at deadline time as the timeout's
``hang_verdict``.

Everything here is wall-clock territory by design — liveness is a
property of the *execution*, not the simulation — so none of these
values may reach a deterministic sink; the fleet layer keeps them behind
the ``WALL_*`` segregation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError

LIVENESS_STATES = ("alive", "suspect", "hung")

DEFAULT_HEARTBEAT_INTERVAL_S = 0.2
DEFAULT_SUSPECT_AFTER_S = 1.0
DEFAULT_HUNG_AFTER_S = 3.0


@dataclass(frozen=True)
class LivenessConfig:
    """Thresholds for the heartbeat state machine.

    ``heartbeat_interval_s`` is the *expected* cadence (what the workers
    are asked to emit); the two ``*_after_s`` thresholds are judged
    against heartbeat age and must leave headroom above the interval, or
    a perfectly healthy worker would flap into ``suspect`` between two
    on-time beats.
    """

    heartbeat_interval_s: float = DEFAULT_HEARTBEAT_INTERVAL_S
    suspect_after_s: float = DEFAULT_SUSPECT_AFTER_S
    hung_after_s: float = DEFAULT_HUNG_AFTER_S

    def __post_init__(self) -> None:
        if self.heartbeat_interval_s <= 0:
            raise ConfigurationError(
                f"heartbeat_interval_s must be positive, got {self.heartbeat_interval_s}"
            )
        if self.suspect_after_s <= self.heartbeat_interval_s:
            raise ConfigurationError(
                f"suspect_after_s ({self.suspect_after_s}) must exceed "
                f"heartbeat_interval_s ({self.heartbeat_interval_s})"
            )
        if self.hung_after_s <= self.suspect_after_s:
            raise ConfigurationError(
                f"hung_after_s ({self.hung_after_s}) must exceed "
                f"suspect_after_s ({self.suspect_after_s})"
            )


class WorkerLiveness:
    """Liveness for one worker, judged purely from observation times.

    The caller supplies every timestamp (no clock is read here), which
    keeps the machine deterministic under test and pins the semantics to
    *arrival* time on the observer's clock — a worker cannot vouch for
    its own liveness with a stale self-reported timestamp.
    """

    def __init__(self, config: LivenessConfig, now_s: float = 0.0):
        self.config = config
        self._last_beat_s = now_s

    def observe(self, now_s: float) -> None:
        """Record a heartbeat arrival; time never runs backwards."""
        self._last_beat_s = max(self._last_beat_s, now_s)

    def reset(self, now_s: float) -> None:
        """Restart the clock (dispatch of new work, worker respawn)."""
        self._last_beat_s = now_s

    def age_s(self, now_s: float) -> float:
        """Seconds since the last observed beat (never negative)."""
        return max(0.0, now_s - self._last_beat_s)

    def state(self, now_s: float) -> str:
        age_s = self.age_s(now_s)
        if age_s >= self.config.hung_after_s:
            return "hung"
        if age_s >= self.config.suspect_after_s:
            return "suspect"
        return "alive"
