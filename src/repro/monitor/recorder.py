"""The flight recorder: a bounded ring of frame snapshots + trigger windows.

Aviation semantics: the recorder continuously overwrites a small ring of
per-frame snapshots; when a *trigger* fires (a fault, a failed
reconfiguration, a CRITICAL health transition), the ring's newest
``pre_roll`` snapshots are frozen, the next ``post_roll`` frames are
captured live, and the whole window becomes one :class:`IncidentWindow` —
the moments *around* the failure, not just the failure itself.

Triggers that land while a window is still capturing post-roll fold into
the open incident rather than opening a second one; after an incident
closes, ``cooldown_frames`` frames must pass before a new trigger arms the
recorder again (a fault storm produces a handful of bundles, not one per
firing).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ConfigurationError


@dataclass
class FrameSnapshot:
    """Everything the recorder keeps about one frame.

    ``record`` is the *deterministic* core — the frame's audit-trail fields
    as produced by the drive loop — and is the part an ``incident replay``
    byte-verifies.  The remaining fields are observability context (host
    wall time, health, recent typed events, metric deltas) that a replay on
    different hardware is not expected to reproduce.
    """

    record: dict[str, Any]
    wall_ms: float | None = None
    health: str = "ok"
    violations: tuple[str, ...] = ()
    zynq_events: tuple[dict, ...] = ()
    metric_deltas: dict[str, float] = field(default_factory=dict)

    @property
    def index(self) -> int:
        return int(self.record["index"])

    @property
    def time_s(self) -> float:
        return float(self.record["time_s"])

    def to_dict(self) -> dict:
        return {
            "record": dict(self.record),
            "wall_ms": self.wall_ms,
            "health": self.health,
            "violations": list(self.violations),
            "zynq_events": [dict(e) for e in self.zynq_events],
            "metric_deltas": dict(self.metric_deltas),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FrameSnapshot":
        return cls(
            record=dict(data["record"]),
            wall_ms=data.get("wall_ms"),
            health=data.get("health", "ok"),
            violations=tuple(data.get("violations", ())),
            zynq_events=tuple(dict(e) for e in data.get("zynq_events", ())),
            metric_deltas=dict(data.get("metric_deltas", {})),
        )


@dataclass(frozen=True)
class TriggerEvent:
    """Why the recorder froze a window."""

    kind: str          # "fault", "reconfig-failure", "health-critical", ...
    time_s: float
    frame_index: int
    detail: str = ""

    def label(self) -> str:
        base = f"trigger:{self.kind}"
        return f"{base}({self.detail})" if self.detail else base

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "time_s": self.time_s,
            "frame_index": self.frame_index,
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TriggerEvent":
        return cls(
            kind=data["kind"],
            time_s=data["time_s"],
            frame_index=data["frame_index"],
            detail=data.get("detail", ""),
        )


@dataclass
class IncidentWindow:
    """One frozen pre/post-roll window plus the triggers that caused it."""

    snapshots: list[FrameSnapshot]
    triggers: list[TriggerEvent]

    @property
    def start_index(self) -> int:
        return self.snapshots[0].index

    @property
    def end_index(self) -> int:
        return self.snapshots[-1].index


class FlightRecorder:
    """Bounded ring buffer of :class:`FrameSnapshot` with trigger freezing.

    Args:
        capacity: Ring size (must hold at least the pre-roll).
        pre_roll: Frames *before* the trigger kept in a window.
        post_roll: Frames *after* the trigger captured before freezing.
        cooldown_frames: Frames after an incident closes during which new
            triggers are ignored (counted, not recorded).
        max_incidents: Hard cap on windows per recorder lifetime.

    A window closes in :meth:`push` (post-roll complete), :meth:`flush`
    (end of drive) or, with ``post_roll=0``, in :meth:`trigger`; the first
    two return it, and every closed window is on :attr:`incidents`.
    """

    def __init__(
        self,
        capacity: int = 512,
        pre_roll: int = 32,
        post_roll: int = 16,
        cooldown_frames: int = 64,
        max_incidents: int = 16,
    ):
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        if pre_roll < 0 or post_roll < 0:
            raise ConfigurationError("pre_roll and post_roll must be >= 0")
        if pre_roll > capacity:
            raise ConfigurationError(
                f"pre_roll ({pre_roll}) cannot exceed capacity ({capacity})"
            )
        if cooldown_frames < 0:
            raise ConfigurationError("cooldown_frames must be >= 0")
        if max_incidents < 1:
            raise ConfigurationError("max_incidents must be >= 1")
        self.capacity = capacity
        self.pre_roll = pre_roll
        self.post_roll = post_roll
        self.cooldown_frames = cooldown_frames
        self.max_incidents = max_incidents
        self.ring: deque[FrameSnapshot] = deque(maxlen=capacity)
        self.frames_seen = 0
        self.incidents: list[IncidentWindow] = []
        self.triggers_suppressed = 0
        self._open: IncidentWindow | None = None
        self._post_remaining = 0
        self._cooldown_remaining = 0

    @property
    def capturing(self) -> bool:
        """True while an incident window is collecting post-roll frames."""
        return self._open is not None

    def push(self, snapshot: FrameSnapshot) -> IncidentWindow | None:
        """Record one frame; returns a window when one just closed."""
        self.ring.append(snapshot)
        self.frames_seen += 1
        if self._cooldown_remaining > 0:
            self._cooldown_remaining -= 1
        if self._open is not None:
            self._open.snapshots.append(snapshot)
            self._post_remaining -= 1
            if self._post_remaining <= 0:
                return self._close()
        return None

    def trigger(self, event: TriggerEvent) -> bool:
        """Arm (or extend) an incident window; True when accepted.

        The trigger is attributed to the most recent pushed frame; the
        pre-roll is lifted from the ring at trigger time so later pushes
        cannot evict it.
        """
        if self._open is not None:
            # Fold into the open incident: one window, many causes.
            self._open.triggers.append(event)
            return True
        if self._cooldown_remaining > 0 or len(self.incidents) >= self.max_incidents:
            self.triggers_suppressed += 1
            return False
        pre = list(self.ring)[-self.pre_roll:] if self.pre_roll else []
        self._open = IncidentWindow(snapshots=pre, triggers=[event])
        self._post_remaining = self.post_roll
        if self.post_roll == 0:
            self._close()
        return True

    def flush(self) -> IncidentWindow | None:
        """Close a still-capturing window (end of drive truncates post-roll)."""
        if self._open is None:
            return None
        return self._close()

    def _close(self) -> IncidentWindow:
        window = self._open
        assert window is not None
        self._open = None
        self._post_remaining = 0
        self._cooldown_remaining = self.cooldown_frames
        self.incidents.append(window)
        return window
