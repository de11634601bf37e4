"""``DriveOutcome``: the compact, picklable result of one fleet drive.

An outcome is everything the aggregator needs and nothing it does not:
the spec that produced it, a status, the drive's frame-core digest (the
byte-identity comparator from :mod:`repro.core.spec`), the deterministic
drive summary, the monitor verdict, a per-frame wall-latency histogram,
a compact telemetry snapshot, and harvested incident-bundle paths.  It
crosses the worker->scheduler process boundary as a plain dict.

Wall-clock-valued fields (``latency_ms``, ``wall_s``, ``worker_id``, the
wall-derived metric series) and quality-plane fields are named in
:data:`repro.core.spec.NONDETERMINISTIC_KEYS`, so determinism tests (and
the rollup's ``deterministic_view``) can strip them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from repro.core.spec import NONDETERMINISTIC_KEYS
from repro.errors import FleetError

#: Legal outcome statuses.  ``ok`` is the only success; everything else is
#: a contained failure — the run keeps going either way.
OUTCOME_STATUSES = ("ok", "failed", "crashed", "timeout", "rejected")

#: Legal ``hang_verdict`` values for ``timeout`` outcomes: ``hung`` means
#: the worker's heartbeats stopped before the deadline fired; ``deadline``
#: means the worker was still beating — slow, not wedged.
HANG_VERDICTS = ("hung", "deadline")


@dataclass
class DriveOutcome:
    """One drive's result, ready to fold into a fleet rollup.

    Attributes:
        spec: The producing :class:`~repro.core.spec.DriveSpec` as a dict.
        status: One of :data:`OUTCOME_STATUSES`.
        frames_digest: SHA-256 chain over the drive's frame cores
            (``None`` when the drive produced no frames).
        summary: :meth:`DriveReport.summary` output (sim-deterministic).
        verdict: :meth:`Monitor.verdict` output (sim-deterministic when
            the monitor runs with ``wall_clock_slos=False``, the fleet
            default); empty dict for unmonitored drives.
        metrics: Telemetry metric snapshot (plain dicts; empty when the
            drive ran unobserved).
        quality: Per-drive detection-quality summary from the quality
            plane (:func:`repro.quality.records.fold_records` output);
            empty dict for unscored drives.  Sim-deterministic, but
            stripped from the deterministic view so scored and unscored
            fleets compare byte-identically.
        incidents: Incident-bundle paths harvested from the drive.
        error: Failure detail for non-``ok`` statuses.
        latency_ms: ``frame_wall_ms`` histogram dict (wall-clock).
        wall_s: Wall-clock duration of the drive (wall-clock).
        worker_id: Executing worker (scheduling-dependent).
        hang_verdict: For ``timeout`` outcomes with the live plane on:
            ``"hung"`` (heartbeats stopped) or ``"deadline"`` (still
            beating, just slow).  ``None`` otherwise (wall-clock).
        last_heartbeat_age_s: Age of the worker's last heartbeat when the
            timeout was contained; ``None`` when streaming was off
            (wall-clock).
    """

    spec: dict
    status: str
    frames_digest: str | None = None
    summary: dict = field(default_factory=dict)
    verdict: dict = field(default_factory=dict)
    metrics: list = field(default_factory=list)
    quality: dict = field(default_factory=dict)
    incidents: list = field(default_factory=list)
    error: str = ""
    latency_ms: dict | None = None
    wall_s: float | None = None
    worker_id: int | None = None
    hang_verdict: str | None = None
    last_heartbeat_age_s: float | None = None

    def __post_init__(self) -> None:
        if self.status not in OUTCOME_STATUSES:
            raise FleetError(
                f"unknown outcome status {self.status!r} (one of {OUTCOME_STATUSES})"
            )
        if self.hang_verdict is not None and self.hang_verdict not in HANG_VERDICTS:
            raise FleetError(
                f"unknown hang_verdict {self.hang_verdict!r} (one of {HANG_VERDICTS})"
            )

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def name(self) -> str:
        return str(self.spec.get("name", "drive"))

    def to_dict(self) -> dict:
        return {
            "spec": dict(self.spec),
            "status": self.status,
            "frames_digest": self.frames_digest,
            "summary": dict(self.summary),
            "verdict": dict(self.verdict),
            "metrics": list(self.metrics),
            "quality": dict(self.quality),
            "incidents": list(self.incidents),
            "error": self.error,
            "latency_ms": self.latency_ms,
            "wall_s": self.wall_s,
            "worker_id": self.worker_id,
            "hang_verdict": self.hang_verdict,
            "last_heartbeat_age_s": self.last_heartbeat_age_s,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "DriveOutcome":
        known = set(cls.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise FleetError(
                f"unknown DriveOutcome fields: {sorted(unknown)} (known: {sorted(known)})"
            )
        return cls(**dict(data))


def deterministic_metrics(series: Iterable[Mapping]) -> list[dict]:
    """Drop wall-clock-derived and quality-plane series from a snapshot."""
    return [dict(s) for s in series if s.get("name") not in NONDETERMINISTIC_KEYS]


def deterministic_outcome_dict(outcome: "DriveOutcome | Mapping[str, Any]") -> dict:
    """An outcome dict with every wall-clock and quality-plane field stripped.

    What remains is a pure function of the spec: two executions of the
    same spec — different workers, different runs, different machines —
    produce equal deterministic dicts.  The fleet determinism tests
    compare exactly this.
    """
    full = outcome.to_dict() if isinstance(outcome, DriveOutcome) else outcome
    data = {k: v for k, v in full.items() if k not in NONDETERMINISTIC_KEYS}
    data["metrics"] = deterministic_metrics(data.get("metrics", []))
    return data
