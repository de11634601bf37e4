"""Fleet rollups: fold many ``DriveOutcome`` values into one artefact.

The rollup is the fleet's single answer-sheet: counts by status, fleet
frame totals, health/SLO aggregates, merged fault counters, the merged
per-frame wall-latency histogram with p50/p90/p99, harvested incident
paths, and the full outcome list — all under a schema-versioned envelope
(``FLEET_SCHEMA`` / ``FLEET_SCHEMA_VERSION``) written as ``FLEET_*.json``.

Wall-clock- and scheduling-derived sections (``latency_ms``, ``wall``,
``config``, ``events_by_kind``) and the quality-plane section sit under
names in :data:`repro.core.spec.NONDETERMINISTIC_KEYS`, so
:func:`deterministic_view` can strip them:
what remains is a pure function of the spec list, byte-identical between
a sharded run and the sequential inline reference run (the acceptance
test of this subsystem).
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.core.spec import NONDETERMINISTIC_KEYS
from repro.errors import FleetError
from repro.fleet.events import FLEET_EVENT_KINDS
from repro.fleet.outcome import (
    OUTCOME_STATUSES,
    DriveOutcome,
    deterministic_metrics,
    deterministic_outcome_dict,
)
from repro.quality.records import merge_summaries
from repro.telemetry.metrics import merge_snapshots

if TYPE_CHECKING:
    from repro.fleet.scheduler import FleetConfig

FLEET_SCHEMA = "repro.fleet/rollup"
# v2: the required "quality" section (merged per-condition detection
# quality from scored drives; scored_drives == 0 for unscored fleets).
FLEET_SCHEMA_VERSION = 2

#: Keys every rollup must carry (validation contract).
REQUIRED_ROLLUP_KEYS = (
    "schema",
    "schema_version",
    "config",
    "fleet",
    "frames",
    "health",
    "faults",
    "quality",
    "latency_ms",
    "metrics",
    "incidents",
    "events_by_kind",
    "wall",
    "outcomes",
)

#: Drive-summary counters summed fleet-wide into the ``frames`` section.
_FRAME_SUM_KEYS = (
    "frames",
    "vehicle_dropped",
    "pedestrian_dropped",
    "condition_changes",
    "model_swaps",
    "reconfigurations",
    "failed_reconfigurations",
    "degradations",
    "frames_degraded",
    "frames_with_faults",
)


def _as_outcome(value: "DriveOutcome | Mapping") -> DriveOutcome:
    return value if isinstance(value, DriveOutcome) else DriveOutcome.from_dict(value)


def build_rollup(
    outcomes: Sequence["DriveOutcome | Mapping"],
    rejected: Sequence["DriveOutcome | Mapping"] = (),
    events_by_kind: Mapping[str, int] | None = None,
    config: "FleetConfig | None" = None,
    elapsed_s: float | None = None,
) -> dict:
    """Fold drive outcomes (plus admission rejections) into one rollup."""
    folded = [_as_outcome(o) for o in outcomes]
    rejections = [_as_outcome(o) for o in rejected]
    for outcome in rejections:
        if outcome.status != "rejected":
            raise FleetError(
                f"rejected list carries status {outcome.status!r} (want 'rejected')"
            )

    by_status: dict[str, int] = {}
    for outcome in folded:
        by_status[outcome.status] = by_status.get(outcome.status, 0) + 1

    frames = {key: 0 for key in _FRAME_SUM_KEYS}
    for outcome in folded:
        for key in _FRAME_SUM_KEYS:
            frames[key] += int(outcome.summary.get(key, 0))

    health_by_state: dict[str, int] = {}
    violations_by_slo: dict[str, int] = {}
    violations_total = 0
    breached = 0
    triggers = 0
    incidents_count = 0
    for outcome in folded:
        verdict = outcome.verdict
        if not verdict:
            continue
        state = str(verdict.get("state", "unknown"))
        health_by_state[state] = health_by_state.get(state, 0) + 1
        drive_violations = int(verdict.get("violations", 0))
        violations_total += drive_violations
        if drive_violations:
            breached += 1
        for slo, n in dict(verdict.get("violations_by_slo", {})).items():
            violations_by_slo[slo] = violations_by_slo.get(slo, 0) + int(n)
        triggers += int(verdict.get("triggers", 0))
        incidents_count += int(verdict.get("incidents", 0))
    monitored_drives = sum(1 for o in folded if o.verdict)

    latency = merge_snapshots(
        *([o.latency_ms] for o in folded if o.latency_ms is not None)
    )
    metrics = merge_snapshots(
        *(deterministic_metrics(o.metrics) for o in folded if o.metrics)
    )
    incident_paths = [path for o in folded for path in o.incidents]

    wall_s_values = [o.wall_s for o in folded if o.wall_s is not None]
    elapsed = float(elapsed_s) if elapsed_s is not None else sum(wall_s_values)
    executed = len(folded)

    # The live plane's hung-vs-deadline split for timeout outcomes.
    # "unknown" counts timeouts contained with streaming off (no
    # heartbeats, so no verdict to give).
    timeouts_by_verdict: dict[str, int] = {}
    for outcome in folded:
        if outcome.status != "timeout":
            continue
        verdict_key = outcome.hang_verdict or "unknown"
        timeouts_by_verdict[verdict_key] = timeouts_by_verdict.get(verdict_key, 0) + 1

    return {
        "schema": FLEET_SCHEMA,
        "schema_version": FLEET_SCHEMA_VERSION,
        "config": asdict(config) if config is not None else {},
        "fleet": {
            "drives": executed,
            "ok": by_status.get("ok", 0),
            "by_status": by_status,
            "rejected": len(rejections),
        },
        "frames": frames,
        "health": {
            "monitored_drives": monitored_drives,
            "by_state": health_by_state,
            "slo_violations": violations_total,
            "slo_violations_by_slo": violations_by_slo,
            "breach_rate": breached / monitored_drives if monitored_drives else 0.0,
            "triggers": triggers,
            "incidents": incidents_count,
        },
        "faults": {
            "frames_with_faults": frames["frames_with_faults"],
            "degradations": frames["degradations"],
            "frames_degraded": frames["frames_degraded"],
            "failed_reconfigurations": frames["failed_reconfigurations"],
        },
        # Merged detection quality over every scored drive.  The fold is
        # shard-order-independent (ConfusionCounts.merge is associative
        # and commutative), so sharded and inline runs agree exactly.
        "quality": merge_summaries(o.quality for o in folded if o.quality),
        "latency_ms": latency[0] if latency else None,
        "metrics": metrics,
        "incidents": incident_paths,
        "events_by_kind": dict(events_by_kind or {}),
        "wall": {
            "elapsed_s": elapsed,
            "drive_wall_s": sum(wall_s_values),
            "drives_per_s": executed / elapsed if elapsed > 0 else 0.0,
            "timeouts_by_verdict": timeouts_by_verdict,
        },
        "outcomes": [o.to_dict() for o in folded] + [o.to_dict() for o in rejections],
    }


def deterministic_view(rollup: Mapping) -> dict:
    """The rollup minus everything wall-clock- or scheduling-dependent.

    Two runs of the same spec list — different worker counts, machines,
    or wall speeds — produce equal deterministic views.  The fleet
    determinism tests compare exactly this (sharded vs inline).
    """
    view = {k: v for k, v in rollup.items() if k not in NONDETERMINISTIC_KEYS}
    view["outcomes"] = [
        deterministic_outcome_dict(o) for o in rollup.get("outcomes", [])
    ]
    return view


def validate_rollup(rollup: Mapping) -> None:
    """Reject structurally broken rollups (schema gate for readers)."""
    if not isinstance(rollup, Mapping):
        raise FleetError(f"rollup must be a mapping, got {type(rollup).__name__}")
    missing = [key for key in REQUIRED_ROLLUP_KEYS if key not in rollup]
    if missing:
        raise FleetError(f"rollup is missing required keys: {missing}")
    if rollup["schema"] != FLEET_SCHEMA:
        raise FleetError(
            f"unknown rollup schema {rollup['schema']!r} (want {FLEET_SCHEMA!r})"
        )
    if rollup["schema_version"] != FLEET_SCHEMA_VERSION:
        raise FleetError(
            f"unsupported rollup schema version {rollup['schema_version']!r} "
            f"(this reader understands {FLEET_SCHEMA_VERSION})"
        )
    for status in rollup["fleet"].get("by_status", {}):
        if status not in OUTCOME_STATUSES:
            raise FleetError(f"rollup carries unknown outcome status {status!r}")
    for kind in rollup["events_by_kind"]:
        if kind not in FLEET_EVENT_KINDS:
            raise FleetError(f"rollup carries unknown fleet event kind {kind!r}")
    for outcome in rollup["outcomes"]:
        _as_outcome(outcome)  # field + status validation


def write_rollup(rollup: Mapping, path: "str | Path") -> Path:
    """Validate and write one ``FLEET_*.json`` artefact."""
    validate_rollup(rollup)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(rollup, indent=2, sort_keys=True) + "\n")
    return path


def load_rollup(path: "str | Path") -> dict:
    """Read and validate a rollup artefact."""
    try:
        rollup = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise FleetError(f"cannot load rollup {path}: {exc}") from exc
    validate_rollup(rollup)
    return rollup


def render_rollup(rollup: Mapping) -> str:
    """A compact human-readable report of one rollup."""
    fleet = rollup["fleet"]
    health = rollup["health"]
    wall = rollup["wall"]
    lines = [
        f"fleet rollup (schema v{rollup['schema_version']})",
        f"  drives: {fleet['drives']} "
        f"({', '.join(f'{k}={v}' for k, v in sorted(fleet['by_status'].items())) or 'none'};"
        f" rejected={fleet['rejected']})",
        f"  frames: {rollup['frames']['frames']} "
        f"(degraded={rollup['frames']['frames_degraded']}, "
        f"with_faults={rollup['frames']['frames_with_faults']})",
        f"  health: breach_rate={health['breach_rate']:.3f} "
        f"violations={health['slo_violations']} "
        f"incidents={health['incidents']} "
        f"states={dict(sorted(health['by_state'].items())) or '{}'}",
    ]
    latency = rollup.get("latency_ms")
    if latency:
        percentiles = latency.get("percentiles", {})
        shown = " ".join(
            f"{name}={percentiles[name]:.2f}ms"
            for name in ("p50", "p90", "p99")
            if name in percentiles
        )
        lines.append(f"  frame latency: {shown or 'n/a'} (n={latency.get('count', 0)})")
    lines.append(
        f"  wall: {wall['elapsed_s']:.2f}s elapsed, "
        f"{wall['drives_per_s']:.2f} drives/s"
    )
    quality = rollup.get("quality") or {}
    if quality.get("scored_drives"):
        overall = quality.get("overall") or {}
        by_condition = quality.get("by_condition") or {}
        parts = [
            f"recall={overall.get('recall', 0.0):.3f}",
            f"precision={overall.get('precision', 0.0):.3f}",
        ]
        parts.extend(
            f"{condition}={row.get('recall', 0.0):.3f}"
            for condition, row in sorted(by_condition.items())
        )
        lines.append(
            f"  quality ({quality['scored_drives']} scored, "
            f"{quality.get('sampled_frames', 0)} frames): " + " ".join(parts)
        )
    timeouts = wall.get("timeouts_by_verdict") or {}
    if timeouts:
        lines.append(
            "  timeouts: "
            + ", ".join(f"{v} {k}" for k, v in sorted(timeouts.items()))
        )
    if rollup["incidents"]:
        lines.append(f"  incident bundles: {len(rollup['incidents'])}")
    return "\n".join(lines)
