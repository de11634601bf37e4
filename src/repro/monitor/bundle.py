"""Schema-versioned incident bundles: one directory per incident.

A bundle is the replayable record of one incident window::

    incident-000-fault/
        manifest.json    # schema version, provenance, replay inputs
        records.jsonl    # frame / trigger / violation / transition /
                         # span / metric records, one JSON object per line

The manifest carries everything :func:`repro.monitor.replay.replay_bundle`
needs to re-run the drive deterministically — the lux-trace knots, the
sensor parameters and seed, the full fault-plan specs, and the system
configuration — plus the version stamps (bundle schema, package version,
best-effort git revision) that make an old bundle auditable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.errors import ConfigurationError
from repro.monitor.recorder import FrameSnapshot, TriggerEvent

#: Bump on any incompatible change to manifest/records shapes.  Version 2
#: stores each config in its own dict form: ``monitor`` is
#: ``MonitorConfig.to_dict()``, ``drive.system`` ``SystemConfig.to_dict()``
#: and ``drive.fault_plan`` ``FaultPlan.to_dict()``.
BUNDLE_SCHEMA_VERSION = 2

MANIFEST_NAME = "manifest.json"
RECORDS_NAME = "records.jsonl"


def git_revision(start: Path | None = None) -> str | None:
    """Best-effort repository revision without spawning a subprocess.

    Walks up from ``start`` looking for ``.git/HEAD`` and resolves one
    level of symbolic ref.  Returns ``None`` outside a git checkout (e.g.
    an installed package) — provenance is best-effort, never an error.
    """
    current = (start or Path(__file__)).resolve()
    for parent in [current, *current.parents]:
        head = parent / ".git" / "HEAD"
        try:
            if not head.is_file():
                continue
            content = head.read_text(encoding="utf-8").strip()
        except OSError:
            return None
        if content.startswith("ref:"):
            ref = parent / ".git" / content.split(None, 1)[1]
            try:
                return ref.read_text(encoding="utf-8").strip() or None
            except OSError:
                return None
        return content or None
    return None


@dataclass
class IncidentBundle:
    """One reloaded incident bundle."""

    path: Path
    manifest: dict[str, Any]
    frames: list[FrameSnapshot] = field(default_factory=list)
    triggers: list[TriggerEvent] = field(default_factory=list)
    violations: list[dict] = field(default_factory=list)
    transitions: list[dict] = field(default_factory=list)
    spans: list[dict] = field(default_factory=list)
    metrics: list[dict] = field(default_factory=list)

    @property
    def incident_id(self) -> str:
        return str(self.manifest.get("incident_id", self.path.name))

    @property
    def window(self) -> tuple[int, int]:
        window = self.manifest.get("window", {})
        return int(window.get("start_index", 0)), int(window.get("end_index", 0))

    def frame_records(self) -> list[dict]:
        """The deterministic frame cores, in window order."""
        return [dict(snapshot.record) for snapshot in self.frames]

    def summary(self) -> dict:
        start, end = self.window
        trigger = self.triggers[0].to_dict() if self.triggers else {}
        return {
            "incident_id": self.incident_id,
            "path": str(self.path),
            "schema_version": self.manifest.get("schema_version"),
            "window": {"start_index": start, "end_index": end, "frames": len(self.frames)},
            "triggers": len(self.triggers),
            "first_trigger": trigger,
            "violations": len(self.violations),
            "transitions": len(self.transitions),
        }


def is_bundle(path: str | Path) -> bool:
    """True when ``path`` is (or directly names) an incident bundle."""
    p = Path(path)
    if p.is_dir():
        return (p / MANIFEST_NAME).is_file() and (p / RECORDS_NAME).is_file()
    return p.name == MANIFEST_NAME and p.is_file()


def write_bundle(
    directory: str | Path,
    manifest: dict[str, Any],
    snapshots: list[FrameSnapshot],
    triggers: list[TriggerEvent],
    violations: list[dict] | None = None,
    transitions: list[dict] | None = None,
    spans: list[dict] | None = None,
    metrics: list[dict] | None = None,
) -> Path:
    """Write one bundle directory; returns its path.

    The manifest is completed with the schema version, window bounds, and
    provenance stamps; callers supply the replay inputs.
    """
    bundle_dir = Path(directory)
    bundle_dir.mkdir(parents=True, exist_ok=True)
    full_manifest = dict(manifest)
    full_manifest.setdefault("schema_version", BUNDLE_SCHEMA_VERSION)
    full_manifest.setdefault("git_revision", git_revision())
    if snapshots:
        full_manifest.setdefault(
            "window",
            {
                "start_index": snapshots[0].index,
                "end_index": snapshots[-1].index,
                "start_s": snapshots[0].time_s,
                "end_s": snapshots[-1].time_s,
            },
        )
    with open(bundle_dir / MANIFEST_NAME, "w", encoding="utf-8") as fh:
        json.dump(full_manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(bundle_dir / RECORDS_NAME, "w", encoding="utf-8") as fh:
        for trigger in triggers:
            fh.write(json.dumps({"type": "trigger", **trigger.to_dict()}) + "\n")
        for snapshot in snapshots:
            fh.write(json.dumps({"type": "frame", **snapshot.to_dict()}) + "\n")
        for violation in violations or ():
            fh.write(json.dumps({"type": "violation", **violation}) + "\n")
        for transition in transitions or ():
            fh.write(json.dumps({"type": "transition", **transition}) + "\n")
        for span in spans or ():
            fh.write(json.dumps({"type": "span", **span}) + "\n")
        for series in metrics or ():
            fh.write(json.dumps({"type": "metric", **series}) + "\n")
    return bundle_dir


def load_bundle(path: str | Path) -> IncidentBundle:
    """Reload one bundle directory (or its manifest path)."""
    p = Path(path)
    if p.name == MANIFEST_NAME:
        p = p.parent
    manifest_path = p / MANIFEST_NAME
    records_path = p / RECORDS_NAME
    if not manifest_path.is_file() or not records_path.is_file():
        raise ConfigurationError(
            f"{p} is not an incident bundle (needs {MANIFEST_NAME} + {RECORDS_NAME})"
        )
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{manifest_path}: not valid JSON ({exc})") from exc
    schema = manifest.get("schema_version")
    if schema != BUNDLE_SCHEMA_VERSION:
        raise ConfigurationError(
            f"{manifest_path}: unsupported bundle schema version {schema!r} "
            f"(this build reads version {BUNDLE_SCHEMA_VERSION})"
        )
    bundle = IncidentBundle(path=p, manifest=manifest)
    for lineno, line in enumerate(
        records_path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"{records_path}:{lineno}: not valid JSONL ({exc})"
            ) from exc
        kind = record.pop("type", None)
        if kind == "frame":
            bundle.frames.append(FrameSnapshot.from_dict(record))
        elif kind == "trigger":
            bundle.triggers.append(TriggerEvent.from_dict(record))
        elif kind == "violation":
            bundle.violations.append(record)
        elif kind == "transition":
            bundle.transitions.append(record)
        elif kind == "span":
            bundle.spans.append(record)
        elif kind == "metric":
            bundle.metrics.append(record)
        else:
            raise ConfigurationError(
                f"{records_path}:{lineno}: unknown record type {kind!r}"
            )
    bundle.frames.sort(key=lambda s: s.index)
    return bundle


def list_bundles(directory: str | Path) -> list[Path]:
    """Bundle directories directly under ``directory``, sorted by name."""
    root = Path(directory)
    if not root.is_dir():
        return []
    return sorted(p for p in root.iterdir() if p.is_dir() and is_bundle(p))
