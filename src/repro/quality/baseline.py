"""The quality baseline store: schema-versioned snapshots + the ratchet gate.

A snapshot (``QUALITY_BASELINE.json``) holds the per-drive and merged
quality summaries of the canonical *quality suite* — a fixed list of
seeded drives covering every lighting regime and the fault scenarios that
stress adaptation.  Because the suite and the ground-truth model are
fully seeded, the summaries are a pure function of the code: re-running
the suite on any machine reproduces the committed numbers exactly, which
is what makes an *absolute* noise floor meaningful (unlike the benchmark,
nothing here measures a wall clock).

``compare`` judges a fresh suite run against a stored baseline: a drive
whose recall or precision drops more than ``noise_floor`` below the
committed value is a *regression* (exit 1 from the CLI); a rise beyond
the floor is an *improvement*, and the gate ratchets by re-writing the
baseline — mirroring the lint baseline.

The one wall-valued field (``suite_wall_s``, how long the suite took to
score) is declared in :data:`repro.core.spec.WALL_KEYS`, so the
determinism-taint lint rule launders it exactly like the fleet's wall
fields.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from repro.core.spec import DriveSpec
from repro.errors import QualityError
from repro.quality.observer import ModelQualityObserver, QualityModelConfig
from repro.quality.records import merge_summaries
from repro.rng import derive_seed

QUALITY_SCHEMA = "repro.quality/baseline"
QUALITY_SCHEMA_VERSION = 1

#: Absolute recall/precision drop tolerated before a drive regresses.
#: The suite is fully deterministic, so the floor only absorbs *intended*
#: model-tuning noise (a re-tuned jitter constant), not measurement noise.
DEFAULT_NOISE_FLOOR = 0.02

#: Compare verdicts, in severity order.
STATUSES = ("regressed", "missing", "new", "improved", "unchanged")

#: The canonical suite: (short name, trace, fault scenario).  Every
#: lighting regime is crossed, and both fault rows stress the quality
#: plane's reason to exist — ``sensor_blackout`` holds the lux register
#: through a lighting transition (stale configuration, recall collapse),
#: ``flaky_dma`` drops vehicle frames outright.
_SUITE_ROWS: tuple[tuple[str, str, str | None], ...] = (
    ("sunset-clean", "sunset", None),
    ("urban-clean", "urban", None),
    ("tunnel-clean", "tunnel", None),
    ("flicker-clean", "flicker", None),
    ("sunset-blackout", "sunset", "sensor_blackout"),
    ("urban-flaky-dma", "urban", "flaky_dma"),
)

#: Suite drive length: long enough for every trace to cross a lighting
#: boundary, short enough for a check.sh gate.
SUITE_DURATION_S = 8.0


def quality_suite_specs(
    duration_s: float = SUITE_DURATION_S, seed: int = 0
) -> list[DriveSpec]:
    """The canonical quality-suite drive specs (deterministic)."""
    if duration_s <= 0:
        raise QualityError(f"suite duration_s must be positive, got {duration_s}")
    return [
        DriveSpec(
            name=f"quality-{name}",
            trace=trace,
            duration_s=duration_s,
            seed=derive_seed(seed, f"quality-suite:{name}"),
            fault_scenario=scenario,
        )
        for name, trace, scenario in _SUITE_ROWS
    ]


def run_suite(
    specs: Sequence[DriveSpec] | None = None,
    config: QualityModelConfig | None = None,
) -> dict[str, dict]:
    """Run the suite inline and return ``{drive name: quality summary}``."""
    from repro.core.system import run_drive_spec

    drives: dict[str, dict] = {}
    for spec in specs if specs is not None else quality_suite_specs():
        observer = ModelQualityObserver.for_spec(spec, config=config)
        run_drive_spec(spec, quality=observer)
        drives[spec.name] = observer.summary()
    return drives


def build_snapshot(
    drives: Mapping[str, Mapping],
    label: str = "quality",
    config: QualityModelConfig | None = None,
    suite_wall_s: float | None = None,
) -> dict:
    """Assemble the schema-versioned snapshot document."""
    model = (config or QualityModelConfig()).to_dict()
    doc = {
        "schema": QUALITY_SCHEMA,
        "schema_version": QUALITY_SCHEMA_VERSION,
        "label": label,
        "model": model,
        "drives": {name: dict(summary) for name, summary in sorted(drives.items())},
        "suite": merge_summaries(drives.values()),
    }
    if suite_wall_s is not None:
        doc["wall"] = {"suite_wall_s": suite_wall_s}
    return doc


def write_snapshot(path: "str | Path", doc: dict) -> Path:
    """Validate and write one snapshot (stable key order, human-diffable)."""
    validate_snapshot(doc)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def load_snapshot(path: "str | Path") -> dict:
    """Load and schema-check a snapshot written by :func:`write_snapshot`."""
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise QualityError(f"cannot read quality baseline {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise QualityError(
            f"quality baseline {path!r} is not valid JSON: {exc}"
        ) from exc
    validate_snapshot(doc, origin=str(path))
    return doc


def validate_snapshot(doc: Mapping, origin: str = "snapshot") -> None:
    """Reject structurally broken snapshots (schema gate for readers)."""
    if not isinstance(doc, Mapping) or doc.get("schema") != QUALITY_SCHEMA:
        raise QualityError(f"{origin} is not a {QUALITY_SCHEMA} snapshot")
    version = doc.get("schema_version")
    if version != QUALITY_SCHEMA_VERSION:
        raise QualityError(
            f"{origin} has schema_version {version!r}; "
            f"this reader understands {QUALITY_SCHEMA_VERSION}"
        )
    if not isinstance(doc.get("drives"), Mapping):
        raise QualityError(f"{origin} has no drives table")
    for name, summary in doc["drives"].items():
        if not isinstance(summary, Mapping) or "overall" not in summary:
            raise QualityError(f"{origin} drive {name!r} carries no overall metrics")


@dataclass
class QualityCompareEntry:
    """One drive's verdict against the baseline."""

    name: str
    status: str
    baseline_recall: float | None = None
    current_recall: float | None = None
    baseline_precision: float | None = None
    current_precision: float | None = None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "baseline_recall": self.baseline_recall,
            "current_recall": self.current_recall,
            "baseline_precision": self.baseline_precision,
            "current_precision": self.current_precision,
        }

    def render(self) -> str:
        def fmt(value: float | None) -> str:
            return f"{value:.3f}" if value is not None else "-"

        return (
            f"{self.name}: {self.status} "
            f"(recall {fmt(self.baseline_recall)} -> {fmt(self.current_recall)}, "
            f"precision {fmt(self.baseline_precision)} -> {fmt(self.current_precision)})"
        )


@dataclass
class QualityCompareReport:
    """The verdict of one suite run against one baseline snapshot."""

    baseline_label: str
    noise_floor: float
    entries: list[QualityCompareEntry] = field(default_factory=list)

    @property
    def regressions(self) -> list[QualityCompareEntry]:
        return [e for e in self.entries if e.status == "regressed"]

    @property
    def has_regressions(self) -> bool:
        return bool(self.regressions)

    @property
    def improvements(self) -> list[QualityCompareEntry]:
        return [e for e in self.entries if e.status == "improved"]

    def counts(self) -> dict[str, int]:
        table = {status: 0 for status in STATUSES}
        for entry in self.entries:
            table[entry.status] += 1
        return table

    def render_text(self) -> str:
        lines = [
            f"quality compare: suite vs baseline {self.baseline_label!r} "
            f"(noise floor {self.noise_floor:.3f})"
        ]
        order = {status: i for i, status in enumerate(STATUSES)}
        for entry in sorted(self.entries, key=lambda e: (order[e.status], e.name)):
            if entry.status == "unchanged":
                continue
            lines.append(f"  {entry.render()}")
        counts = self.counts()
        lines.append(
            "quality compare: "
            + ", ".join(f"{counts[s]} {s}" for s in STATUSES)
            + f" across {len(self.entries)} drives"
        )
        if self.has_regressions:
            lines.append("quality compare: FAILED (recall/precision regressed)")
        elif self.improvements:
            lines.append(
                "quality compare: improved beyond the floor — ratchet with "
                "`repro quality report --out QUALITY_BASELINE.json`"
            )
        return "\n".join(lines)

    def render_json(self) -> str:
        return json.dumps(
            {
                "tool": "repro-quality-compare",
                "baseline": self.baseline_label,
                "noise_floor": self.noise_floor,
                "counts": self.counts(),
                "has_regressions": self.has_regressions,
                "entries": [e.to_dict() for e in self.entries],
            },
            indent=2,
            sort_keys=True,
        )


def _overall(summary: Mapping) -> tuple[float, float]:
    overall = dict(summary.get("overall", {}))
    return float(overall.get("recall", 0.0)), float(overall.get("precision", 0.0))


def compare(
    baseline_doc: Mapping,
    current_drives: Mapping[str, Mapping],
    noise_floor: float = DEFAULT_NOISE_FLOOR,
) -> QualityCompareReport:
    """Judge a fresh suite run against a loaded baseline snapshot.

    A drive present in both regresses when recall *or* precision drops
    more than ``noise_floor`` below the baseline; the symmetric rise
    marks it improved (the ratchet signal).  Baseline-only drives are
    *missing*, current-only drives are *new* — worth noticing, not worth
    failing.
    """
    if noise_floor < 0:
        raise QualityError(f"noise_floor must be >= 0, got {noise_floor}")
    validate_snapshot(baseline_doc, origin="baseline")
    baseline = dict(baseline_doc["drives"])
    report = QualityCompareReport(
        baseline_label=str(baseline_doc.get("label", "?")),
        noise_floor=noise_floor,
    )
    for name in sorted(set(baseline) | set(current_drives)):
        base = baseline.get(name)
        cur = current_drives.get(name)
        if base is None:
            assert cur is not None
            recall, precision = _overall(cur)
            report.entries.append(
                QualityCompareEntry(
                    name=name,
                    status="new",
                    current_recall=recall,
                    current_precision=precision,
                )
            )
            continue
        if cur is None:
            recall, precision = _overall(base)
            report.entries.append(
                QualityCompareEntry(
                    name=name,
                    status="missing",
                    baseline_recall=recall,
                    baseline_precision=precision,
                )
            )
            continue
        base_recall, base_precision = _overall(base)
        cur_recall, cur_precision = _overall(cur)
        if (
            cur_recall < base_recall - noise_floor
            or cur_precision < base_precision - noise_floor
        ):
            status = "regressed"
        elif (
            cur_recall > base_recall + noise_floor
            or cur_precision > base_precision + noise_floor
        ):
            status = "improved"
        else:
            status = "unchanged"
        report.entries.append(
            QualityCompareEntry(
                name=name,
                status=status,
                baseline_recall=base_recall,
                current_recall=cur_recall,
                baseline_precision=base_precision,
                current_precision=cur_precision,
            )
        )
    return report


def render_report(drives: Mapping[str, Mapping], suite: Mapping | None = None) -> str:
    """A compact human-readable view of one suite run."""
    merged = dict(suite) if suite is not None else merge_summaries(drives.values())
    overall = merged.get("overall", {})
    lines = [
        f"quality suite: {merged.get('scored_drives', len(drives))} drives, "
        f"{merged.get('sampled_frames', 0)} frames scored",
        f"  overall: recall={overall.get('recall', 0.0):.3f} "
        f"precision={overall.get('precision', 0.0):.3f} "
        f"f1={overall.get('f1', 0.0):.3f}",
    ]
    for condition, row in dict(merged.get("by_condition", {})).items():
        lines.append(
            f"  {condition}: recall={row.get('recall', 0.0):.3f} "
            f"precision={row.get('precision', 0.0):.3f} "
            f"tp={row.get('tp', 0)} fp={row.get('fp', 0)} fn={row.get('fn', 0)}"
        )
    for name, summary in sorted(drives.items()):
        recall, precision = _overall(summary)
        lines.append(
            f"  {name}: recall={recall:.3f} precision={precision:.3f} "
            f"({summary.get('sampled_frames', 0)} frames, "
            f"{summary.get('mismatched_frames', 0)} mismatched)"
        )
    return "\n".join(lines)
