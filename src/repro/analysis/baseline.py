"""Ratcheting lint baseline, mirroring the ``QUALITY_BASELINE.json`` gate.

A whole-program analyzer grows new rule families faster than legacy code
can be cleaned up.  Rather than either silencing the new rules or
breaking the build on day one, the committed ``LINT_BASELINE.json``
records the accepted findings as ``path::rule`` counts.  The gate
(``repro lint --compare-baseline``) fails only when a count *exceeds*
its baseline — new findings block, legacy findings are tracked, and
every fix ratchets the baseline down via ``--update-baseline``.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path, PurePath
from typing import Iterable

from repro.analysis.core import Violation
from repro.errors import ConfigurationError

BASELINE_SCHEMA = "repro.analysis/baseline"
BASELINE_VERSION = 1
DEFAULT_BASELINE_PATH = "LINT_BASELINE.json"


def normalize_path(path: str) -> str:
    """A run-location-independent form of a violation path.

    Paths are rebased at the last ``src`` component and joined with
    forward slashes, so a run from the repo root and a run over an
    absolute path produce identical baseline keys.
    """
    parts = list(PurePath(path).parts)
    if "src" in parts:
        last_src = len(parts) - 1 - parts[::-1].index("src")
        parts = parts[last_src:]
    return PurePath(*parts).as_posix() if parts else ""


def baseline_key(violation: Violation) -> str:
    return f"{normalize_path(violation.path)}::{violation.rule_id}"


def collect_counts(violations: Iterable[Violation]) -> dict[str, int]:
    """Current findings as sorted ``path::rule -> count``."""
    counts = Counter(baseline_key(v) for v in violations)
    return dict(sorted(counts.items()))


def write_baseline(path: str | Path, violations: Iterable[Violation]) -> None:
    document = {
        "schema": BASELINE_SCHEMA,
        "version": BASELINE_VERSION,
        "counts": collect_counts(violations),
    }
    Path(path).write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")


def load_baseline(path: str | Path) -> dict[str, int]:
    baseline_path = Path(path)
    if not baseline_path.is_file():
        raise ConfigurationError(
            f"no lint baseline at {baseline_path}; create one with "
            "`repro lint --update-baseline`"
        )
    try:
        document = json.loads(baseline_path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"unreadable lint baseline {baseline_path}: {exc}")
    if document.get("schema") != BASELINE_SCHEMA:
        raise ConfigurationError(
            f"{baseline_path} is not a lint baseline "
            f"(schema={document.get('schema')!r})"
        )
    counts = document.get("counts", {})
    if not isinstance(counts, dict):
        raise ConfigurationError(f"{baseline_path}: counts must be an object")
    return {str(key): int(value) for key, value in counts.items()}


@dataclass
class BaselineComparison:
    """The verdict of current findings against a committed baseline."""

    #: ``(key, current_count, allowed_count)`` for keys over budget.
    regressions: list[tuple[str, int, int]] = field(default_factory=list)
    #: ``(key, baseline_count, current_count)`` for keys under budget.
    improvements: list[tuple[str, int, int]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.regressions


def compare_baseline(
    violations: Iterable[Violation], baseline: dict[str, int]
) -> BaselineComparison:
    current = collect_counts(violations)
    comparison = BaselineComparison()
    for key in sorted(set(current) | set(baseline)):
        now = current.get(key, 0)
        allowed = baseline.get(key, 0)
        if now > allowed:
            comparison.regressions.append((key, now, allowed))
        elif now < allowed:
            comparison.improvements.append((key, allowed, now))
    return comparison


def render_comparison(
    comparison: BaselineComparison, violations: Iterable[Violation]
) -> str:
    """Human-readable gate verdict, new findings rendered individually."""
    lines: list[str] = []
    if comparison.regressions:
        regressed_keys = {key for key, _, _ in comparison.regressions}
        lines.append("reprolint baseline: NEW FINDINGS")
        for violation in violations:
            if baseline_key(violation) in regressed_keys:
                lines.append(f"  {violation.render()}")
        for key, now, allowed in comparison.regressions:
            lines.append(f"  {key}: {now} findings (baseline allows {allowed})")
    else:
        lines.append("reprolint baseline: ok (no findings beyond baseline)")
    if comparison.improvements:
        fixed = sum(before - now for _, before, now in comparison.improvements)
        lines.append(
            f"  {fixed} baselined finding(s) fixed — ratchet with "
            "`repro lint --update-baseline`"
        )
    return "\n".join(lines)
