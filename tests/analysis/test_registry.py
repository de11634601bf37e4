"""Registry self-check: every rule is documented and fixture-covered.

Each registered rule must carry a unique id, a family, a non-empty
summary and a docstring, and must have at least one true-positive
(``tp_*``) and one true-negative (``tn_*``) fixture under
``tests/analysis/fixtures/<rule-id>/``.  Fixtures are real analyzer
inputs: a fixture is a ``.py`` file (or a directory of files, for
cross-module rules) whose first line declares its module name via
``# module: <dotted.name>``; every ``tp`` must fire the rule and every
``tn`` must not.  The ``event-vocabulary`` rule reads a table of
emitters, so each table row also needs its own ``tp_<label>_*`` and
``tn_<label>_*`` fixtures, checked as the ``<label>-event-vocabulary``
case.
"""

import re
from dataclasses import replace
from pathlib import Path

import pytest

from repro.analysis.config import DEFAULT_CONFIG
from repro.analysis.core import Violation, all_rules, analyze_sources

pytestmark = pytest.mark.analysis

FIXTURES = Path(__file__).parent / "fixtures"
_MODULE_HEADER = re.compile(r"#\s*module:\s*(\S+)")


def fixture_items(path: Path) -> list[tuple[str, str, str]]:
    """Load one fixture (file or multi-module directory) as analyzer input."""
    files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
    items = []
    for file in files:
        source = file.read_text()
        match = _MODULE_HEADER.match(source.splitlines()[0])
        assert match, f"{file} must declare '# module: <dotted.name>' on line 1"
        items.append((str(file), match.group(1), source))
    assert items, f"fixture {path} contains no .py files"
    return items


def run_fixture(rule_id: str, path: Path) -> list[Violation]:
    config = replace(DEFAULT_CONFIG, select=(rule_id,))
    found = analyze_sources(fixture_items(path), config)
    assert all(v.rule_id == rule_id for v in found)
    return found


#: Fixture label of each ``LintConfig.event_vocabularies`` emitter.
EMITTER_FIXTURE_LABELS = {
    "emit": "trace",
    "emit_event": "monitor",
    "fleet_event": "fleet",
    "quality_event": "quality",
}


def coverage_cases() -> list:
    """One case per rule, plus one per event-vocabulary emitter."""
    rules = all_rules()
    vocabulary = next(rule for rule in rules if rule.id == "event-vocabulary")
    return [pytest.param(rule, "", id=rule.id) for rule in rules] + [
        pytest.param(vocabulary, f"{label}_", id=f"{label}-event-vocabulary")
        for label in EMITTER_FIXTURE_LABELS.values()
    ]


def fixture_cases(rule_id: str, prefix: str) -> list[Path]:
    rule_dir = FIXTURES / rule_id
    if not rule_dir.is_dir():
        return []
    return [p for p in sorted(rule_dir.iterdir()) if p.name.startswith(prefix)]


def test_rule_ids_unique():
    ids = [rule.id for rule in all_rules()]
    assert len(ids) == len(set(ids))


def test_every_rule_documented():
    for rule in all_rules():
        assert rule.id, f"{type(rule).__name__} has no id"
        assert rule.summary.strip(), f"{rule.id} has an empty summary"
        assert (rule.__doc__ or "").strip(), f"{rule.id} has no docstring"
        assert rule.family and rule.family != "general", (
            f"{rule.id} must declare a specific family"
        )


@pytest.mark.parametrize("rule, label", coverage_cases())
def test_rule_fixture_coverage(rule, label):
    positives = fixture_cases(rule.id, "tp_" + label)
    negatives = fixture_cases(rule.id, "tn_" + label)
    assert positives, f"{rule.id} has no true-positive fixture"
    assert negatives, f"{rule.id} has no true-negative fixture"
    for case in positives:
        assert run_fixture(rule.id, case), f"{case} does not fire {rule.id}"
    for case in negatives:
        found = run_fixture(rule.id, case)
        assert not found, (
            f"{case} unexpectedly fires {rule.id}: "
            f"{[v.render() for v in found]}"
        )


def test_every_emitter_has_a_fixture_label():
    assert sorted(EMITTER_FIXTURE_LABELS) == sorted(DEFAULT_CONFIG.event_vocabularies)


def test_no_orphan_fixture_directories():
    known = {rule.id for rule in all_rules()}
    on_disk = {p.name for p in FIXTURES.iterdir() if p.is_dir()}
    assert on_disk <= known, f"fixtures for unknown rules: {on_disk - known}"
