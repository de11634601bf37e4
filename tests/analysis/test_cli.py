"""CLI contract of ``python -m repro lint``: exit codes, JSON report
shape, suppression comments, and rule listing."""

import json
from pathlib import Path

import pytest

from repro.cli import main

pytestmark = pytest.mark.analysis

CLEAN = (
    '"""A compliant module."""\n'
    "from repro.rng import make_rng\n"
    "\n"
    "RNG = make_rng(7)\n"
)

# Lives under a path segment named "repro/zynq" so the determinism rules
# treat it as sim-domain code.
DIRTY = "import random\n\nx = random.random()\n"


def write_tree(root, source):
    pkg = root / "repro" / "zynq"
    pkg.mkdir(parents=True)
    target = pkg / "generated.py"
    target.write_text(source)
    return target


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        write_tree(tmp_path, CLEAN)
        assert main(["lint", str(tmp_path)]) == 0
        assert "0 violations" in capsys.readouterr().out

    def test_seeded_violation_exits_one(self, tmp_path, capsys):
        write_tree(tmp_path, DIRTY)
        assert main(["lint", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "determinism-rng" in out
        assert "generated.py" in out

    def test_unknown_rule_exits_two(self, tmp_path, capsys):
        write_tree(tmp_path, CLEAN)
        assert main(["lint", str(tmp_path), "--select", "no-such-rule"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_missing_path_exits_two(self, capsys):
        assert main(["lint", "definitely/not/a/path"]) == 2
        assert "no such file" in capsys.readouterr().err


class TestJsonReport:
    def test_shape(self, tmp_path, capsys):
        write_tree(tmp_path, DIRTY)
        assert main(["lint", str(tmp_path), "--format", "json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["tool"] == "reprolint"
        assert report["files_checked"] == 1
        assert report["violation_count"] == len(report["violations"]) > 0
        entry = report["violations"][0]
        assert set(entry) == {"rule", "path", "line", "col", "message"}
        assert entry["rule"] == "determinism-rng"
        assert entry["line"] == 1

    def test_clean_json(self, tmp_path, capsys):
        write_tree(tmp_path, CLEAN)
        assert main(["lint", str(tmp_path), "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["violation_count"] == 0
        assert report["violations"] == []


class TestSuppressions:
    def test_line_suppression_honored(self, tmp_path):
        write_tree(tmp_path, "import random  # reprolint: skip=determinism-rng\n")
        assert main(["lint", str(tmp_path)]) == 0

    def test_file_suppression_honored(self, tmp_path):
        write_tree(tmp_path, "# reprolint: skip-file\n" + DIRTY)
        assert main(["lint", str(tmp_path)]) == 0

    def test_unrelated_suppression_still_fails(self, tmp_path):
        write_tree(tmp_path, "import random  # reprolint: skip=unit-suffix\n")
        assert main(["lint", str(tmp_path)]) == 1


class TestFlags:
    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in (
            "determinism-clock",
            "determinism-rng",
            "unit-suffix",
            "span-context",
            "event-vocabulary",
            "swallowed-error",
            "mutable-default",
            "public-api",
        ):
            assert rule_id in out

    def test_select_narrows_to_one_rule(self, tmp_path, capsys):
        write_tree(tmp_path, "import time\nx = time.time()\nimport random\n")
        assert main(["lint", str(tmp_path), "--select", "determinism-clock"]) == 1
        out = capsys.readouterr().out
        assert "determinism-clock" in out
        assert "determinism-rng" not in out

    def test_ignore_drops_a_rule(self, tmp_path):
        write_tree(tmp_path, DIRTY)
        assert main(["lint", str(tmp_path), "--ignore", "determinism-rng"]) == 0

    def test_rules_catalog_is_markdown(self, capsys):
        assert main(["lint", "--rules"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("| rule | family | summary |")
        for rule_id in ("taint-deterministic-sink", "fork-queue-timeout",
                        "import-cycle", "suppression-hygiene"):
            assert f"`{rule_id}`" in out

    def test_analysis_md_embeds_the_current_catalog(self, capsys):
        assert main(["lint", "--rules"]) == 0
        catalog = capsys.readouterr().out.strip()
        doc = (Path(__file__).resolve().parents[2] / "ANALYSIS.md").read_text()
        assert catalog in doc, "regenerate ANALYSIS.md's rule catalog with `repro lint --rules`"


class TestSarif:
    def test_sarif_format(self, tmp_path, capsys):
        write_tree(tmp_path, DIRTY)
        assert main(["lint", str(tmp_path), "--format", "sarif"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "reprolint"
        rule_ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
        assert "determinism-rng" in rule_ids
        result = run["results"][0]
        assert result["ruleId"] == "determinism-rng"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"].endswith("generated.py")
        assert location["region"]["startLine"] == 1
        assert result["ruleIndex"] == sorted(rule_ids).index("determinism-rng")

    def test_sarif_out_writes_artifact(self, tmp_path, capsys):
        write_tree(tmp_path, DIRTY)
        artifact = tmp_path / "lint.sarif"
        assert main(["lint", str(tmp_path), "--sarif-out", str(artifact)]) == 1
        capsys.readouterr()
        doc = json.loads(artifact.read_text())
        assert doc["version"] == "2.1.0"
        assert doc["runs"][0]["results"]


class TestBaselineGate:
    def test_update_then_compare_passes(self, tmp_path, capsys):
        write_tree(tmp_path, DIRTY)
        baseline = tmp_path / "LINT_BASELINE.json"
        assert main(["lint", str(tmp_path), "--update-baseline", str(baseline)]) == 0
        assert baseline.is_file()
        assert main(["lint", str(tmp_path), "--compare-baseline", str(baseline)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_new_finding_fails_the_gate(self, tmp_path, capsys):
        target = write_tree(tmp_path, DIRTY)
        baseline = tmp_path / "LINT_BASELINE.json"
        assert main(["lint", str(tmp_path), "--update-baseline", str(baseline)]) == 0
        target.write_text(DIRTY + "import time\ny = time.time()\n")
        assert main(["lint", str(tmp_path), "--compare-baseline", str(baseline)]) == 1
        out = capsys.readouterr().out
        assert "NEW FINDINGS" in out
        assert "determinism-clock" in out

    def test_fixed_finding_still_passes_and_hints_ratchet(self, tmp_path, capsys):
        target = write_tree(tmp_path, DIRTY)
        baseline = tmp_path / "LINT_BASELINE.json"
        assert main(["lint", str(tmp_path), "--update-baseline", str(baseline)]) == 0
        target.write_text(CLEAN)
        assert main(["lint", str(tmp_path), "--compare-baseline", str(baseline)]) == 0
        assert "--update-baseline" in capsys.readouterr().out

    def test_missing_baseline_exits_two(self, tmp_path, capsys):
        write_tree(tmp_path, CLEAN)
        missing = tmp_path / "nope.json"
        assert main(["lint", str(tmp_path), "--compare-baseline", str(missing)]) == 2
        assert "no lint baseline" in capsys.readouterr().err
