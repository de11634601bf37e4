"""Export-hygiene and import-cycle rules (the whole-program family)."""

import pytest

from repro.analysis.core import analyze_source, analyze_sources

pytestmark = pytest.mark.analysis


def multi(*items: tuple[str, str, str]) -> list:
    return analyze_sources(list(items))


def only(found, rule_id):
    return [v for v in found if v.rule_id == rule_id]


class TestExportHygiene:
    RULE = "export-hygiene"

    def test_stale_all_entry(self):
        src = '__all__ = ["real", "ghost"]\n\ndef real():\n    pass\n'
        found = only(analyze_source(src, module="repro.fake"), self.RULE)
        assert len(found) == 1
        assert "ghost" in found[0].message

    def test_duplicate_all_entry(self):
        src = '__all__ = ["f", "f"]\n\ndef f():\n    pass\n'
        found = only(analyze_source(src, module="repro.fake"), self.RULE)
        assert len(found) == 1
        assert "duplicate" in found[0].message

    def test_clean_all_is_quiet(self):
        src = '__all__ = ["f", "C"]\n\ndef f():\n    pass\n\nclass C:\n    pass\n'
        assert only(analyze_source(src, module="repro.fake"), self.RULE) == []

    def test_imported_names_count_as_defined(self):
        src = 'from repro.other import helper\n\n__all__ = ["helper"]\n'
        assert only(analyze_source(src, module="repro.fake"), self.RULE) == []

    def test_dead_reexport_in_init(self):
        src = (
            "from repro.pkg.impl import used, unused\n"
            '\n__all__ = ["used"]\n'
        )
        found = only(
            analyze_source(src, module="repro.pkg", path="repro/pkg/__init__.py"),
            self.RULE,
        )
        assert len(found) == 1
        assert "unused" in found[0].message

    def test_used_reexport_is_quiet(self):
        src = (
            "from repro.pkg.impl import helper\n"
            '\n__all__ = ["wrapped"]\n'
            "\ndef wrapped():\n    return helper()\n"
        )
        assert (
            only(
                analyze_source(src, module="repro.pkg", path="repro/pkg/__init__.py"),
                self.RULE,
            )
            == []
        )

    def test_no_all_means_no_reexport_findings(self):
        # Without __all__, the from-imports ARE the implicit surface.
        src = "from repro.pkg.impl import helper\n"
        assert (
            only(
                analyze_source(src, module="repro.pkg", path="repro/pkg/__init__.py"),
                self.RULE,
            )
            == []
        )

    def test_non_init_modules_skip_reexport_check(self):
        src = 'from repro.other import helper\n\n__all__ = ["mine"]\n\ndef mine():\n    pass\n'
        found = only(analyze_source(src, module="repro.fake"), self.RULE)
        assert found == []


class TestImportCycle:
    RULE = "import-cycle"

    def test_cycle_reported_once_by_smallest_member(self):
        found = only(
            multi(
                ("a.py", "repro.aaa", "import repro.bbb\n"),
                ("b.py", "repro.bbb", "import repro.aaa\n"),
            ),
            self.RULE,
        )
        assert len(found) == 1
        assert found[0].path == "a.py"
        assert "repro.aaa -> repro.bbb -> repro.aaa" in found[0].message

    def test_anchored_at_the_import_line(self):
        found = only(
            multi(
                ("a.py", "repro.aaa", "x = 1\ny = 2\nimport repro.bbb\n"),
                ("b.py", "repro.bbb", "import repro.aaa\n"),
            ),
            self.RULE,
        )
        assert found[0].line == 3

    def test_acyclic_graph_is_quiet(self):
        found = only(
            multi(
                ("a.py", "repro.aaa", "import repro.bbb\n"),
                ("b.py", "repro.bbb", "x = 1\n"),
            ),
            self.RULE,
        )
        assert found == []

    def test_type_checking_import_breaks_the_cycle(self):
        found = only(
            multi(
                (
                    "a.py",
                    "repro.aaa",
                    "from typing import TYPE_CHECKING\n"
                    "if TYPE_CHECKING:\n"
                    "    import repro.bbb\n",
                ),
                ("b.py", "repro.bbb", "import repro.aaa\n"),
            ),
            self.RULE,
        )
        assert found == []
