"""The ``python -m repro lint`` subcommand.

Exit codes follow linter convention: 0 clean (or within baseline when
``--compare-baseline`` is given), 1 violations found (or baseline
regressions), 2 usage/configuration error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from repro.analysis.baseline import (
    DEFAULT_BASELINE_PATH,
    compare_baseline,
    load_baseline,
    render_comparison,
    write_baseline,
)
from repro.analysis.config import DEFAULT_CONFIG
from repro.analysis.core import all_rules, analyze_paths, iter_python_files
from repro.analysis.reporters import render_json, render_sarif, render_text
from repro.errors import ConfigurationError


def _parse_rule_list(raw: str | None) -> tuple[str, ...]:
    if not raw:
        return ()
    names = tuple(name.strip() for name in raw.split(",") if name.strip())
    known = {rule.id for rule in all_rules()}
    unknown = [name for name in names if name not in known]
    if unknown:
        raise ConfigurationError(
            f"unknown rule(s): {', '.join(unknown)} (known: {', '.join(sorted(known))})"
        )
    return names


def render_rule_catalog() -> str:
    """The ``--rules`` markdown catalog (ANALYSIS.md embeds this verbatim)."""
    rules = sorted(all_rules(), key=lambda r: (r.family, r.id))
    lines = [
        "| rule | family | summary |",
        "| --- | --- | --- |",
    ]
    for rule in rules:
        summary = " ".join(rule.summary.split())
        lines.append(f"| `{rule.id}` | {rule.family} | {summary} |")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    """Run reprolint over the given paths; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro lint",
        description=(
            "reprolint: whole-program determinism-taint / fork-safety / "
            "export-hygiene / naming checks"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to analyze (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=["text", "json", "sarif"],
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--sarif-out",
        metavar="PATH",
        default=None,
        help="also write a SARIF 2.1.0 report to PATH",
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        default=None,
        help="comma-separated rule ids to run exclusively",
    )
    parser.add_argument(
        "--ignore",
        metavar="RULES",
        default=None,
        help="comma-separated rule ids to skip",
    )
    parser.add_argument(
        "--compare-baseline",
        nargs="?",
        const=DEFAULT_BASELINE_PATH,
        default=None,
        metavar="PATH",
        help=(
            "gate against a committed baseline: exit 1 only on findings "
            f"beyond it (default path: {DEFAULT_BASELINE_PATH})"
        ),
    )
    parser.add_argument(
        "--update-baseline",
        nargs="?",
        const=DEFAULT_BASELINE_PATH,
        default=None,
        metavar="PATH",
        help="rewrite the baseline from the current findings and exit 0",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    parser.add_argument(
        "--rules",
        action="store_true",
        help="print the rule catalog as a markdown table and exit",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        width = max(len(rule.id) for rule in all_rules())
        for rule in all_rules():
            print(f"  {rule.id:<{width}}  {rule.summary}")
        return 0
    if args.rules:
        print(render_rule_catalog())
        return 0

    try:
        config = replace(
            DEFAULT_CONFIG,
            select=_parse_rule_list(args.select),
            ignore=_parse_rule_list(args.ignore),
        )
        paths = args.paths or ["src"]
        files_checked = sum(1 for _ in iter_python_files(paths))
        violations = analyze_paths(paths, config)
        if args.sarif_out:
            Path(args.sarif_out).write_text(
                render_sarif(violations, files_checked=files_checked) + "\n"
            )
        if args.update_baseline:
            write_baseline(args.update_baseline, violations)
            print(
                f"reprolint: baseline written to {args.update_baseline} "
                f"({len(violations)} finding(s) across {files_checked} files)"
            )
            return 0
        if args.compare_baseline:
            baseline = load_baseline(args.compare_baseline)
            comparison = compare_baseline(violations, baseline)
            print(render_comparison(comparison, violations))
            return 0 if comparison.ok else 1
    except ConfigurationError as exc:
        print(f"reprolint: {exc}", file=sys.stderr)
        return 2

    renderers = {"text": render_text, "json": render_json, "sarif": render_sarif}
    print(renderers[args.format](violations, files_checked=files_checked))
    return 1 if violations else 0


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro lint
    sys.exit(main())
