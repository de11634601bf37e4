"""The ``python -m repro quality`` subcommand.

    python -m repro quality report                         # run suite, print it
    python -m repro quality report --out QUALITY_BASELINE.json
    python -m repro quality compare QUALITY_BASELINE.json  # ratchet gate
    python -m repro quality compare QUALITY_BASELINE.json --format json

Exit codes follow the ``repro lint`` convention: 0 clean
(no regression beyond the noise floor), 1 quality regressed, 2 usage or
configuration error (including a missing or malformed baseline).
"""

from __future__ import annotations

import argparse
import sys

from repro.errors import QualityError, ReproError
from repro.quality.baseline import (
    DEFAULT_NOISE_FLOOR,
    build_snapshot,
    compare,
    load_snapshot,
    quality_suite_specs,
    render_report,
    run_suite,
    write_snapshot,
)
from repro.quality.events import quality_event
from repro.quality.observer import QualityModelConfig
from repro.telemetry.metrics import Stopwatch


def _run_suite(args) -> tuple[dict, float]:
    specs = quality_suite_specs(duration_s=args.duration, seed=args.seed)
    config = QualityModelConfig(sample_every=args.sample_every)
    with Stopwatch() as sw:
        drives = run_suite(specs, config=config)
    return drives, sw.elapsed_s


def main(argv: list[str] | None = None) -> int:
    """Run the quality suite / ratchet gate; returns the exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro quality",
        description="ground-truth quality suite + QUALITY_BASELINE.json ratchet gate",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    report_p = sub.add_parser(
        "report", help="run the canonical quality suite and print its summary"
    )
    compare_p = sub.add_parser(
        "compare", help="run the suite and gate it against a committed baseline"
    )
    compare_p.add_argument("baseline", help="QUALITY_BASELINE.json path to gate against")
    compare_p.add_argument(
        "--noise-floor", type=float, default=DEFAULT_NOISE_FLOOR,
        help=f"absolute recall/precision drop tolerated (default {DEFAULT_NOISE_FLOOR})",
    )
    compare_p.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="compare-report format (default text)",
    )
    for p in (report_p, compare_p):
        p.add_argument(
            "--duration", type=float, default=None,
            help="suite drive duration in simulated seconds (default: canonical)",
        )
        p.add_argument("--seed", type=int, default=0,
                       help="suite root seed (default 0, the committed baseline's)")
        p.add_argument("--sample-every", type=int, default=1,
                       help="score every Nth frame (default 1)")
    report_p.add_argument(
        "--label", default="quality", help="snapshot label (default 'quality')"
    )
    report_p.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the suite as a QUALITY_BASELINE.json snapshot",
    )
    args = parser.parse_args(argv)
    if args.duration is None:
        from repro.quality.baseline import SUITE_DURATION_S

        args.duration = SUITE_DURATION_S

    try:
        if args.command == "compare":
            baseline_doc = load_snapshot(args.baseline)
        drives, suite_wall_s = _run_suite(args)
    except ReproError as exc:
        print(f"quality: {exc}", file=sys.stderr)
        return 2

    if args.command == "report":
        doc = build_snapshot(
            drives,
            label=args.label,
            config=QualityModelConfig(sample_every=args.sample_every),
            suite_wall_s=suite_wall_s,
        )
        print(render_report(drives, suite=doc["suite"]))
        if args.out is not None:
            write_snapshot(args.out, doc)
            event = quality_event(
                "quality.baseline.write", path=str(args.out), label=args.label
            )
            print(f"quality: snapshot -> {event['path']}")
        return 0

    try:
        report = compare(baseline_doc, drives, noise_floor=args.noise_floor)
    except QualityError as exc:
        print(f"quality: {exc}", file=sys.stderr)
        return 2
    print(report.render_json() if args.format == "json" else report.render_text())
    quality_event(
        "quality.compare",
        baseline=str(args.baseline),
        regressed=len(report.regressions),
    )
    return 1 if report.has_regressions else 0


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro quality
    sys.exit(main())
