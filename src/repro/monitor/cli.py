"""``python -m repro incident`` — inspect, analyze, and replay bundles.

Sub-actions::

    incident list [DIR]           # one line per bundle under DIR
    incident show BUNDLE          # interleaved timeline
    incident report BUNDLE        # digest + root-cause hints
    incident replay BUNDLE        # re-run the drive, byte-verify the window
    incident smoke [--dir DIR]    # induce one incident end-to-end + replay it

Exit codes follow the lint convention: 0 = success, 1 = failure
(replay mismatch, smoke produced no incident), 2 = usage error.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

from repro.errors import ReproError
from repro.monitor.analyzer import render_list, render_report, render_timeline
from repro.monitor.bundle import IncidentBundle, is_bundle, list_bundles, load_bundle


def _resolve_bundles(path: str) -> list[IncidentBundle]:
    """A path names one bundle, or a directory of bundles."""
    p = Path(path)
    if is_bundle(p):
        return [load_bundle(p)]
    return [load_bundle(b) for b in list_bundles(p)]


def _latest_bundle(path: str) -> IncidentBundle:
    bundles = _resolve_bundles(path)
    if not bundles:
        raise ReproError(f"no incident bundle at {path!r}")
    return bundles[-1]


def _cmd_list(args: argparse.Namespace) -> int:
    print(render_list(_resolve_bundles(args.path)))
    return 0


def _cmd_show(args: argparse.Namespace) -> int:
    print(render_timeline(_latest_bundle(args.bundle)))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    print(render_report(_latest_bundle(args.bundle)))
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.monitor.replay import replay_bundle

    failures = 0
    bundles = _resolve_bundles(args.bundle)
    if not bundles:
        raise ReproError(f"no incident bundle at {args.bundle!r}")
    for bundle in bundles:
        result = replay_bundle(bundle)
        verdict = "OK " if result.ok else "FAIL"
        print(f"{verdict} {bundle.incident_id}: {result.detail}")
        if not result.ok:
            failures += 1
    return 1 if failures else 0


def _cmd_smoke(args: argparse.Namespace) -> int:
    """Induce one incident end-to-end: drive worst_case, bundle, replay."""
    from repro.adaptive.sensor import sunset_trace
    from repro.core.system import AdaptiveDetectionSystem
    from repro.faults.scenarios import get_scenario
    from repro.monitor.replay import replay_bundle
    from repro.monitor.session import Monitor

    out_dir = args.dir or tempfile.mkdtemp(prefix="repro-incident-smoke-")
    duration_s = args.duration
    plan = get_scenario(args.scenario, duration_s)
    monitor = Monitor.recording(out_dir)
    system = AdaptiveDetectionSystem(fault_plan=plan, monitor=monitor)
    system.run_drive(sunset_trace(duration_s), duration_s=duration_s)
    digest = monitor.summary()
    print(
        f"smoke drive: {digest['frames_monitored']} frames, "
        f"{digest['triggers']} triggers, {digest['incidents']} incidents, "
        f"health={digest['health']['state']}"
    )
    if not monitor.bundles:
        print(f"FAIL no incident bundle produced by scenario {args.scenario!r}")
        return 1
    failures = 0
    for path in monitor.bundles:
        result = replay_bundle(path)
        verdict = "OK " if result.ok else "FAIL"
        print(f"{verdict} replay {result.bundle.incident_id}: {result.detail}")
        if not result.ok:
            failures += 1
    print(f"bundles under {out_dir}")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro incident",
        description="Inspect, analyze, and replay monitor incident bundles.",
    )
    sub = parser.add_subparsers(dest="action", required=True)

    p_list = sub.add_parser("list", help="list bundles under a directory")
    p_list.add_argument("path", nargs="?", default=".", help="bundle directory")
    p_list.set_defaults(func=_cmd_list)

    p_show = sub.add_parser("show", help="render a bundle's timeline")
    p_show.add_argument("bundle", help="bundle path (or directory: newest wins)")
    p_show.set_defaults(func=_cmd_show)

    p_report = sub.add_parser("report", help="digest + root-cause hints")
    p_report.add_argument("bundle", help="bundle path (or directory: newest wins)")
    p_report.set_defaults(func=_cmd_report)

    p_replay = sub.add_parser("replay", help="re-run the drive and byte-verify")
    p_replay.add_argument("bundle", help="bundle path (or directory: all replayed)")
    p_replay.set_defaults(func=_cmd_replay)

    p_smoke = sub.add_parser("smoke", help="induce one incident end-to-end")
    p_smoke.add_argument("--dir", default=None, help="bundle output directory")
    p_smoke.add_argument("--duration", type=float, default=30.0, help="drive seconds")
    p_smoke.add_argument(
        "--scenario", default="worst_case", help="canned fault scenario to induce"
    )
    p_smoke.set_defaults(func=_cmd_smoke)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
