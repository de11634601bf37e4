"""Command-line interface: regenerate any paper artefact from the shell.

    python -m repro list                 # what can be reproduced
    python -m repro table1 [--scale S]   # Table I
    python -m repro table2               # Table II
    python -m repro dark [--scale S]     # Section III-B dark accuracy
    python -m repro throughput           # Section IV-A MB/s comparison
    python -m repro latency              # Section IV-B drive + drops
    python -m repro fig1|fig2|fig4|fig5|fig6|fig7|fps
    python -m repro ablations            # all five ablations
    python -m repro drive [--trace T] [--duration D] [--fault-plan P]
                          [--telemetry-out PATH] [--telemetry-format F]
                          [--monitor-out DIR]
    python -m repro telemetry --telemetry-in PATH [--top N]
                          [--since S] [--until S]   # summarise a dump/bundle
                          [--format text|openmetrics]
    python -m repro incident list|show|report|replay|smoke ...   # see MONITOR.md
    python -m repro fleet run|top|report|smoke ...               # see FLEET.md
    python -m repro quality report|compare ...                   # see QUALITY.md
    python -m repro lint [PATHS] [--format text|json] [--select R] [--ignore R]
    python -m repro all [--scale S]      # everything, in paper order
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable


def _table1(args) -> str:
    from repro.experiments.table1 import run_table1

    result = run_table1(scale=args.scale)
    checks = result.shape_checks()
    return result.render_with_paper() + f"\nshape checks: {checks}"


def _table2(args) -> str:
    from repro.experiments.table2 import run_table2

    result = run_table2()
    return result.render() + f"\nshape checks: {result.shape_checks()}"


def _dark(args) -> str:
    from repro.experiments.dark_accuracy import run_dark_accuracy

    result = run_dark_accuracy(scale=args.scale)
    return result.render() + f"\nshape checks: {result.shape_checks()}"


def _throughput(args) -> str:
    from repro.experiments.reconfig import run_throughput

    result = run_throughput()
    return result.render() + f"\nshape checks: {result.shape_checks()}"


def _latency(args) -> str:
    from repro.experiments.reconfig import run_latency

    result = run_latency(duration_s=120.0)
    return result.render() + f"\nshape checks: {result.shape_checks()}"


def _fig1(args) -> str:
    from repro.experiments.figures import run_training_flow

    result = run_training_flow(scale=min(args.scale, 0.5))
    return result.render() + f"\nshape checks: {result.shape_checks()}"


def _fig2(args) -> str:
    from repro.experiments.figures import run_fig2_pipeline

    return run_fig2_pipeline().render()


def _fig4(args) -> str:
    from repro.experiments.figures import run_fig4_pipeline

    return run_fig4_pipeline().render()


def _fig5(args) -> str:
    from repro.experiments.figures import run_fig5_samples

    return run_fig5_samples(n_frames=4).render()


def _fig6(args) -> str:
    from repro.experiments.figures import run_fig6_system

    return run_fig6_system().render()


def _fig7(args) -> str:
    from repro.experiments.figures import run_fig7_pr_controller

    return run_fig7_pr_controller().render()


def _fps(args) -> str:
    from repro.experiments.figures import run_fps

    return run_fps().render()


def _resources(args) -> str:
    from repro.hw.designs import animal_design, dark_design, day_dusk_design, static_design

    parts = []
    for design in (day_dusk_design(), dark_design(), static_design(), animal_design()):
        parts.append(design.render())
    return "\n\n".join(parts)


def _adaptive(args) -> str:
    from repro.experiments.adaptive_gain import run_adaptive_gain

    result = run_adaptive_gain(scale=min(args.scale, 0.3))
    return result.render() + f"\nshape checks: {result.shape_checks()}"


def _drive(args) -> str:
    from repro.adaptive.sensor import sunset_trace, tunnel_trace, urban_evening_trace
    from repro.core.system import AdaptiveDetectionSystem
    from repro.faults.scenarios import get_scenario

    traces = {
        "sunset": sunset_trace,
        "tunnel": tunnel_trace,
        "urban": urban_evening_trace,
    }
    trace = traces[args.trace](duration_s=args.duration)
    plan = None
    if args.fault_plan != "none":
        plan = get_scenario(args.fault_plan, duration_s=args.duration)
    telemetry = None
    if args.telemetry_out is not None:
        from repro.telemetry import Telemetry

        telemetry = Telemetry.recording(
            meta={
                "artefact": "drive",
                "trace": args.trace,
                "duration_s": args.duration,
                "fault_plan": args.fault_plan,
            }
        )
    monitor = None
    if args.monitor_out is not None:
        from repro.monitor import Monitor

        monitor = Monitor.recording(args.monitor_out, telemetry=telemetry)
    system = AdaptiveDetectionSystem(fault_plan=plan, telemetry=telemetry, monitor=monitor)
    report = system.run_drive(trace)
    summary = report.summary()
    lines = [f"drive: trace={args.trace} duration={args.duration:.0f}s "
             f"fault-plan={args.fault_plan}"]
    for key, value in summary.items():
        if key == "reconfig_ms":
            value = ", ".join(f"{v:.1f}" for v in value) or "-"
        lines.append(f"  {key:<26} {value}")
    if plan is not None:
        lines.append(f"  fault firings:             {plan.firings()}")
        for event in report.degradations:
            lines.append(f"    t={event.time_s:7.2f}s  {event.label()}")
    ped_ok = all(f.pedestrian_accepted for f in report.frames)
    lines.append(f"  pedestrian partition:      "
                 f"{'100% of frames processed' if ped_ok else 'DROPPED FRAMES'}")
    if telemetry is not None:
        from repro.telemetry import export

        export(telemetry, args.telemetry_out, args.telemetry_format)
        lines.append(
            f"  telemetry:                 {len(telemetry.tracer.spans)} spans, "
            f"{len(telemetry.metrics)} metric series -> "
            f"{args.telemetry_out} ({args.telemetry_format})"
        )
    if monitor is not None:
        digest = monitor.summary()
        lines.append(
            f"  monitor:                   health={digest['health']['state']}, "
            f"{digest['triggers']} triggers, {digest['incidents']} incidents -> "
            f"{args.monitor_out}"
        )
    return "\n".join(lines)


def _telemetry(args) -> str:
    from repro.telemetry import filter_spans, load_dump, render_report

    if args.telemetry_in is None:
        raise SystemExit("telemetry: --telemetry-in PATH is required")
    dump = load_dump(args.telemetry_in)
    if args.format == "openmetrics":
        from repro.telemetry import render_openmetrics

        # Exposition of the dump's metric snapshot (spans have no
        # OpenMetrics shape; the text report below covers them).
        return render_openmetrics(dump.metrics).rstrip("\n")
    if args.since is not None or args.until is not None:
        dump.spans = filter_spans(dump.spans, since_s=args.since, until_s=args.until)
        window = f"[{args.since if args.since is not None else '-inf'}, " \
                 f"{args.until if args.until is not None else '+inf'}]"
        dump.meta = {**dump.meta, "span_window_s": window}
    report = render_report(dump.spans, dump.metrics, dump.meta)
    if args.top is not None:
        from repro.telemetry.profile import profile_dump

        report += "\n" + profile_dump(dump).render_top(args.top)
    return report


def _ablations(args) -> str:
    from repro.experiments.ablations import (
        run_contention,
        run_dbn_ablation,
        run_floorplan_sweep,
        run_hysteresis_ablation,
        run_threshold_ablation,
    )

    parts = [
        run_threshold_ablation().render(),
        run_dbn_ablation().render(),
        run_hysteresis_ablation().render(),
        run_floorplan_sweep().render(),
        run_contention().render(),
    ]
    return "\n\n".join(parts)


COMMANDS: dict[str, tuple[Callable, str]] = {
    "table1": (_table1, "Table I: day/dusk/combined SVM accuracy"),
    "table2": (_table2, "Table II: resource utilization on XC7Z100"),
    "dark": (_dark, "Section III-B: dark-pipeline accuracy (paper: 95%)"),
    "throughput": (_throughput, "Section IV-A: PR throughput comparison"),
    "latency": (_latency, "Section IV-B: 20 ms PR = one dropped frame"),
    "fig1": (_fig1, "Fig. 1: training flow"),
    "fig2": (_fig2, "Fig. 2: day/dusk pipeline timing"),
    "fig4": (_fig4, "Fig. 3/4: dark pipeline timing"),
    "fig5": (_fig5, "Fig. 5: sample dark detections (ASCII)"),
    "fig6": (_fig6, "Fig. 6: SoC data-movement audit"),
    "fig7": (_fig7, "Fig. 7: PR controller event trace"),
    "fps": (_fps, "Headline: 50 fps HDTV at 125 MHz"),
    "ablations": (_ablations, "All five design-choice ablations"),
    "resources": (_resources, "Block-level resource breakdown of every design"),
    "adaptive": (_adaptive, "Extension: adaptive vs fixed pipelines end to end"),
    "drive": (_drive, "Adaptive drive on the SoC model (supports --fault-plan)"),
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["lint"]:
        # The lint subcommand has its own option surface (paths, --format,
        # --select, ...); delegate before the artefact parser sees it.
        from repro.analysis.cli import main as lint_main

        return lint_main(argv[1:])
    if argv[:1] == ["incident"]:
        # And for the incident-bundle tooling (list/show/report/replay/smoke).
        from repro.monitor.cli import main as incident_main

        return incident_main(argv[1:])
    if argv[:1] == ["fleet"]:
        # And for the many-vehicle fleet service (run/report/smoke).
        from repro.fleet.cli import main as fleet_main

        return fleet_main(argv[1:])
    if argv[:1] == ["quality"]:
        # And for the ground-truth quality plane (report/compare).
        from repro.quality.cli import main as quality_main

        return quality_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate artefacts of the DATE'19 adaptive-detection paper.",
    )
    parser.add_argument(
        "command",
        choices=sorted(COMMANDS) + ["all", "list", "telemetry"],
        help="artefact to reproduce",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="corpus scale for accuracy experiments (1.0 = paper sizes)",
    )
    parser.add_argument(
        "--trace",
        choices=["sunset", "tunnel", "urban"],
        default="sunset",
        help="illuminance trace for the drive command",
    )
    def positive_seconds(value: str) -> float:
        seconds = float(value)
        if seconds <= 0:
            raise argparse.ArgumentTypeError(f"duration must be positive, got {value}")
        return seconds

    parser.add_argument(
        "--duration",
        type=positive_seconds,
        default=60.0,
        help="drive duration in seconds (drive command)",
    )
    from repro.faults.scenarios import SCENARIOS

    parser.add_argument(
        "--fault-plan",
        choices=sorted(SCENARIOS) + ["none"],
        default="none",
        help="canned fault scenario for the drive command",
    )
    from repro.telemetry import TELEMETRY_FORMATS

    parser.add_argument(
        "--telemetry-out",
        default=None,
        metavar="PATH",
        help="record the drive and write a telemetry dump to PATH",
    )
    parser.add_argument(
        "--telemetry-format",
        choices=TELEMETRY_FORMATS,
        default="jsonl",
        help="telemetry dump format (drive command; default jsonl)",
    )
    parser.add_argument(
        "--telemetry-in",
        default=None,
        metavar="PATH",
        help="telemetry dump to summarise (telemetry command)",
    )
    parser.add_argument(
        "--format",
        choices=["text", "openmetrics"],
        default="text",
        help="telemetry report format (telemetry command; default text)",
    )
    parser.add_argument(
        "--top",
        type=int,
        default=None,
        metavar="N",
        help="also print the top-N hot spans by self time (telemetry command)",
    )
    parser.add_argument(
        "--since",
        type=float,
        default=None,
        metavar="S",
        help="keep only spans overlapping [S, ...] sim-seconds (telemetry command)",
    )
    parser.add_argument(
        "--until",
        type=float,
        default=None,
        metavar="S",
        help="keep only spans overlapping [..., S] sim-seconds (telemetry command)",
    )
    parser.add_argument(
        "--monitor-out",
        default=None,
        metavar="DIR",
        help="monitor the drive and write incident bundles under DIR",
    )
    args = parser.parse_args(argv)

    if args.command == "telemetry":
        from repro.errors import ConfigurationError

        if args.telemetry_in is None:
            print("telemetry: --telemetry-in PATH is required", file=sys.stderr)
            return 2
        try:
            print(_telemetry(args))
        except (OSError, ConfigurationError) as exc:
            print(f"telemetry: {exc}", file=sys.stderr)
            return 1
        return 0

    if args.command == "list":
        width = max(len(name) for name in COMMANDS)
        for name in sorted(COMMANDS):
            print(f"  {name:<{width}}  {COMMANDS[name][1]}")
        print(f"  {'lint':<{width}}  reprolint static analysis over src/ (see ANALYSIS.md)")
        print(f"  {'incident':<{width}}  flight-recorder bundles: list/report/replay (see MONITOR.md)")
        print(f"  {'fleet':<{width}}  many-vehicle drive service: run/report/smoke (see FLEET.md)")
        print(f"  {'quality':<{width}}  detection-quality baseline: report/compare (see QUALITY.md)")
        return 0

    names = sorted(COMMANDS) if args.command == "all" else [args.command]
    for name in names:
        runner, _ = COMMANDS[name]
        print(f"\n===== {name}: {COMMANDS[name][1]} =====")
        print(runner(args))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
