"""Adaptive drive: the full system over a sunset and an urban evening.

Simulates the paper's end-to-end story on the Zynq SoC model: the ambient
light sensor drives the hysteresis controller; day <-> dusk swaps the
BRAM-resident SVM model instantly; dusk <-> dark partially reconfigures the
vehicle partition through the paper's PR controller (~20 ms, one dropped
frame at 50 fps) while pedestrian detection never misses a frame.

With ``--fault-plan`` the same drive runs under a canned fault scenario
(see FAULTS.md): DMA aborts, corrupt bitstreams, PR watchdog timeouts,
sensor blackouts, detector exceptions — while the pedestrian partition
still processes every frame.

Run:  python examples/adaptive_drive.py [--trace sunset|tunnel|urban]
                                        [--fault-plan worst_case|...]
"""

from __future__ import annotations

import argparse

from repro.adaptive.sensor import sunset_trace, tunnel_trace, urban_evening_trace
from repro.core.system import AdaptiveDetectionSystem
from repro.faults.scenarios import SCENARIOS, get_scenario


TRACES = {
    "sunset": lambda: sunset_trace(duration_s=120.0),
    "tunnel": lambda: tunnel_trace(duration_s=60.0),
    "urban": lambda: urban_evening_trace(duration_s=120.0),
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace", choices=sorted(TRACES), default="sunset")
    parser.add_argument(
        "--fault-plan",
        choices=sorted(SCENARIOS) + ["none"],
        default="none",
        help="canned fault scenario to inject during the drive",
    )
    args = parser.parse_args()

    trace = TRACES[args.trace]()
    plan = None
    if args.fault_plan != "none":
        plan = get_scenario(args.fault_plan, duration_s=trace.duration)
    system = AdaptiveDetectionSystem(fault_plan=plan)
    print(f"=== Driving the '{args.trace}' illuminance trace "
          f"({trace.duration:.0f} s at 50 fps"
          + (f", fault plan '{args.fault_plan}'" if plan else "")
          + ") ===\n")
    report = system.run_drive(trace)

    print("timeline:")
    events: list[tuple[float, str]] = []
    for change in report.condition_changes:
        events.append(
            (change.time_s,
             f"condition {change.previous.value} -> {change.new.value} "
             f"({change.lux:.1f} lx)")
        )
    for t, model in report.model_swaps:
        events.append((t, f"model swap -> {model} SVM (BRAM select, no downtime)"))
    for rec in report.reconfigurations:
        events.append(
            (rec.start_s,
             f"partial reconfiguration -> {rec.bitstream} "
             f"({rec.duration_s * 1e3:.1f} ms @ {rec.throughput_mb_s:.0f} MB/s)")
        )
    for t, message in sorted(events):
        print(f"  t={t:7.2f}s  {message}")

    summary = report.summary()
    print("\nframe accounting:")
    print(f"  frames issued:              {summary['frames']}")
    print(f"  vehicle frames dropped:     {summary['vehicle_dropped']} "
          f"({summary['drops_per_reconfiguration']:.1f} per reconfiguration)")
    print(f"  pedestrian frames dropped:  {summary['pedestrian_dropped']} "
          f"(the static partition never stops)")

    if plan is not None:
        print("\nfault audit:")
        print(f"  fault firings:              {plan.firings()}")
        print(f"  frames with fault events:   {summary['frames_with_faults']}")
        print(f"  frames degraded (fallback): {summary['frames_degraded']}")
        print(f"  failed reconfigurations:    {summary['failed_reconfigurations']}")
        for event in report.degradations:
            print(f"    t={event.time_s:7.2f}s  {event.label()}")
        ped_ok = all(f.pedestrian_accepted for f in report.frames)
        print(f"  pedestrian partition:       "
              f"{'processed 100% of frames' if ped_ok else 'DROPPED FRAMES (BUG)'}")

    # Condition occupancy.
    occupancy: dict[str, int] = {}
    for frame in report.frames:
        occupancy[frame.condition.value] = occupancy.get(frame.condition.value, 0) + 1
    print("\ncondition occupancy:")
    for name, count in sorted(occupancy.items()):
        bar = "#" * int(40 * count / summary["frames"])
        print(f"  {name:5s} {count:6d} frames {bar}")

    if args.trace == "tunnel":
        print("\nNote: the tunnel is lit, so it is classified as dusk — handled "
              "by a model swap; no partial reconfiguration was needed "
              "(Section IV-B of the paper).")


if __name__ == "__main__":
    main()
