"""Cyclic-GC cost of fleet drives, per generation, in the benchmark's pattern.

    PYTHONPATH=src python3 scripts/gc_per_drive.py [--drives 60] [--seed 0]

Runs ``fleet_sim``'s drives (``bench.workloads.fleet_specs``: 6-s sim-only
drives with telemetry, monitor and quality on, every fourth with a canned
fault) through ``execute_spec`` after the benchmark's ten warm-up drives,
keeping every outcome as the benchmark does, and times each collection the
interpreter runs with ``gc.callbacks``.  Prints, per generation, the
collections and milliseconds per drive, and the unreachable objects one
drive leaves when run with the collector off.  Nothing here changes a
collector setting: the thresholds are the interpreter's defaults.
"""

from __future__ import annotations

import argparse
import gc
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench.workloads import WARMUP_ITEMS, fleet_specs  # noqa: E402
from repro.fleet.worker import execute_spec  # noqa: E402


def _execute(spec):
    return execute_spec(spec, monitored=True, record_latency=True, quality=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--drives", type=int, default=60)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    for spec in fleet_specs(args.seed, WARMUP_ITEMS, prefix="warmup"):
        _execute(spec)
    specs = fleet_specs(args.seed, args.drives)

    collections = [0, 0, 0]
    seconds = [0.0, 0.0, 0.0]
    started: list[float] = []

    def on_gc(phase: str, info: dict) -> None:
        if phase == "start":
            started.append(time.perf_counter())
        else:
            generation = info["generation"]
            collections[generation] += 1
            seconds[generation] += time.perf_counter() - started.pop()

    outcomes = []
    gc.callbacks.append(on_gc)
    wall = time.perf_counter()
    try:
        for spec in specs:
            outcomes.append(_execute(spec))
    finally:
        wall = time.perf_counter() - wall
        gc.callbacks.remove(on_gc)

    gc.collect()
    gc.disable()
    try:
        _execute(specs[0])
        unreachable = gc.collect()
    finally:
        gc.enable()

    n = len(specs)
    print(f"{n} drives, {wall / n * 1e3:.1f} ms a drive")
    for generation in range(3):
        print(
            f"gen{generation}: {collections[generation] / n:.2f} collections and "
            f"{seconds[generation] / n * 1e3:.2f} ms a drive "
            f"({collections[generation]} in all)"
        )
    print(f"total: {sum(seconds) / n * 1e3:.2f} ms a drive")
    print(f"unreachable after one drive with the collector off: {unreachable}")


if __name__ == "__main__":
    main()
