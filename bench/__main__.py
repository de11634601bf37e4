"""Command line of the benchmark.

    python3 -m bench --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

runs one workload in this process and prints, as its last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics of BENCHMARK.json untraced, the per-layer ones traced).

    python3 -m bench [--seed N] [--trace] [--quick] [--out FILE]

runs every workload, each in a fresh child process, prints one table, and
writes the reports to FILE (default ``bench/out/results-seed<N>.json``).
``--trace`` adds a traced run of each workload and checks the residual,
the tracing overhead and each workload's shape.  ``--quick`` is a smoke
run: 2 s per workload and one set-up.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from bench import ROOT, THREAD_VARS

QUICK_SECONDS = 2.0
#: Largest tracing overhead (lost throughput) the trace checks accept.
MAX_OVERHEAD = {"pixel": 0.05, "fleet": 0.10}
#: Largest share of the item total left outside every declared layer.
MAX_RESIDUAL = 0.02


def _child(args: argparse.Namespace, workload: str, seconds: float, trace: bool) -> dict | None:
    """The child's report, or None when it crashed, timed out or failed."""
    from bench.run import OUT

    out = OUT / f"{workload}-seed{args.seed}-trace{int(trace)}.json"
    out.unlink(missing_ok=True)  # a report left by an earlier run is never this run's
    command = [
        sys.executable, "-m", "bench",
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(seconds),
        "--trace", str(int(trace)),
        "--out", str(out),
    ]  # fmt: skip
    if args.quick:
        command.append("--quick")
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    except subprocess.TimeoutExpired as exc:
        print(f"{workload}: no result within {exc.timeout:.0f} s", file=sys.stderr)
        return None
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        return None
    return json.loads(out.read_text())


def _trace_checks(workload, traced: dict) -> dict[str, bool]:
    from bench.workloads import shape_checks

    kind = "pixel" if workload.pixel else "fleet"
    return {
        f"residual_within_{MAX_RESIDUAL:.0%}": traced["residual_share"] <= MAX_RESIDUAL,
        f"overhead_within_{MAX_OVERHEAD[kind]:.0%}": traced["overhead"] <= MAX_OVERHEAD[kind],
        **shape_checks(workload.name, traced),
    }


def _print_workload(name: str, entry: dict, units: dict[str, str]) -> None:
    report = entry["untraced"]
    items, setups = report["samples"]["items"], report["samples"]["setup"]
    print(f"\n{name}  seed={report['seed']}  {'noisy' if report['noise']['noisy'] else ''}")
    for metric, value in report["end_to_end"].items():
        n = setups if metric == "setup_s" else 1 if metric == "peak_rss_mb" else items
        wall = report["wall"][metric]
        print(f"  {metric:<18} {value:>12.4f} {units[metric]:<5} n={n:<4} wall {wall:.4f}")
    print(f"  machine slowdown   {report['slowdown']:>12.3f}x")
    print(f"  detections_digest  {report['detections_digest'][:16]}")
    traced = entry.get("traced")
    if traced:
        print(
            f"  tracing overhead   {traced['overhead']:>+11.1%}  residual {traced['residual_share']:.2%}"
            f"  traced items {traced['samples']['traced_items']}"
        )
        top = sorted(
            (
                (k[: -len(".self_ms")], v)
                for k, v in traced["per_layer"].items()
                if k.endswith(".self_ms") and not k.startswith("setup.")
            ),
            key=lambda kv: -kv[1],
        )[:6]
        print("  top self ms/item   " + ", ".join(f"{k} {v:.2f}" for k, v in top))
        for check, ok in entry["trace_checks"].items():
            print(f"  check {check}: {'ok' if ok else 'FAILED'}")


def orchestrate(args: argparse.Namespace) -> int:
    from bench.run import OUT, load_spec
    from bench.workloads import WORKLOADS

    spec = load_spec()
    seconds = QUICK_SECONDS if args.quick else float(spec["run_seconds"])
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    results: dict = {"seed": args.seed, "seconds": seconds, "workloads": {}}
    ok = True
    for name, workload in WORKLOADS.items():
        untraced = _child(args, name, seconds, trace=False)
        traced = _child(args, name, seconds, trace=True) if args.trace and untraced else None
        if untraced is None or (args.trace and traced is None):
            print(f"\n{name}: run failed", file=sys.stderr)
            ok = False
            continue
        entry: dict = {"untraced": untraced}
        if traced is not None:
            entry["traced"] = traced
            entry["trace_checks"] = _trace_checks(workload, traced)
            ok = ok and all(entry["trace_checks"].values())
        results["workloads"][name] = entry
        _print_workload(name, entry, units)
    out = Path(args.out) if args.out else OUT / f"results-seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1, sort_keys=True))
    print(f"\nreports: {out}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload in this process (the driver contract)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="measured seconds (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", nargs="?", const="1", default="0", choices=("0", "1"))
    parser.add_argument("--quick", action="store_true", help="smoke run: 2 s per workload, one set-up")
    parser.add_argument("--out", help="write the full report(s) here as JSON")
    args = parser.parse_args(argv)
    args.trace = args.trace == "1"

    try:
        import repro
    except ImportError as exc:
        print(f"cannot import the system under test from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"repro was imported from {repro.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2

    if args.workload is None:
        return orchestrate(args)
    from bench.run import load_spec, main as run_main
    from bench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (one of {', '.join(WORKLOADS)})")
    seconds = QUICK_SECONDS if args.quick else args.seconds or float(load_spec()["run_seconds"])
    return run_main(args.workload, args.seed, seconds, args.trace, args.quick, args.out)


if __name__ == "__main__":
    # Before numpy loads: one BLAS/OpenMP thread, and the system under test
    # from this checkout's src/.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
