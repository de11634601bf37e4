"""One timed run of one workload, and the numbers it reports.

The run measures set-up (a cold import of the workload's modules in fresh
interpreters, plus in-process model training for the pixel workloads),
then the workload's items, then checks the outputs.  A fixed calibration
probe runs before and after so a run disturbed by other load on the
machine is flagged ``noisy``.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from bench import ROOT, THREAD_VARS
from bench.speed import NOMINAL_S, calibration_probe_s
from bench.layers import PIPELINES, RESIDUAL, Recorder, Tracing, layer_metrics
from bench.workloads import TRACE_BLOCK, WORKLOADS, Workload, run_fleet, run_pixel

SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
SPEC_PATH = ROOT / "BENCHMARK.json"

#: Set-up repetitions; set-up time is their median.  A pixel set-up takes
#: 4-8 s, the largest part of a run; with two, a pixel run stays near 36 s
#: on a 2-core box running 2x slow.
SETUP_REPS = 2
#: Calibration probes that differ by more than this flag the run noisy.
NOISE_TOLERANCE = 0.10


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def cold_import_s(modules: tuple[str, ...]) -> float:
    """Wall time from starting a fresh interpreter to its having imported ``modules``.

    The child stamps its own finish on the shared wall clock: waiting for a
    child under a timeout polls every 50 ms, which would round the time to
    that step.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.time()
    done = subprocess.run(
        [sys.executable, "-c", f"import {', '.join(modules)}; import time; print(repr(time.time()))"],
        env=env,
        cwd=ROOT,
        check=True,
        timeout=120,
        capture_output=True,
        text=True,
    )
    return float(done.stdout) - start


def machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            model = next(
                (line.split(":", 1)[1].strip() for line in cpuinfo if line.startswith("model name")),
                model,
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def end_to_end(item_s: list[float], extra_s: float, setup_s: float) -> dict[str, float]:
    item_ms = [s * 1e3 for s in item_s]
    return {
        "latency_ms_p50": statistics.median(item_ms),
        "latency_ms_p90": float(np.percentile(item_ms, 90)),
        "throughput_per_s": len(item_s) / (sum(item_s) + extra_s),
        "setup_s": setup_s,
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def tracing_overhead(item_s: list[float], block: int) -> float:
    """The wrappers' cost as a share of item time.

    ``item_s`` alternates traced and bare blocks of ``block`` items, traced
    first.  Each traced block is compared with the bare block after it, and
    the median of their time ratios, less one, is the overhead.  A run too
    short for one pair of blocks gives NaN, which fails every limit.
    """
    ratios = [
        sum(item_s[start : start + block]) / sum(item_s[start + block : start + 2 * block])
        for start in range(0, len(item_s) - 2 * block + 1, 2 * block)
    ]
    return statistics.median(ratios) - 1.0 if ratios else math.nan


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool, setup_reps: int) -> dict:
    """Run one workload and return its full report."""
    calibration_probe_s()  # first call pays page faults and caches
    probe_before = calibration_probe_s()
    import_s = [cold_import_s(workload.modules) for _ in range(setup_reps)]
    recorder = Recorder(max_spans=50_000 if trace else 0)
    tracing = Tracing(recorder, trace, TRACE_BLOCK)
    try:
        if workload.pixel:
            run = run_pixel(workload, seed, seconds, setup_reps, tracing)
        else:
            run = run_fleet(workload, seed, seconds, tracing)
    finally:
        tracing.end()
    probe_after = calibration_probe_s()

    # Items are rescaled one by one; the rest by the run's median speed.
    nominal = NOMINAL_S[workload.reference]
    slowdown = statistics.median(run.reference_s) / nominal
    setup_s = statistics.median(import_s) + (statistics.median(run.setup_s) if run.setup_s else 0.0)
    corrected = [wall * nominal / ref for wall, ref in zip(run.item_s, run.reference_s)]

    # End-to-end figures come from the bare items: all of an untraced run,
    # every other block of a traced one.
    bare = [k for k in range(len(run.item_s)) if not tracing.traced(k)]
    traced_items = len(run.item_s) - len(bare)
    report = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": all(run.checks.values()),
        "attempted": run.attempted,
        "failed": run.failed,
        "checks": run.checks,
        "samples": {"items": len(bare), "setup": setup_reps},
        "end_to_end": end_to_end([corrected[k] for k in bare], run.extra_s / slowdown, setup_s / slowdown),
        "wall": end_to_end([run.item_s[k] for k in bare], run.extra_s, setup_s),
        "slowdown": slowdown,
        "stats": run.stats,
        "detections_digest": run.detections_digest,
        "input_digest": run.input_digest,
        "noise": {
            "probe_before_s": probe_before,
            "probe_after_s": probe_after,
            "noisy": abs(probe_after - probe_before) > NOISE_TOLERANCE * probe_before,
        },
        "machine": machine(),
        "setup_import_s": import_s,
        "setup_build_s": run.setup_s,
        "item_ms": [x * 1e3 for x in run.item_s],
        "reference_ms": [x * 1e3 for x in run.reference_s],
    }
    if trace:
        traced_s = sum(s for k, s in enumerate(run.item_s) if tracing.traced(k)) + run.extra_s
        report["samples"]["traced_items"] = traced_items
        report["per_layer"] = {
            **layer_metrics(recorder, traced_items, max(setup_reps, 1), slowdown),
            **run.stats,
        }
        report["pipeline_share"] = {
            pipeline: recorder.self_s("measure", pipeline=pipeline) / traced_s for pipeline in sorted(PIPELINES)
        }
        report["residual_share"] = recorder.self_s("measure", RESIDUAL) / traced_s
        report["overhead"] = tracing_overhead(corrected, TRACE_BLOCK)
        path = OUT / f"trace-{workload.name}-seed{seed}.json"
        recorder.write_chrome_trace(path)
        report["chrome_trace"] = str(path.relative_to(ROOT))
        report["spans_dropped"] = recorder.spans_dropped
    return report


def contract_metrics(report: dict, spec: dict) -> dict:
    """The declared metrics of the run's kind, each with its unit.

    Raises ValueError when the run computed a different set of names than
    BENCHMARK.json declares.
    """
    kind, values = ("per_layer", report["per_layer"]) if report["trace"] else ("end_to_end", report["end_to_end"])
    declared = {m["name"]: m["unit"] for m in spec[kind]}
    if set(declared) != set(values):
        raise ValueError(
            f"{kind} metrics differ from BENCHMARK.json: "
            f"undeclared {sorted(set(values) - set(declared))}, missing {sorted(set(declared) - set(values))}"
        )
    return {name: {"value": values[name], "unit": unit} for name, unit in declared.items()}


def main(workload: str, seed: int, seconds: float, trace: bool, quick: bool, out: str | None) -> int:
    spec = load_spec()
    report = run_workload(WORKLOADS[workload], seed, seconds, trace, 1 if quick else SETUP_REPS)
    metrics = contract_metrics(report, spec)
    if out:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        Path(out).write_text(json.dumps(report, indent=1, sort_keys=True))
    for name, check in report["checks"].items():
        print(f"check {name}: {'ok' if check else 'FAILED'}")
    print(f"detections_digest {report['detections_digest']}")
    print(f"input_digest {report['input_digest']}")
    noise = report["noise"]
    print(
        f"calibration probe {noise['probe_before_s'] * 1e3:.1f} -> {noise['probe_after_s'] * 1e3:.1f} ms"
        + (" NOISY" if noise["noisy"] else "")
    )
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": report["correct"],
                "attempted": report["attempted"],
                "failed": report["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if report["correct"] and report["failed"] == 0 else 1
