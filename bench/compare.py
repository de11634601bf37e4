"""Compare two sets of benchmark reports, metric by metric.

    python3 -m bench.compare A.json [A.json ...] -- B.json [B.json ...]

Each file is a report from ``python3 -m bench --workload W --out FILE`` or
a results file from ``python3 -m bench --out FILE``.  For every
(workload, metric) found on both sides it prints each side's median and
quartiles and, for the end-to-end metrics, a verdict against the metric's
bound in BENCHMARK.json.  It exits 1 when any metric regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from bench import ROOT


def spread(values: list[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(a: list[float], b: list[float], bound: float, better: str) -> str:
    """How B compares with A for a metric with this bound.

    * ``unresolved``: a side's quartile spread is wider than the bound and
      B's runs do not all beat A's;
    * ``regressed`` / ``improved``: B's median is worse / better than A's
      by more than the bound (all B runs beating all A runs also counts as
      improved when the spread is too wide to tell otherwise);
    * ``unchanged``: otherwise.
    """
    sign = 1.0 if better == "lower" else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    worse_by = sign * (med_b - med_a) / abs(med_a)
    b_dominates = max(b) < min(a) if better == "lower" else min(b) > max(a)
    if max(spread(a), spread(b)) > bound:
        return "improved" if b_dominates else "unresolved"
    if worse_by > bound:
        return "regressed"
    if worse_by < -bound:
        return "improved"
    return "unchanged"


def load_reports(paths: list[str]) -> list[dict]:
    """Single-workload reports from report or results files."""
    reports = []
    for path in paths:
        doc = json.loads(Path(path).read_text())
        if "workloads" in doc:
            for entry in doc["workloads"].values():
                reports.extend(entry[kind] for kind in ("untraced", "traced") if kind in entry)
        else:
            reports.append(doc)
    return reports


def collect(reports: list[dict]) -> dict[tuple[str, str], list[float]]:
    values: dict[tuple[str, str], list[float]] = {}
    for report in reports:
        # A traced run's end-to-end numbers carry the tracing overhead.
        section = "per_layer" if report["trace"] else "end_to_end"
        for metric, value in report[section].items():
            values.setdefault((report["workload"], metric), []).append(float(value))
    return values


def digest_mismatches(a: list[dict], b: list[dict]) -> list[str]:
    """(workload, seed) pairs whose detections differ between the sides."""
    seen: dict[tuple[str, int], set[str]] = {}
    for report in a + b:
        seen.setdefault((report["workload"], report["seed"]), set()).add(report["detections_digest"])
    return [f"{workload} seed {seed}" for (workload, seed), digests in sorted(seen.items()) if len(digests) > 1]


def _quartiles(values: list[float]) -> str:
    median = statistics.median(values)
    if len(values) < 2:
        return f"{median:.4g}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if "--" not in args or not args[: args.index("--")] or not args[args.index("--") + 1 :]:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    cut = args.index("--")
    side_a, side_b = load_reports(args[:cut]), load_reports(args[cut + 1 :])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    values_a, values_b = collect(side_a), collect(side_b)
    regressed = False
    print(f"{'workload':<16} {'metric':<40} {'A median [q1, q3]':<30} {'B median [q1, q3]':<30} {'change':>8}  verdict")
    for key in sorted(set(values_a) & set(values_b)):
        workload, metric = key
        a, b = values_a[key], values_b[key]
        med_a, med_b = statistics.median(a), statistics.median(b)
        change = f"{(med_b - med_a) / abs(med_a):+.1%}" if med_a else "-"
        meta = declared.get(metric, {})
        result = verdict(a, b, meta["bound"], meta["better"]) if "bound" in meta else "-"
        regressed = regressed or result == "regressed"
        print(f"{workload:<16} {metric:<40} {_quartiles(a):<30} {_quartiles(b):<30} {change:>8}  {result}")
    for mismatch in digest_mismatches(side_a, side_b):
        print(f"detections differ: {mismatch}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
