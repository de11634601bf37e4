#!/usr/bin/env bash
# The one-command local CI gate: style, types, project invariants, tests,
# and the paired benchmark gate.
#
#   ./scripts/check.sh          # everything
#   ./scripts/check.sh --fast   # skip the (slow) full pytest tier and benchmark pairs
#
# ruff and mypy come from the optional `lint` extra (pip install -e .[lint]);
# when they are not installed the gate reports and skips them rather than
# failing, so the script works in the minimal offline environment too.
set -euo pipefail
cd "$(dirname "$0")/.."

fast=0
[[ "${1:-}" == "--fast" ]] && fast=1

status=0

if command -v ruff >/dev/null 2>&1; then
    echo "== ruff check"
    ruff check src tests benchmarks || status=1
else
    echo "== ruff not installed; skipping (pip install -e .[lint])"
fi

if command -v mypy >/dev/null 2>&1; then
    echo "== mypy"
    mypy || status=1
else
    echo "== mypy not installed; skipping (pip install -e .[lint])"
fi

echo "== repro lint (whole-program pass, gated on LINT_BASELINE.json; SARIF artifact: lint.sarif)"
PYTHONPATH=src python -m repro lint src --jobs 4 \
    --compare-baseline LINT_BASELINE.json --sarif-out lint.sarif || status=1

echo "== python3 -m bench --quick (benchmark smoke: every workload runs and checks its outputs)"
python3 -m bench --quick >/dev/null || status=1

if [[ $fast -eq 0 ]]; then
    echo "== scripts/bench_ab.sh (paired benchmark runs vs the merge base with main)"
    # Both sides run on this box in alternation, so machine load hits both
    # alike.  Fails when a workload's p50/p90 latency, throughput or set-up
    # time is worse than at the merge base by more than its BENCHMARK.json
    # bound (20-25%), or its peak RSS by more than 5%: e.g. the HOG
    # gradient computed twice per frame, or a copy of the event queue per
    # simulator event.  A smaller slowdown, or a 1.5x one confined to a
    # single layer, passes (PERF.md, "The regression gate").  An un-batched
    # window scan is caught deterministically by
    # tests/equivalence/test_scan_pruning.py::TestStaysBatched.
    ./scripts/bench_ab.sh "$(git merge-base HEAD main)" || status=1
else
    echo "== bench_ab.sh: skipped (--fast)"
fi

echo "== pytest -m equivalence (run_drive and the pixel detector as one drive loop; hot scans vs per-window test oracles; the HOG front end shared by both partitions vs an empty memo; colour split, luma bands and threshold histogram vs plain formulas; SVM, DBN logistic and crop-blur trainers vs straightforward oracles; run labeller vs scipy.ndimage.label; Rect.iou and match_detections vs oracles; sim-only drive surface vs golden pins; byte for byte)"
PYTHONPATH=src python -m pytest -x -q -m equivalence || status=1

echo "== repro incident smoke (flight recorder: induce, bundle, replay)"
PYTHONPATH=src python -m repro incident smoke --duration 20 --scenario flaky_dma >/dev/null || status=1

echo "== repro fleet smoke (sharded drives vs inline digest re-check)"
PYTHONPATH=src python -m repro fleet smoke >/dev/null || status=1

echo "== repro fleet top --once (live-plane smoke + OpenMetrics exposition check)"
fleet_tmp=$(mktemp -d)
PYTHONPATH=src python -m repro fleet top --once --count 4 --duration 1.0 >/dev/null || status=1
PYTHONPATH=src python -m repro fleet run --count 4 --workers 2 --duration 1.0 \
    --out "$fleet_tmp/FLEET_check.json" --metrics-out "$fleet_tmp/fleet.om" >/dev/null || status=1
if ! grep -q "^# EOF" "$fleet_tmp/fleet.om"; then
    echo "check.sh: OpenMetrics exposition missing '# EOF' terminator" >&2
    status=1
fi
rm -rf "$fleet_tmp"

echo "== repro quality compare (detection-quality ratchet vs committed baseline)"
PYTHONPATH=src python -m repro quality compare QUALITY_BASELINE.json >/dev/null || status=1

if [[ $fast -eq 0 ]]; then
    echo "== pytest (tier 1)"
    PYTHONPATH=src python -m pytest -x -q || status=1
    # bench/tests sits outside the tier-1 testpaths; it pins the benchmark's
    # entry points and layer table (~55 s), so renaming a traced function
    # such as cell_histograms_from_field fails here.
    echo "== pytest bench/tests (benchmark harness and layer table)"
    PYTHONPATH=src python -m pytest -q bench/tests || status=1
else
    echo "== pytest: skipped (--fast); run the analysis tier at least:"
    PYTHONPATH=src python -m pytest -x -q -m analysis || status=1
    # The layer table names traced callables (PedestrianDetector.detect,
    # HogSvmVehicleDetector.detect_multiscale); renaming one fails here.
    echo "== pytest bench/tests/test_layers.py (benchmark layer table)"
    PYTHONPATH=src python -m pytest -q bench/tests/test_layers.py || status=1
fi

if [[ $status -eq 0 ]]; then
    echo "check.sh: all gates passed"
else
    echo "check.sh: FAILED" >&2
fi
exit $status
