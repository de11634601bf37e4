#!/usr/bin/env bash
# Paired A/B regression gate on the benchmark (python3 -m bench, BENCHMARK.json).
#
#   ./scripts/bench_ab.sh <base-ref>     # e.g. "$(git merge-base HEAD main)"
#
# Checks <base-ref> out into a temporary git worktree and runs
# `python3 -m bench --quick` there and in this working tree once per seed
# below, alternating which side goes first, each side on its own src/.
# Exits with the status of `python3 -m bench.compare base... -- head...`:
# 1 when a workload's end-to-end metric (p50/p90 latency, throughput,
# set-up, peak RSS) is worse than the base by more than its BENCHMARK.json
# bound with the quartile spread of both sides inside that bound.  It also
# exits 1 when the compare prints `detections differ:`, i.e. a workload's
# detections digest for some seed is not the same on both sides.  A
# benchmark run that fails exits non-zero before the compare.
#
# Five pairs: sized in PERF.md ("The regression gate") by self-compares
# and seeded slowdowns; a gate run takes about 6 minutes on a 2-core box.
set -euo pipefail
cd "$(dirname "$0")/.."

SEEDS=(1 2 3 4 5)

if [[ $# -ne 1 ]]; then
    echo "usage: scripts/bench_ab.sh <base-ref>" >&2
    exit 2
fi

head_dir=$PWD
tmp=$(mktemp -d)
trap 'git worktree remove --force "$tmp/base" >/dev/null 2>&1 || true; git worktree prune; rm -rf "$tmp"' EXIT
git worktree add --quiet --detach "$tmp/base" "$1"

run() {  # side directory seed
    if ! (cd "$2" && PYTHONPATH="$2/src" python3 -m bench --quick --seed "$3" \
            --out "$tmp/$1-seed$3.json" >"$tmp/$1-seed$3.log" 2>&1); then
        cat "$tmp/$1-seed$3.log" >&2
        echo "bench_ab.sh: the $1 run of seed $3 failed" >&2
        exit 1
    fi
}

for i in "${!SEEDS[@]}"; do
    seed=${SEEDS[$i]}
    if ((i % 2 == 0)); then
        run base "$tmp/base" "$seed"
        run head "$head_dir" "$seed"
    else
        run head "$head_dir" "$seed"
        run base "$tmp/base" "$seed"
    fi
done

status=0
python3 -m bench.compare "$tmp"/base-seed*.json -- "$tmp"/head-seed*.json \
    | tee "$tmp/compare.txt" || status=$?
if grep -q '^detections differ:' "$tmp/compare.txt"; then
    echo "bench_ab.sh: detections differ between base and head" >&2
    exit 1
fi
exit "$status"
