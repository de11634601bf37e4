"""The repository's benchmark: see bench/README.md and BENCHMARK.json."""

from pathlib import Path

#: The checkout the benchmark runs in: BENCHMARK.json, bench/ and src/.
ROOT = Path(__file__).resolve().parent.parent

#: BLAS/OpenMP pools are pinned to one thread: one frame in flight on one core.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
