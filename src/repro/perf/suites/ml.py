"""ML hot paths: the sliding-DBN grid scan and the linear-SVM batch.

The DBN here is the paper's 81-20-8-4 taillight classifier, trained just
enough to exercise the real prediction path; the grid workload runs the
dark pipeline's stride-2 9x9 grid scan (occupancy filter, window gather,
batched forward passes) without dragging the full detector's training
corpus into a benchmark setup.
"""

from __future__ import annotations

import numpy as np

from repro.ml.dbn import DbnConfig, DeepBeliefNetwork
from repro.ml.logistic import SoftmaxConfig
from repro.ml.rbm import RbmConfig
from repro.perf.registry import BenchContext, bench
from repro.pipelines.dark import DBN_WINDOW, DarkVehicleDetector


def _tiny_dbn(ctx: BenchContext) -> DeepBeliefNetwork:
    """A cheaply trained DBN with the paper architecture."""
    config = DbnConfig(
        rbm=RbmConfig(epochs=1, seed=7),
        head=SoftmaxConfig(epochs=5),
        finetune_epochs=0,
        seed=7,
    )
    dbn = DeepBeliefNetwork(config)
    train = (ctx.rng.random((64, DBN_WINDOW * DBN_WINDOW)) > 0.5).astype(np.float64)
    labels = ctx.rng.integers(0, config.n_classes, size=64)
    ctx.digest(train, labels)
    dbn.fit(train, labels)
    return dbn


@bench("dbn_grid_scan_ms", group="ml", kind="micro", summary="stride-2 9x9 DBN grid scan")
def dbn_grid_scan(ctx: BenchContext):
    dbn = _tiny_dbn(ctx)
    height, width = (45, 80) if ctx.smoke else (60, 110)
    mask = (ctx.rng.random((height, width)) > 0.85).astype(np.float64)
    ctx.digest(mask)
    detector = DarkVehicleDetector(dbn=dbn)

    def run():
        return detector.dbn_grid(mask)

    return run


@bench("dbn_forward_ms", group="ml", kind="micro", summary="batched DBN forward pass")
def dbn_forward(ctx: BenchContext):
    dbn = _tiny_dbn(ctx)
    n = 256 if ctx.smoke else 1024
    batch = (ctx.rng.random((n, DBN_WINDOW * DBN_WINDOW)) > 0.5).astype(np.float64)
    ctx.digest(batch)

    def run():
        return dbn.predict_proba(batch)

    return run
