"""Sliding-window scan hot paths: the gathered-matrix SVM scan and DBN grid.

The per-window scans these replaced live in ``tests/equivalence`` as
oracles; the equivalence suite (pytest -m equivalence) proves the hot paths
return byte-identical results and spies that they stay batched.
"""

from __future__ import annotations

import numpy as np

from repro.features.hog import HogConfig, HogDescriptor
from repro.ml.dbn import DbnConfig, DeepBeliefNetwork
from repro.ml.linear import LinearModel
from repro.ml.logistic import SoftmaxConfig
from repro.ml.rbm import RbmConfig
from repro.perf.registry import BenchContext, bench
from repro.pipelines.dark import DBN_WINDOW, DarkVehicleDetector


def _svm_scan_setup(ctx: BenchContext):
    """Dense blocks + model for the scoring stage.

    The dense HOG extraction stays in setup; the timed region is exactly
    what the batching changed — score every window of the frame against
    the SVM.
    """
    descriptor = HogDescriptor(HogConfig(window=(64, 64)))
    plane = ctx.rng.random((96, 160) if ctx.smoke else (128, 256))
    weights = ctx.rng.normal(size=descriptor.feature_length)
    ctx.digest(plane, weights)
    blocks, layout = descriptor.extract_dense(plane)
    model = LinearModel(weights=weights, bias=0.1)
    ctx.note("n_windows", layout.window_index_grid(1).shape[0])
    return blocks, layout, model


@bench(
    "svm_scan_batched_ms",
    group="scan",
    summary="score every frame window, gathered-matrix hot path",
)
def svm_scan_batched(ctx: BenchContext):
    blocks, layout, model = _svm_scan_setup(ctx)
    n = layout.window_index_grid(1).shape[0]
    features = np.empty((n, layout.config.feature_length))
    scores = np.empty(n)

    def run():
        model.decision_batch(
            layout.window_feature_matrix(blocks, cell_stride=1, out=features), out=scores
        )
        return scores

    return run


def _dark_detector(ctx: BenchContext) -> DarkVehicleDetector:
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
    return DarkVehicleDetector(dbn=dbn)


def _dark_mask(ctx: BenchContext) -> np.ndarray:
    height, width = (45, 80) if ctx.smoke else (60, 110)
    mask = (ctx.rng.random((height, width)) > 0.85).astype(np.float64)
    ctx.digest(mask)
    return mask


@bench(
    "dbn_grid_batched_ms",
    group="scan",
    summary="dark DBN grid, chunked-batch hot path",
)
def dbn_grid_batched(ctx: BenchContext):
    detector = _dark_detector(ctx)
    mask = _dark_mask(ctx)

    def run():
        return detector.dbn_grid(mask)

    return run


@bench(
    "hog_window_gather_ms",
    group="scan",
    summary="dense-block window gather into one feature matrix",
)
def hog_window_gather(ctx: BenchContext):
    descriptor = HogDescriptor(HogConfig(window=(64, 64)))
    frame = ctx.rng.random((96, 160) if ctx.smoke else (128, 256))
    ctx.digest(frame)
    blocks, layout = descriptor.extract_dense(frame)
    n = layout.window_index_grid(1).shape[0]
    out = np.empty((n, descriptor.feature_length))

    def run():
        return layout.window_feature_matrix(blocks, cell_stride=1, out=out)

    return run


@bench(
    "hog_extract_batch_ms",
    group="scan",
    summary="batched HOG descriptors for a stack of crops",
)
def hog_extract_batch(ctx: BenchContext):
    descriptor = HogDescriptor(HogConfig(window=(64, 64)))
    n = 8 if ctx.smoke else 32
    stack = ctx.rng.random((n, 64, 64))
    ctx.digest(stack)

    def run():
        return descriptor.extract_batch(stack)

    return run
