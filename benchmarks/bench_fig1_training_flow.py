"""Bench F1 — paper Fig. 1: the HOG -> LibLINEAR training flow.

Runs the full flow (day / dusk / combined corpora -> three SVM models) and
checks the paper's observation that the three trained models "look very
different"; times model training.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import run_once
from repro.experiments.figures import run_training_flow


def test_reproduce_training_flow(benchmark, repro_scale, report_sink):
    scale = min(repro_scale, 0.5)  # training-flow stats stabilise early
    result = run_once(benchmark, run_training_flow, scale=scale, seed=0)
    report_sink.append(result.render())
    assert result.shape_checks()["models_look_very_different"]


def test_combined_model_trained_on_both_corpora(benchmark, repro_scale):
    result = run_once(benchmark, run_training_flow, scale=min(repro_scale, 0.5), seed=0)
    n_day = result.model_meta["day"]["n_train"]
    n_dusk = result.model_meta["dusk"]["n_train"]
    assert result.model_meta["combined"]["n_train"] == n_day + n_dusk


def test_benchmark_svm_training(benchmark):
    """Time one LibLINEAR-style training run on HOG features."""
    from repro.experiments.common import build_corpora
    from repro.features.hog import HogDescriptor
    from repro.ml.svm import LinearSvm
    from repro.pipelines.day_dusk import hog_features_for_dataset

    corpora = build_corpora(scale=0.15, seed=3)
    hog = HogDescriptor()
    features = hog_features_for_dataset(corpora.day_train, hog)
    model = benchmark(LinearSvm().train, features, corpora.day_train.labels)
    assert model.meta["epochs"] >= 1
