"""Differential tests for detector set-up (paper Fig. 1 training flow).

``train_condition_models`` extracts HOG once per training corpus and trains
the combined model on the two feature matrices stacked.  It is pinned here
against the straightforward flow: one HOG pass and one SVM fit per corpus,
the combined corpus built by concatenating both corpora's crops and labels.
Weights, bias and ``meta`` must match bit for bit.

``build_corpora`` renders only the training corpora; each test corpus
renders on first access.  The lazy corpora are pinned byte for byte against
eager ``make_upm_like`` / ``make_sysu_like`` calls with the test sizes and
seeds spelled out here.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.datasets.samples import ClassificationDataset
from repro.datasets.synthetic import make_sysu_like, make_upm_like
from repro.experiments.common import build_corpora
from repro.features.hog import HogDescriptor
from repro.ml.svm import LinearSvm, SvmConfig
from repro.pipelines.day_dusk import DayDuskConfig, hog_features_for_dataset, train_condition_models

pytestmark = pytest.mark.equivalence


def oracle_train(dataset: ClassificationDataset, name: str, config: DayDuskConfig):
    features = hog_features_for_dataset(dataset, HogDescriptor(config.hog))
    model = LinearSvm(SvmConfig(c=config.svm_c)).train(features, dataset.labels, name=name)
    model.meta["train_corpus"] = dataset.name
    return model


def oracle_condition_models(day: ClassificationDataset, dusk: ClassificationDataset):
    config = DayDuskConfig()
    combined = ClassificationDataset(
        name="combined",
        condition=day.condition,
        images=np.concatenate([day.images, dusk.images]),
        labels=np.concatenate([day.labels, dusk.labels]),
    )
    return {
        "day": oracle_train(day, "day", config),
        "dusk": oracle_train(dusk, "dusk", config),
        "combined": oracle_train(combined, "combined", config),
    }


def oracle_test_corpora(scale: float, seed: int):
    """The test corpora as rendered eagerly: 200/25 day, 1063/752/100 dusk."""

    def n(count: int, minimum: int = 4) -> int:
        return max(minimum, int(math.ceil(count * scale)))

    day = make_upm_like(n_positive=n(200), n_negative=n(25, minimum=2), seed=seed + 3)
    dusk = make_sysu_like(
        n_positive=n(1063),
        n_negative=n(752),
        n_very_dark_positive=n(100, minimum=2),
        seed=seed + 4,
    )
    return day, dusk


def assert_datasets_equal(got: ClassificationDataset, want: ClassificationDataset) -> None:
    assert got.name == want.name
    assert got.condition == want.condition
    for a, b in (
        (got.images, want.images),
        (got.labels, want.labels),
        (got.very_dark, want.very_dark),
    ):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("scale,seed", [(0.05, 3), (0.03, 8)])
def test_condition_models_match_per_corpus_training(scale, seed):
    corpora = build_corpora(scale=scale, seed=seed)
    got = train_condition_models(corpora.day_train, corpora.dusk_train)
    want = oracle_condition_models(corpora.day_train, corpora.dusk_train)
    assert list(got) == list(want)
    for key in want:
        assert got[key].weights.tobytes() == want[key].weights.tobytes()
        assert got[key].bias == want[key].bias
        assert got[key].meta == want[key].meta
    assert got["combined"].meta["train_corpus"] == "combined"
    assert got["combined"].meta["n_train"] == len(corpora.day_train) + len(corpora.dusk_train)


@pytest.mark.parametrize("scale", [0.05, 0.01])
def test_lazy_test_corpora_match_eager_rendering(scale):
    corpora = build_corpora(scale=scale, seed=3)
    day, dusk = oracle_test_corpora(scale, seed=3)
    assert_datasets_equal(corpora.day_test, day)
    assert_datasets_equal(corpora.dusk_test, dusk)


def test_set_up_leaves_test_corpora_unrendered():
    corpora = build_corpora(scale=0.02, seed=5)
    train_condition_models(corpora.day_train, corpora.dusk_train)
    assert "day_test" not in vars(corpora)
    assert "dusk_test" not in vars(corpora)
    day, dusk = corpora.day_test, corpora.dusk_test
    assert corpora.day_test is day
    assert corpora.dusk_test is dusk
