"""Tests for repro.experiments.common: scaling and caching infrastructure."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.experiments.common import (
    ConditionCorpora,
    build_corpora,
    check_scale,
    corpora_and_models,
    trained_dark_detector,
)


class TestScale:
    def test_accepts_valid(self):
        assert check_scale(0.5) == 0.5
        assert check_scale(1.0) == 1.0

    def test_rejects_zero_and_above_one(self):
        with pytest.raises(ConfigurationError):
            check_scale(0.0)
        with pytest.raises(ConfigurationError):
            check_scale(1.5)


class TestCorpora:
    def test_scaled_counts_proportional(self):
        small = build_corpora(scale=0.05, seed=3)
        assert small.day_test.n_positive == 10  # ceil(200 * 0.05)
        assert small.dusk_test.very_dark.sum() == 5  # ceil(100 * 0.05)

    def test_minimum_counts_enforced(self):
        tiny = build_corpora(scale=0.01, seed=3)
        assert tiny.day_test.n_negative >= 2
        assert tiny.day_train.n_positive >= 4

    def test_corpora_structure(self):
        corpora = build_corpora(scale=0.05, seed=4)
        assert isinstance(corpora, ConditionCorpora)
        assert corpora.day_train.condition.value == "day"
        assert corpora.dusk_train.condition.value == "dusk"
        # The training split deliberately under-covers the bright dusk end;
        # no very-dark samples in training either.
        assert corpora.dusk_train.very_dark.sum() == 0


class TestCaching:
    def test_models_cached_per_scale_seed(self):
        a = corpora_and_models(scale=0.05, seed=9)
        b = corpora_and_models(scale=0.05, seed=9)
        assert a[1]["day"] is b[1]["day"]

    def test_different_seed_retrains(self):
        a = corpora_and_models(scale=0.05, seed=9)
        c = corpora_and_models(scale=0.05, seed=10)
        assert a[1]["day"] is not c[1]["day"]

    def test_dark_detector_cached(self):
        assert trained_dark_detector() is trained_dark_detector()
