"""Tests for repro.pipelines.taillight: candidates, pairing, boxes."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError, PipelineError
from repro.imaging.geometry import Rect
from repro.pipelines.taillight import (
    CLASS_RADIUS_PX,
    PAIR_FEATURE_LENGTH,
    PAIR_SEPARATION_RATIO,
    TaillightCandidate,
    TaillightPairMatcher,
    make_pair_training_set,
    pair_features,
    pair_gate,
    vehicle_box_from_pair,
)


def _cand(x: float, y: float, cls: int = 2, area: float = 5.0) -> TaillightCandidate:
    return TaillightCandidate(
        center=(x, y), size_class=cls, area=area, bbox=Rect(x - 2, y - 2, 4, 4)
    )


class TestFeatures:
    def test_length(self):
        f = pair_features(_cand(10, 10), _cand(30, 10))
        assert f.shape == (PAIR_FEATURE_LENGTH,)

    def test_order_invariant(self):
        a, b = _cand(10, 12, 1, 3.0), _cand(38, 10, 3, 9.0)
        assert np.allclose(pair_features(a, b), pair_features(b, a))

    def test_aligned_pair_low_tilt(self):
        f = pair_features(_cand(10, 10), _cand(30, 10))
        assert f[1] == pytest.approx(0.0)  # alignment
        assert f[5] == pytest.approx(0.0)  # tilt

    def test_separation_normalised_by_radius(self):
        small = pair_features(_cand(10, 10, 1), _cand(20, 10, 1))
        large = pair_features(_cand(10, 10, 3), _cand(20, 10, 3))
        assert small[0] > large[0]

    def test_invalid_class_raises(self):
        bad = TaillightCandidate(center=(0, 0), size_class=5, area=1.0, bbox=Rect(0, 0, 1, 1))
        with pytest.raises(PipelineError):
            _ = bad.radius


class TestGate:
    def test_accepts_plausible_pair(self):
        r = CLASS_RADIUS_PX[2]
        sep = r * sum(PAIR_SEPARATION_RATIO) / 2.0
        assert pair_gate(_cand(10, 10), _cand(10 + sep, 10.5))

    def test_rejects_vertical_stack(self):
        assert not pair_gate(_cand(10, 10), _cand(10, 40))

    def test_rejects_huge_separation(self):
        r = CLASS_RADIUS_PX[2]
        sep = r * PAIR_SEPARATION_RATIO[1] * 3.0
        assert not pair_gate(_cand(10, 10), _cand(10 + sep, 10))

    def test_rejects_coincident(self):
        assert not pair_gate(_cand(10, 10), _cand(10, 10))


class TestTrainingSet:
    def test_balanced_labels(self):
        x, y = make_pair_training_set(n_per_class=50, seed=1)
        assert x.shape == (100, PAIR_FEATURE_LENGTH)
        assert (y == 1).sum() == 50 and (y == -1).sum() == 50

    def test_rejects_empty(self):
        with pytest.raises(PipelineError):
            make_pair_training_set(n_per_class=0)


class TestMatcher:
    @pytest.fixture(scope="class")
    def matcher(self):
        m = TaillightPairMatcher()
        m.train(seed=2)
        return m

    def test_training_accuracy(self, matcher):
        x, y = make_pair_training_set(n_per_class=200, seed=3)
        scaled = matcher.scaler.transform(x)
        assert (matcher.model.predict(scaled) == y).mean() > 0.85

    def test_match_score_gated(self, matcher):
        assert matcher.match_score(_cand(10, 10), _cand(10, 60)) == -math.inf

    def test_untrained_raises(self):
        with pytest.raises(PipelineError):
            TaillightPairMatcher().match_score(_cand(0, 0), _cand(10, 0))

    def test_half_given_corpus_raises(self):
        features, labels = make_pair_training_set(n_per_class=10, seed=3)
        with pytest.raises(ConfigurationError):
            TaillightPairMatcher().train(features)
        with pytest.raises(ConfigurationError):
            TaillightPairMatcher().train(labels=labels)

    def test_match_pairs_one_to_one(self, matcher):
        r = CLASS_RADIUS_PX[2]
        sep = r * 8.0
        cands = [
            _cand(10, 10),
            _cand(10 + sep, 10),
            _cand(10 + sep / 2.0, 10.5),  # an interloper between the lamps
        ]
        pairs = matcher.match_pairs(cands)
        used = [i for p in pairs for i in p[:2]]
        assert len(used) == len(set(used))

    def test_real_geometry_pair_matches(self, matcher):
        r = CLASS_RADIUS_PX[3]
        sep = r * 9.0
        pairs = matcher.match_pairs([_cand(50, 40, 3, 10), _cand(50 + sep, 40.4, 3, 9)])
        assert len(pairs) == 1


class TestVehicleBox:
    def test_box_spans_lights(self):
        box = vehicle_box_from_pair(_cand(20, 30), _cand(50, 30))
        assert box.x < 20 and box.x2 > 50
        assert box.contains_point(35, 30)

    def test_box_wider_than_separation(self):
        box = vehicle_box_from_pair(_cand(20, 30), _cand(50, 30))
        assert box.w == pytest.approx(30 / 0.69)

    def test_rejects_coincident_lights(self):
        with pytest.raises(PipelineError):
            vehicle_box_from_pair(_cand(10, 10), _cand(10, 40))
