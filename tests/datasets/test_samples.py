"""Tests for repro.datasets.samples: corpora containers and crop extraction."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.lighting import DAY_LIGHTING, LightingCondition
from repro.datasets.samples import ClassificationDataset, extract_window_samples
from repro.datasets.scene import SceneConfig, render_scene
from repro.errors import DatasetError


def _tiny_dataset(n: int = 6) -> ClassificationDataset:
    rng = np.random.default_rng(0)
    return ClassificationDataset(
        name="tiny",
        condition=LightingCondition.DAY,
        images=rng.random((n, 8, 8, 3)),
        labels=np.array([1, -1] * (n // 2)),
        very_dark=np.array([False] * (n - 1) + [True]),
    )


class TestClassificationDataset:
    def test_counts(self):
        ds = _tiny_dataset()
        assert len(ds) == 6
        assert ds.n_positive == 3
        assert ds.n_negative == 3

    def test_rejects_misaligned_labels(self):
        with pytest.raises(DatasetError):
            ClassificationDataset(
                name="bad",
                condition=LightingCondition.DAY,
                images=np.zeros((3, 4, 4, 3)),
                labels=np.array([1, -1]),
            )

    def test_rejects_wrong_image_rank(self):
        with pytest.raises(DatasetError):
            ClassificationDataset(
                name="bad",
                condition=LightingCondition.DAY,
                images=np.zeros((3, 4, 4)),
                labels=np.array([1, -1, 1]),
            )

    def test_subset_by_mask(self):
        ds = _tiny_dataset()
        sub = ds.subset(ds.labels == 1)
        assert len(sub) == 3
        assert sub.n_negative == 0

    def test_without_very_dark(self):
        ds = _tiny_dataset()
        sub = ds.without_very_dark()
        assert len(sub) == 5
        assert not sub.very_dark.any()


class TestExtractWindows:
    def test_positive_and_negative_extraction(self):
        config = SceneConfig(height=160, width=240, n_vehicles=2, seed=1)
        frame = render_scene(config, DAY_LIGHTING)
        rng = np.random.default_rng(2)
        pos, neg = extract_window_samples(frame, (64, 64), n_negative=5, rng=rng)
        assert len(pos) == 2
        assert len(neg) == 5
        assert all(p.shape == (64, 64, 3) for p in pos)
        assert all(n.shape == (64, 64, 3) for n in neg)

    def test_negatives_avoid_truths(self):
        config = SceneConfig(height=160, width=240, n_vehicles=1, seed=3)
        frame = render_scene(config, DAY_LIGHTING)
        rng = np.random.default_rng(4)
        _, neg = extract_window_samples(frame, (32, 32), n_negative=8, rng=rng, max_iou=0.0)
        assert len(neg) > 0  # sampler still finds clear windows

    def test_kind_filter(self):
        config = SceneConfig(height=160, width=240, n_vehicles=1, n_pedestrians=2, seed=5)
        frame = render_scene(config, DAY_LIGHTING)
        rng = np.random.default_rng(6)
        pos, _ = extract_window_samples(frame, (64, 32), 0, rng, kind="pedestrian")
        assert len(pos) == 2
