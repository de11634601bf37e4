"""Tests for repro.imaging.components: labelling and blob statistics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.imaging.components import blob_statistics, find_blobs, label_components

ndimage = pytest.importorskip("scipy.ndimage")

STRUCTURES = {
    4: np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool),
    8: np.ones((3, 3), dtype=bool),
}


def snake(height: int, width: int) -> np.ndarray:
    """Full rows joined alternately at the right and left end: one region
    whose path doubles back on every other row."""
    mask = np.zeros((height, width), dtype=bool)
    mask[::2] = True
    for r in range(1, height, 2):
        mask[r, -1 if (r // 2) % 2 == 0 else 0] = True
    return mask


def differential_masks() -> list[tuple[str, np.ndarray]]:
    rng = np.random.default_rng(11)
    masks = []
    for shape in [(1, 1), (1, 40), (40, 1), (7, 9), (56, 103)]:
        for density in (0.05, 0.3, 0.6, 0.9):
            masks.append((f"random{density}-{shape}", rng.random(shape) < density))
        masks.append((f"checkerboard-{shape}", np.indices(shape).sum(axis=0) % 2 == 0))
        masks.append((f"snake-{shape}", snake(*shape)))
        masks.append((f"snake-transposed-{shape}", snake(*shape[::-1]).T))
        masks.append((f"full-{shape}", np.ones(shape, dtype=bool)))
    return masks


class TestLabeling:
    def test_empty_mask(self):
        labels, count = label_components(np.zeros((4, 4), dtype=bool))
        assert count == 0
        assert not labels.any()

    def test_single_region(self):
        mask = np.zeros((5, 5), dtype=bool)
        mask[1:3, 1:3] = True
        labels, count = label_components(mask)
        assert count == 1
        assert (labels > 0).sum() == 4

    def test_two_disjoint_regions(self):
        mask = np.zeros((6, 6), dtype=bool)
        mask[0:2, 0:2] = True
        mask[4:6, 4:6] = True
        _, count = label_components(mask)
        assert count == 2

    def test_diagonal_joins_with_8_connectivity(self):
        mask = np.array([[1, 0], [0, 1]], dtype=bool)
        _, count8 = label_components(mask, connectivity=8)
        _, count4 = label_components(mask, connectivity=4)
        assert count8 == 1
        assert count4 == 2

    def test_rejects_bad_connectivity(self):
        with pytest.raises(ValueError):
            label_components(np.zeros((2, 2), dtype=bool), connectivity=6)

    def test_labels_are_contiguous(self):
        rng = np.random.default_rng(3)
        mask = rng.random((12, 12)) < 0.3
        labels, count = label_components(mask)
        present = set(np.unique(labels).tolist()) - {0}
        assert present == set(range(1, count + 1))

    def test_u_shape_single_region(self):
        mask = np.zeros((5, 5), dtype=bool)
        mask[0:4, 0] = True
        mask[3, 0:4] = True
        mask[0:4, 3] = True
        _, count = label_components(mask)
        assert count == 1


@pytest.mark.equivalence
class TestAgainstScipy:
    """The run labeller numbers regions as ``scipy.ndimage.label`` does."""

    @pytest.mark.parametrize("connectivity", [4, 8])
    @pytest.mark.parametrize(
        "name, mask", differential_masks(), ids=[n for n, _ in differential_masks()]
    )
    def test_labels_and_count_equal(self, name, mask, connectivity):
        labels, count = label_components(mask, connectivity=connectivity)
        want, want_count = ndimage.label(mask, structure=STRUCTURES[connectivity])
        assert count == want_count
        assert labels.dtype == np.int64
        assert np.array_equal(labels, want)


class TestBlobStats:
    def test_bbox_and_centroid(self):
        mask = np.zeros((8, 8), dtype=bool)
        mask[2:4, 3:6] = True
        blobs = find_blobs(mask)
        assert len(blobs) == 1
        b = blobs[0]
        assert b.area == 6
        assert (b.bbox.x, b.bbox.y, b.bbox.w, b.bbox.h) == (3, 2, 3, 2)
        assert b.centroid == (4.0, 2.5)

    def test_extent_full_block(self):
        mask = np.zeros((5, 5), dtype=bool)
        mask[1:4, 1:4] = True
        b = find_blobs(mask)[0]
        assert b.extent == pytest.approx(1.0)

    def test_min_area_filter(self):
        mask = np.zeros((6, 6), dtype=bool)
        mask[0, 0] = True
        mask[3:5, 3:5] = True
        blobs = find_blobs(mask, min_area=2)
        assert len(blobs) == 1
        assert blobs[0].area == 4

    def test_blob_statistics_empty(self):
        labels = np.zeros((3, 3), dtype=np.int64)
        assert blob_statistics(labels, 0) == []

    def test_labels_without_pixels_get_no_blob(self):
        labels = np.zeros((4, 6), dtype=np.int64)
        labels[0, 0:2] = 1
        labels[3, 3:6] = 3
        blobs = blob_statistics(labels, 3)
        assert [b.label for b in blobs] == [1, 3]
        assert blobs[1].centroid == (4.0, 3.0) and blobs[1].bbox.w == 3

    def test_statistics_match_per_label_formulas(self):
        rng = np.random.default_rng(5)
        labels, count = label_components(rng.random((30, 40)) < 0.4)
        labels = np.where(rng.random(labels.shape) < 0.7, labels, 0)
        blobs = blob_statistics(labels, count)
        assert [b.label for b in blobs] == sorted(set(np.unique(labels).tolist()) - {0})
        for blob in blobs:
            ys, xs = np.nonzero(labels == blob.label)
            assert blob.area == ys.size
            assert blob.centroid == (float(xs.mean()), float(ys.mean()))
            assert (blob.bbox.x, blob.bbox.y) == (xs.min(), ys.min())
            assert (blob.bbox.w, blob.bbox.h) == (xs.max() - xs.min() + 1, ys.max() - ys.min() + 1)

    def test_aspect(self):
        mask = np.zeros((6, 10), dtype=bool)
        mask[2, 1:9] = True
        b = find_blobs(mask)[0]
        assert b.aspect == pytest.approx(8.0)
