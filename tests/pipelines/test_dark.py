"""Tests for repro.pipelines.dark: the Fig. 3/4 pipeline stage by stage."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.lighting import DARK_LIGHTING, sample_dark_lighting
from repro.datasets.scene import render_vehicle_crop
from repro.errors import ConfigurationError, PipelineError
from repro.pipelines.dark import (
    DBN_STRIDE,
    DBN_WINDOW,
    MAX_CANDIDATES,
    DarkConfig,
    DarkStageTrace,
    DarkVehicleDetector,
)


class TestConstants:
    def test_paper_window_and_stride(self):
        # "sliding it over a window of 9x9 with the stride of 2"
        assert DBN_WINDOW == 9
        assert DBN_STRIDE == 2


class TestUntrained:
    def test_detect_raises(self):
        with pytest.raises(PipelineError):
            DarkVehicleDetector().detect(np.zeros((90, 120, 3)))

    def test_dbn_grid_raises(self):
        with pytest.raises(PipelineError):
            DarkVehicleDetector().dbn_grid(np.zeros((30, 30)))

    def test_half_given_corpus_raises(self):
        windows, labels = np.zeros((4, 81)), np.zeros(4, dtype=np.int64)
        with pytest.raises(ConfigurationError):
            DarkVehicleDetector().train(windows)
        with pytest.raises(ConfigurationError):
            DarkVehicleDetector().train(labels=labels)


class TestPreprocess:
    def test_mask_shape_downsampled(self, dark_detector, dark_frame):
        mask = dark_detector.preprocess(dark_frame.rgb)
        h, w = dark_frame.rgb.shape[:2]
        assert mask.shape == (h // 3, w // 3)

    def test_trace_captures_stages(self, dark_detector, dark_frame):
        trace = DarkStageTrace()
        dark_detector.preprocess(dark_frame.rgb, trace=trace)
        assert trace.luma_mask is not None
        assert trace.chroma_mask is not None
        assert trace.merged_mask is not None
        assert trace.processed_mask is not None

    def test_chroma_mask_restricts_luma(self, dark_detector, dark_frame):
        trace = DarkStageTrace()
        dark_detector.preprocess(dark_frame.rgb, trace=trace)
        assert trace.merged_mask.sum() <= trace.luma_mask.sum()

    def test_luma_only_config(self, dark_detector, dark_frame):
        luma_only = DarkVehicleDetector(
            config=DarkConfig(use_chroma=False),
            dbn=dark_detector.dbn,
            matcher=dark_detector.matcher,
        )
        trace = DarkStageTrace()
        luma_only.preprocess(dark_frame.rgb, trace=trace)
        assert trace.chroma_mask is None
        assert np.array_equal(trace.merged_mask, trace.luma_mask)

    def test_taillights_survive_preprocess(self, dark_detector, dark_frame):
        mask = dark_detector.preprocess(dark_frame.rgb)
        factor = dark_detector._effective_factor(*dark_frame.rgb.shape[:2])
        for vehicle in dark_frame.vehicles:
            for (tx, ty) in vehicle.taillights:
                x, y = int(tx // factor), int(ty // factor)
                region = mask[max(0, y - 3) : y + 4, max(0, x - 3) : x + 4]
                assert region.any()

    def test_effective_factor_fallback(self, dark_detector):
        # 100x100 is not divisible by 3; falls back to 2.
        assert dark_detector._effective_factor(100, 100) == 2
        assert dark_detector._effective_factor(90, 120) == 3
        assert dark_detector._effective_factor(91, 121) == 1


class TestDbnGrid:
    def test_grid_geometry(self, dark_detector):
        mask = np.zeros((45, 63), dtype=bool)
        grid = dark_detector.dbn_grid(mask)
        assert grid.shape == ((45 - 9) // 2 + 1, (63 - 9) // 2 + 1)

    def test_empty_mask_all_background(self, dark_detector):
        grid = dark_detector.dbn_grid(np.zeros((31, 31), dtype=bool))
        assert not grid.any()

    def test_small_mask_empty_grid(self, dark_detector):
        grid = dark_detector.dbn_grid(np.zeros((5, 5), dtype=bool))
        assert grid.size == 0

    def test_taillight_blob_detected(self, dark_detector):
        mask = np.zeros((31, 31), dtype=bool)
        ys, xs = np.mgrid[0:31, 0:31]
        mask[(ys - 15) ** 2 + (xs - 15) ** 2 <= 4] = True  # radius-2 blob
        grid = dark_detector.dbn_grid(mask)
        assert (grid > 0).any()


class TestCandidates:
    def test_extract_from_empty_grid(self, dark_detector):
        assert dark_detector.extract_candidates(np.zeros((10, 10), dtype=np.int64)) == []

    def test_extract_centers_in_pixels(self, dark_detector):
        grid = np.zeros((20, 20), dtype=np.int64)
        grid[5:7, 5:7] = 2
        cands = dark_detector.extract_candidates(grid)
        assert len(cands) == 1
        cx, cy = cands[0].center
        # grid (5.5, 5.5) -> pixels 5.5*2 + 4.5 = 15.5
        assert cx == pytest.approx(15.5)
        assert cy == pytest.approx(15.5)
        assert cands[0].size_class == 2

    def test_min_blob_filter(self, dark_detector):
        grid = np.zeros((20, 20), dtype=np.int64)
        grid[3, 3] = 1  # single hit window < MIN_BLOB_WINDOWS = 2
        assert dark_detector.extract_candidates(grid) == []

    def test_max_candidates_cap(self, dark_detector):
        grid = np.zeros((40, 60), dtype=np.int64)
        for i in range(30):
            r, c = (i % 6) * 6, (i // 6) * 8
            grid[r : r + 2, c : c + 2] = 1
        cands = dark_detector.extract_candidates(grid)
        assert len(cands) <= MAX_CANDIDATES


class TestEndToEnd:
    def test_detects_vehicle_in_dark_frame(self, dark_detector, dark_frame):
        detections = dark_detector.detect(dark_frame.rgb)
        assert detections, "expected at least one detection in the dark frame"
        truths = dark_frame.vehicle_boxes
        assert any(d.rect.iou(t) > 0.2 for d in detections for t in truths)

    def test_detection_has_taillight_extra(self, dark_detector, dark_frame):
        detections = dark_detector.detect(dark_frame.rgb)
        for det in detections:
            lights = det.extra["taillights"]
            assert len(lights) == 2

    def test_classify_crop_positive(self, dark_detector):
        rng = np.random.default_rng(31)
        hits = 0
        for _ in range(6):
            crop = render_vehicle_crop(
                sample_dark_lighting(rng), rng, 64, fill_range=(0.5, 0.8)
            )
            hits += dark_detector.classify_crop(crop)[0]
        assert hits >= 4

    def test_classify_crop_negative_on_black(self, dark_detector):
        verdict, score = dark_detector.classify_crop(np.zeros((64, 64, 3)))
        assert not verdict and score == 0.0

    def test_trace_populated(self, dark_detector, dark_frame):
        trace = DarkStageTrace()
        dark_detector.detect(dark_frame.rgb, trace=trace)
        assert trace.class_grid is not None
        assert isinstance(trace.candidates, list)
