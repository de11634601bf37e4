"""Tests for repro.pipelines.pedestrian: the static partition's detector."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.synthetic import make_pedestrian_frames
from repro.errors import NotTrainedError, PipelineError
from repro.pipelines.evaluation import evaluate_frames
from repro.pipelines.pedestrian import PedestrianDetector


class TestTraining:
    def test_window_is_upright(self):
        h, w = PedestrianDetector().config.hog.window
        assert h > w

    def test_train_produces_model(self, pedestrian_detector):
        assert pedestrian_detector.model is not None
        assert pedestrian_detector.model.meta["name"] == "pedestrian"

    def test_train_requires_pedestrians(self):
        from repro.datasets.synthetic import make_iroads_like

        detector = PedestrianDetector()
        no_peds = make_iroads_like(n_frames=2, height=120, width=240, seed=43)
        with pytest.raises(PipelineError):
            detector.train_from_frames(no_peds)


class TestInference:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_pixel_raises_pipeline_error(self, pedestrian_detector, value):
        frame = make_pedestrian_frames(n_frames=1, height=180, width=320, seed=46).frames[0]
        rgb = frame.rgb.copy()
        rgb[90, 160, 0] = value
        with pytest.raises(PipelineError):
            pedestrian_detector.detect(rgb)

    def test_untrained_raises(self):
        with pytest.raises(NotTrainedError):
            PedestrianDetector().classify_crop(np.zeros((64, 32, 3)))

    def test_classify_separates_crops(self, pedestrian_detector):
        from repro.datasets.samples import extract_window_samples

        frames = make_pedestrian_frames(n_frames=4, height=180, width=320, seed=44)
        rng = np.random.default_rng(45)
        correct = total = 0
        for frame in frames.frames:
            pos, neg = extract_window_samples(frame, (64, 32), 3, rng, kind="pedestrian")
            for p in pos:
                correct += pedestrian_detector.classify_crop(p)[0]
                total += 1
            for n in neg:
                correct += not pedestrian_detector.classify_crop(n)[0]
                total += 1
        assert correct / total > 0.75

    def test_detect_runs_on_frames(self, pedestrian_detector):
        frames = make_pedestrian_frames(n_frames=3, height=180, width=320, seed=46)
        result = evaluate_frames(pedestrian_detector, frames.frames, kind="pedestrian", iou_threshold=0.2)
        assert result.frames_total == 3
        # The detector must at least fire somewhere near pedestrians.
        assert result.detected + result.spurious >= 0

    def test_detect_rejects_small_frame(self, pedestrian_detector):
        with pytest.raises(PipelineError):
            pedestrian_detector.detect(np.zeros((32, 16, 3)))

    def test_detections_are_pedestrian_kind(self, pedestrian_detector):
        frames = make_pedestrian_frames(n_frames=1, height=180, width=320, seed=47)
        for det in pedestrian_detector.detect(frames.frames[0].rgb):
            assert det.kind == "pedestrian"
