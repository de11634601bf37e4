"""Tests for repro.pipelines.base and repro.pipelines.evaluation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import PipelineError
from repro.imaging.geometry import Rect
from repro.pipelines.base import Detection, DetectionPipeline
from repro.pipelines.evaluation import (
    ConfusionCounts,
    confusion_from_predictions,
    evaluate_crop_classifier,
    evaluate_detections,
)


class TestDetection:
    def test_fields(self):
        d = Detection(rect=Rect(0, 0, 10, 10), score=0.8, kind="vehicle")
        assert d.kind == "vehicle"
        assert d.extra == {}

    def test_protocol_runtime_check(self):
        class Dummy:
            name = "dummy"

            def detect(self, frame):
                return []

            def classify_crop(self, crop):
                return False, 0.0

        assert isinstance(Dummy(), DetectionPipeline)


class TestConfusionCounts:
    def test_accuracy_formula(self):
        # Paper Equation (1) on the paper's own day-model/day-test row.
        c = ConfusionCounts(tp=195, tn=21, fp=4, fn=5)
        assert c.accuracy == pytest.approx(0.96)

    def test_empty_raises(self):
        with pytest.raises(PipelineError):
            _ = ConfusionCounts().accuracy

    def test_precision_recall_f1(self):
        c = ConfusionCounts(tp=8, tn=0, fp=2, fn=2)
        assert c.precision == pytest.approx(0.8)
        assert c.recall == pytest.approx(0.8)
        assert c.f1 == pytest.approx(0.8)

    def test_zero_division_guards(self):
        c = ConfusionCounts(tp=0, tn=5, fp=0, fn=0)
        assert c.precision == 0.0 and c.recall == 0.0 and c.f1 == 0.0

    def test_addition(self):
        a = ConfusionCounts(1, 2, 3, 4)
        b = ConfusionCounts(10, 20, 30, 40)
        s = a + b
        assert (s.tp, s.tn, s.fp, s.fn) == (11, 22, 33, 44)


class TestConfusionFromPredictions:
    def test_counts(self):
        y = np.array([1, 1, -1, -1])
        p = np.array([1, -1, -1, 1])
        c = confusion_from_predictions(y, p)
        assert (c.tp, c.fn, c.tn, c.fp) == (1, 1, 1, 1)

    def test_rejects_misaligned(self):
        with pytest.raises(PipelineError):
            confusion_from_predictions(np.array([1]), np.array([1, -1]))


class _ConstantPipeline:
    name = "const"

    def __init__(self, answer: bool):
        self.answer = answer

    def classify_crop(self, crop):
        return self.answer, 1.0 if self.answer else -1.0

    def detect(self, frame):
        return []


class TestEvaluators:
    def test_crop_evaluator_always_yes(self):
        from repro.datasets.lighting import LightingCondition
        from repro.datasets.samples import ClassificationDataset

        ds = ClassificationDataset(
            name="t",
            condition=LightingCondition.DAY,
            images=np.zeros((4, 8, 8, 3)),
            labels=np.array([1, 1, -1, -1]),
        )
        c = evaluate_crop_classifier(_ConstantPipeline(True), ds)
        assert (c.tp, c.fp, c.tn, c.fn) == (2, 2, 0, 0)

    def test_evaluate_detections_counts(self):
        truths = [Rect(0, 0, 10, 10)]
        dets = [
            Detection(rect=Rect(1, 1, 10, 10), score=1.0),
            Detection(rect=Rect(50, 50, 10, 10), score=0.5),
        ]
        matched, missed, spurious = evaluate_detections(truths, dets)
        assert (matched, missed, spurious) == (1, 0, 1)
