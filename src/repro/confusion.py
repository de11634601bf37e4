"""Confusion counts: the TP/TN/FP/FN row of the paper's Table I.

Kept apart from :mod:`repro.pipelines.evaluation`, which scores real
detectors, so the quality plane can fold its records into counts without
importing the detection pipelines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.errors import PipelineError


@dataclass
class ConfusionCounts:
    """TP/TN/FP/FN tallies with the paper's derived metrics."""

    tp: int = 0
    tn: int = 0
    fp: int = 0
    fn: int = 0

    @property
    def total(self) -> int:
        """All samples counted, regardless of outcome."""
        return self.tp + self.tn + self.fp + self.fn

    @property
    def accuracy(self) -> float:
        """Paper Equation (1)."""
        if self.total == 0:
            raise PipelineError("no samples counted")
        return (self.tp + self.tn) / self.total

    @property
    def precision(self) -> float:
        """TP / (TP + FP); 0.0 with no positive predictions."""
        denom = self.tp + self.fp
        return self.tp / denom if denom else 0.0

    @property
    def recall(self) -> float:
        """TP / (TP + FN); 0.0 with no positive truth."""
        denom = self.tp + self.fn
        return self.tp / denom if denom else 0.0

    @property
    def f1(self) -> float:
        """Harmonic mean of precision and recall."""
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if (p + r) else 0.0

    def __add__(self, other: "ConfusionCounts") -> "ConfusionCounts":
        return ConfusionCounts(
            tp=self.tp + other.tp,
            tn=self.tn + other.tn,
            fp=self.fp + other.fp,
            fn=self.fn + other.fn,
        )

    @classmethod
    def merge(cls, counts: "Iterable[ConfusionCounts]") -> "ConfusionCounts":
        """Fold many count rows into one.

        ``+`` is associative and commutative with ``ConfusionCounts()`` as
        identity (pinned by property-based tests), so merging is
        order-independent: the fleet quality rollup folds per-drive,
        per-condition rows in whatever order outcomes arrive and always
        lands on the same totals.
        """
        total = cls()
        for item in counts:
            total = total + item
        return total

    def to_dict(self) -> dict:
        """Plain-dict form for JSON artefacts (rollups, baselines)."""
        return {"tp": self.tp, "tn": self.tn, "fp": self.fp, "fn": self.fn}

    @classmethod
    def from_dict(cls, data: dict) -> "ConfusionCounts":
        """Rehydrate a row written by :meth:`to_dict` (extra keys ignored)."""
        return cls(
            tp=int(data.get("tp", 0)),
            tn=int(data.get("tn", 0)),
            fp=int(data.get("fp", 0)),
            fn=int(data.get("fn", 0)),
        )

    def as_row(self) -> dict:
        """Table-I-style row."""
        return {
            "accuracy": self.accuracy,
            "TP": self.tp,
            "TN": self.tn,
            "FP": self.fp,
            "FN": self.fn,
        }
