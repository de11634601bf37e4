"""Per-frame quality records and their deterministic fold/merge algebra.

A :class:`QualityRecord` is one sampled frame scored against ground
truth: TP/FP/FN counts, the matched IoUs, and the condition split the
paper's Table I reports by.  Records fold into a per-drive summary dict
(:func:`fold_records`), drive summaries merge into fleet-level sections
(:func:`merge_summaries`) — both pure integer/float arithmetic on top of
:class:`~repro.confusion.ConfusionCounts`, whose ``+`` is
associative and commutative, so every aggregation order lands on the
same bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.confusion import ConfusionCounts

#: Schema tag carried by every per-drive quality summary.
QUALITY_SUMMARY_SCHEMA = "repro.quality/drive"


@dataclass(frozen=True)
class QualityRecord:
    """One sampled frame's detection quality against ground truth.

    Attributes:
        index: Frame index within the drive.
        time_s: Simulation time of the frame.
        condition: The *controller's* lighting condition (what the stack
            believed).
        true_condition: The condition implied by the trace's true lux
            (no sensor noise, no hysteresis) — the Table-I row this
            frame's counts belong to.
        configuration: Active vehicle configuration at scoring time.
        matched: Whether ``configuration`` is the one ``true_condition``
            calls for; a mismatch is exactly the failure mode the paper's
            adaptation exists to avoid.
        tp / fp / fn: Detection counts from greedy IoU matching.
        matched_ious: IoU of every true-positive match, in match order.
        truths: Ground-truth boxes present in the frame.
        detections: Boxes the (modelled) detector emitted.
    """

    index: int
    time_s: float
    condition: str
    true_condition: str
    configuration: str
    matched: bool
    tp: int
    fp: int
    fn: int
    matched_ious: tuple[float, ...] = ()
    truths: int = 0
    detections: int = 0

    @property
    def counts(self) -> ConfusionCounts:
        return ConfusionCounts(tp=self.tp, fp=self.fp, fn=self.fn)

    @property
    def recall(self) -> float:
        return self.counts.recall

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "time_s": self.time_s,
            "condition": self.condition,
            "true_condition": self.true_condition,
            "configuration": self.configuration,
            "matched": self.matched,
            "tp": self.tp,
            "fp": self.fp,
            "fn": self.fn,
            "matched_ious": list(self.matched_ious),
            "truths": self.truths,
            "detections": self.detections,
        }


def _iou_stats(ious: Iterable[float]) -> dict:
    values = list(ious)
    if not values:
        return {"count": 0, "sum": 0.0, "min": None, "max": None, "mean": None}
    total = sum(values)
    return {
        "count": len(values),
        "sum": total,
        "min": min(values),
        "max": max(values),
        "mean": total / len(values),
    }


def _metrics_block(counts: ConfusionCounts) -> dict:
    return {
        "tp": counts.tp,
        "fp": counts.fp,
        "fn": counts.fn,
        "precision": counts.precision,
        "recall": counts.recall,
        "f1": counts.f1,
    }


def fold_records(records: Iterable[QualityRecord]) -> dict:
    """Fold one drive's quality records into its summary dict.

    The summary is a pure function of the records (no wall values), so it
    rides :class:`~repro.fleet.outcome.DriveOutcome` and the quality
    baseline unchanged.
    """
    rows = list(records)
    by_condition: dict[str, ConfusionCounts] = {}
    by_condition_frames: dict[str, int] = {}
    ious: list[float] = []
    mismatched = 0
    for record in rows:
        counts = by_condition.setdefault(record.true_condition, ConfusionCounts())
        by_condition[record.true_condition] = counts + record.counts
        by_condition_frames[record.true_condition] = (
            by_condition_frames.get(record.true_condition, 0) + 1
        )
        ious.extend(record.matched_ious)
        if not record.matched:
            mismatched += 1
    overall = ConfusionCounts.merge(by_condition.values())
    return {
        "schema": QUALITY_SUMMARY_SCHEMA,
        "sampled_frames": len(rows),
        "mismatched_frames": mismatched,
        "overall": _metrics_block(overall),
        "by_condition": {
            condition: {
                "frames": by_condition_frames[condition],
                **_metrics_block(counts),
            }
            for condition, counts in sorted(by_condition.items())
        },
        "iou": _iou_stats(ious),
    }


def merge_summaries(summaries: Iterable[Mapping]) -> dict:
    """Merge per-drive quality summaries into one fleet-level section.

    Per-condition rows are folded through :meth:`ConfusionCounts.merge`
    (associative — shard order cannot change the result); IoU statistics
    merge from the per-drive sufficient statistics (count/sum/min/max).
    """
    docs = [dict(s) for s in summaries if s]
    by_condition: dict[str, ConfusionCounts] = {}
    frames_by_condition: dict[str, int] = {}
    sampled = 0
    mismatched = 0
    iou_count = 0
    iou_sum = 0.0
    iou_min: float | None = None
    iou_max: float | None = None
    for doc in docs:
        sampled += int(doc.get("sampled_frames", 0))
        mismatched += int(doc.get("mismatched_frames", 0))
        for condition, row in dict(doc.get("by_condition", {})).items():
            existing = by_condition.get(condition, ConfusionCounts())
            by_condition[condition] = ConfusionCounts.merge(
                [existing, ConfusionCounts.from_dict(row)]
            )
            frames_by_condition[condition] = frames_by_condition.get(
                condition, 0
            ) + int(row.get("frames", 0))
        iou = dict(doc.get("iou", {}))
        count = int(iou.get("count", 0))
        if count:
            iou_count += count
            iou_sum += float(iou.get("sum", 0.0))
            low, high = iou.get("min"), iou.get("max")
            if low is not None:
                iou_min = low if iou_min is None else min(iou_min, low)
            if high is not None:
                iou_max = high if iou_max is None else max(iou_max, high)
    overall = ConfusionCounts.merge(by_condition.values())
    return {
        "scored_drives": len(docs),
        "sampled_frames": sampled,
        "mismatched_frames": mismatched,
        "overall": _metrics_block(overall),
        "by_condition": {
            condition: {
                "frames": frames_by_condition[condition],
                **_metrics_block(counts),
            }
            for condition, counts in sorted(by_condition.items())
        },
        "iou": {
            "count": iou_count,
            "sum": iou_sum,
            "min": iou_min,
            "max": iou_max,
            "mean": iou_sum / iou_count if iou_count else None,
        },
    }
