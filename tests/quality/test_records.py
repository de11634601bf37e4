"""Record folding, summary merging, and the ConfusionCounts algebra."""

from __future__ import annotations

import pytest

from repro.confusion import ConfusionCounts
from repro.quality.records import (
    QUALITY_SUMMARY_SCHEMA,
    QualityRecord,
    fold_records,
    merge_summaries,
)

pytestmark = pytest.mark.quality


def _record(index, true_condition="day", tp=1, fp=0, fn=0, ious=(), matched=True):
    return QualityRecord(
        index=index,
        time_s=index * 0.02,
        condition=true_condition,
        true_condition=true_condition,
        configuration="day_dusk",
        matched=matched,
        tp=tp,
        fp=fp,
        fn=fn,
        matched_ious=tuple(ious),
        truths=tp + fn,
        detections=tp + fp,
    )


class TestFoldRecords:
    def test_empty_fold_is_zeroed(self):
        summary = fold_records([])
        assert summary["schema"] == QUALITY_SUMMARY_SCHEMA
        assert summary["sampled_frames"] == 0
        assert summary["overall"]["tp"] == 0
        assert summary["by_condition"] == {}
        assert summary["iou"]["count"] == 0

    def test_condition_split_and_mismatches(self):
        records = [
            _record(0, "day", tp=2, ious=(0.8, 0.9)),
            _record(1, "day", tp=1, fn=1, ious=(0.7,)),
            _record(2, "dark", tp=0, fn=2, fp=1, matched=False),
        ]
        summary = fold_records(records)
        assert summary["sampled_frames"] == 3
        assert summary["mismatched_frames"] == 1
        assert summary["by_condition"]["day"]["tp"] == 3
        assert summary["by_condition"]["day"]["frames"] == 2
        assert summary["by_condition"]["dark"]["fn"] == 2
        assert summary["overall"]["recall"] == pytest.approx(3 / 6)
        assert summary["iou"]["count"] == 3
        assert summary["iou"]["min"] == pytest.approx(0.7)
        assert summary["iou"]["max"] == pytest.approx(0.9)

    def test_record_counts_property(self):
        record = _record(0, tp=2, fp=1, fn=3)
        assert record.counts == ConfusionCounts(tp=2, fp=1, fn=3)
        assert record.recall == pytest.approx(2 / 5)


class TestMergeSummaries:
    def test_empty_merge(self):
        merged = merge_summaries([])
        assert merged["scored_drives"] == 0
        assert merged["overall"]["tp"] == 0
        assert merged["iou"]["mean"] is None

    def test_merge_equals_fold_of_concatenation(self):
        a = [_record(i, "day", tp=1, ious=(0.8,)) for i in range(4)]
        b = [_record(i, "dark", tp=0, fn=1, matched=False) for i in range(3)]
        merged = merge_summaries([fold_records(a), fold_records(b)])
        folded = fold_records(a + b)
        assert merged["sampled_frames"] == folded["sampled_frames"]
        assert merged["mismatched_frames"] == folded["mismatched_frames"]
        assert merged["overall"] == folded["overall"]
        assert merged["by_condition"] == folded["by_condition"]
        assert merged["iou"]["count"] == folded["iou"]["count"]
        assert merged["iou"]["sum"] == pytest.approx(folded["iou"]["sum"])

    def test_merge_is_order_independent(self):
        drives = [
            fold_records([_record(i, c, tp=i % 3, fn=1, ious=(0.6 + i / 100,))])
            for i, c in enumerate(["day", "dusk", "dark", "day"])
        ]
        forward = merge_summaries(drives)
        backward = merge_summaries(reversed(drives))
        assert forward == backward

    def test_empty_drive_summaries_are_skipped(self):
        merged = merge_summaries([{}, fold_records([_record(0)]), {}])
        assert merged["scored_drives"] == 1


class TestConfusionCountsAlgebra:
    """Property-based pins of the merge algebra the fleet rollup relies on."""

    def test_merge_matches_sum(self):
        rows = [ConfusionCounts(tp=i, fp=2 * i, fn=3 * i, tn=i) for i in range(5)]
        total = ConfusionCounts()
        for row in rows:
            total = total + row
        assert ConfusionCounts.merge(rows) == total

    def test_dict_round_trip_ignores_extras(self):
        row = ConfusionCounts(tp=3, tn=1, fp=2, fn=4)
        data = {**row.to_dict(), "recall": 0.99, "frames": 7}
        assert ConfusionCounts.from_dict(data) == row


def test_confusion_counts_properties_hypothesis():
    hypothesis = pytest.importorskip("hypothesis")
    from hypothesis import strategies as st

    counts = st.builds(
        ConfusionCounts,
        tp=st.integers(0, 10_000),
        tn=st.integers(0, 10_000),
        fp=st.integers(0, 10_000),
        fn=st.integers(0, 10_000),
    )

    @hypothesis.given(a=counts, b=counts, c=counts)
    def check(a, b, c):
        assert (a + b) + c == a + (b + c)  # associativity
        assert a + b == b + a  # commutativity
        assert a + ConfusionCounts() == a  # identity
        assert ConfusionCounts.merge([a, b, c]) == a + b + c

    check()
