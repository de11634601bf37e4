"""The ground-truth observer: determinism, model behaviour, provenance."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from repro.adaptive.policy import CONFIG_FOR_CONDITION
from repro.adaptive.sensor import LuxTrace
from repro.datasets.lighting import LightingCondition
from repro.errors import QualityError
from repro.quality.observer import (
    LANES,
    NULL_QUALITY,
    ModelQualityObserver,
    QualityModelConfig,
    _round6,
    observer_from_provenance,
)

pytestmark = pytest.mark.quality

#: A bright, constant trace: the true condition is "day" everywhere.
DAY_TRACE = LuxTrace(points=((0.0, 50_000.0), (60.0, 50_000.0)))
DAY_CONFIG = CONFIG_FOR_CONDITION[LightingCondition.DAY].value
DARK_CONFIG = CONFIG_FOR_CONDITION[LightingCondition.DARK].value


@dataclass
class FakeFrame:
    """The FrameRecord surface the observer reads."""

    index: int
    time_s: float
    condition: LightingCondition = LightingCondition.DAY
    vehicle_accepted: bool = True
    vehicle_configuration: str = DAY_CONFIG
    reconfiguring: bool = False


def observe_n(observer, n, **frame_kwargs):
    observer.begin_drive(DAY_TRACE, duration_s=n * 0.02, n_frames=n)
    records = []
    for i in range(n):
        record = observer.observe_frame(
            FakeFrame(index=i, time_s=i * 0.02, **frame_kwargs), DAY_CONFIG
        )
        if record is not None:
            records.append(record)
    observer.finish_drive()
    return records


class TestDeterminism:
    def test_same_seed_same_records(self):
        a = observe_n(ModelQualityObserver(seed=77), 50)
        b = observe_n(ModelQualityObserver(seed=77), 50)
        assert [r.to_dict() for r in a] == [r.to_dict() for r in b]

    def test_different_seeds_differ(self):
        a = observe_n(ModelQualityObserver(seed=1), 50)
        b = observe_n(ModelQualityObserver(seed=2), 50)
        assert [r.to_dict() for r in a] != [r.to_dict() for r in b]

    def test_provenance_round_trip_reproduces(self):
        original = ModelQualityObserver(
            seed=9, config=QualityModelConfig(sample_every=2)
        )
        rebuilt = observer_from_provenance(original.provenance())
        assert rebuilt.seed == original.seed
        assert rebuilt.config == original.config
        assert [r.to_dict() for r in observe_n(original, 40)] == [
            r.to_dict() for r in observe_n(rebuilt, 40)
        ]

    def test_provenance_rejects_unknown_kind(self):
        with pytest.raises(QualityError, match="unknown quality observer kind"):
            observer_from_provenance({"kind": "oracle"})


class TestModelBehaviour:
    def test_dropped_frame_detects_nothing(self):
        records = observe_n(ModelQualityObserver(seed=5), 40, vehicle_accepted=False)
        assert all(r.detections == 0 for r in records)
        assert all(r.tp == 0 for r in records)

    def test_reconfiguring_frame_detects_nothing(self):
        records = observe_n(ModelQualityObserver(seed=5), 40, reconfiguring=True)
        assert all(r.detections == 0 for r in records)

    def test_mismatched_configuration_collapses_recall(self):
        matched = observe_n(ModelQualityObserver(seed=11), 300)
        mismatched = observe_n(
            ModelQualityObserver(seed=11), 300, vehicle_configuration=DARK_CONFIG
        )
        assert all(r.matched for r in matched)
        assert not any(r.matched for r in mismatched)

        def recall(records):
            tp = sum(r.tp for r in records)
            fn = sum(r.fn for r in records)
            return tp / (tp + fn)

        assert recall(matched) > 0.9
        assert recall(mismatched) < 0.5

    def test_matched_ious_at_or_above_threshold(self):
        from repro.quality.observer import MATCH_IOU_THRESHOLD

        records = observe_n(ModelQualityObserver(seed=3), 100)
        ious = [iou for r in records for iou in r.matched_ious]
        assert ious, "expected at least one matched detection in 100 day frames"
        assert all(iou >= MATCH_IOU_THRESHOLD for iou in ious)

    def test_sample_every_skips_frames(self):
        observer = ModelQualityObserver(
            seed=4, config=QualityModelConfig(sample_every=4)
        )
        records = observe_n(observer, 40)
        assert len(records) == 10
        assert [r.index for r in records] == list(range(0, 40, 4))


class TestModelDraws:
    """The model draws on Python floats what it once drew through numpy."""

    def test_lane_draw_consumes_the_stream_choice_consumes(self):
        for seed in range(200):
            by_choice, by_index = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(20):
                lane = LANES[int(by_index.integers(len(LANES)))]
                assert lane == float(by_choice.choice(list(LANES)))
                # Interleaved draws stay in step too.
                assert by_index.uniform(0.25, 1.0) == by_choice.uniform(0.25, 1.0)

    def test_round6_rounds_as_numpy_does(self):
        # Near-ties of the sixth decimal, where numpy's scale-and-rint and
        # Python's correctly rounded round(x, 6) part ways.
        values = []
        for k in range(500_000, 1_000_001, 997):
            tie = (k + 0.5) / 1e6
            values += [tie, np.nextafter(tie, 0.0), np.nextafter(tie, 1.0)]
        values += np.random.default_rng(3).uniform(0.5, 1.0, 2_000).tolist()
        for value in values:
            assert _round6(float(value)) == round(np.float64(value), 6)
        assert any(round(float(v), 6) != round(np.float64(v), 6) for v in values)


class TestLifecycle:
    def test_double_begin_raises(self):
        observer = ModelQualityObserver(seed=0)
        observer.begin_drive(DAY_TRACE, duration_s=1.0, n_frames=50)
        with pytest.raises(QualityError, match="already attached"):
            observer.begin_drive(DAY_TRACE, duration_s=1.0, n_frames=50)

    def test_observe_before_begin_raises(self):
        with pytest.raises(QualityError, match="before begin_drive"):
            ModelQualityObserver(seed=0).observe_frame(
                FakeFrame(index=0, time_s=0.0), DAY_CONFIG
            )

    def test_finish_before_begin_raises(self):
        with pytest.raises(QualityError, match="before begin_drive"):
            ModelQualityObserver(seed=0).finish_drive()

    def test_lifecycle_events_are_emitted(self):
        observer = ModelQualityObserver(seed=0)
        observe_n(observer, 10)
        kinds = [event["kind"] for event in observer.events]
        assert kinds == ["quality.drive.start", "quality.drive.summary"]

    def test_unknown_event_kind_rejected(self):
        observer = ModelQualityObserver(seed=0)
        with pytest.raises(QualityError, match="not in the declared vocabulary"):
            observer.quality_event("quality.party")


class TestNullObserver:
    def test_null_is_disabled_and_inert(self):
        assert NULL_QUALITY.enabled is False
        NULL_QUALITY.begin_drive(DAY_TRACE, 1.0, 50)
        assert (
            NULL_QUALITY.observe_frame(FakeFrame(index=0, time_s=0.0), DAY_CONFIG)
            is None
        )
        NULL_QUALITY.finish_drive()
        assert NULL_QUALITY.summary() == {}
        assert NULL_QUALITY.provenance() == {}


class TestModelConfig:
    def test_rejects_bad_sample_every(self):
        with pytest.raises(QualityError, match="sample_every"):
            QualityModelConfig(sample_every=0)

    def test_rejects_out_of_range_rates(self):
        with pytest.raises(QualityError, match="recall_day"):
            QualityModelConfig(recall_day=1.5)

    def test_rejects_bad_fill(self):
        with pytest.raises(QualityError, match="vehicle_fill"):
            QualityModelConfig(vehicle_fill=(0.4, 0.2))

    def test_dict_round_trip(self):
        config = QualityModelConfig(sample_every=3, recall_dark=0.8)
        assert QualityModelConfig.from_dict(config.to_dict()) == config
