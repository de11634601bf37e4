"""FlightRecorder: ring bounds, pre/post-roll windows, cooldown, caps."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.monitor.recorder import FlightRecorder, FrameSnapshot, TriggerEvent

pytestmark = pytest.mark.monitor


def snap(i: int) -> FrameSnapshot:
    return FrameSnapshot(record={"index": i, "time_s": i * 0.02})


def trig(i: int, kind: str = "fault") -> TriggerEvent:
    return TriggerEvent(kind=kind, time_s=i * 0.02, frame_index=i, detail=f"t{i}")


class TestRing:
    def test_ring_is_bounded_by_capacity(self):
        recorder = FlightRecorder(capacity=8, pre_roll=4, post_roll=2)
        for i in range(20):
            recorder.push(snap(i))
        assert len(recorder.ring) == 8
        assert recorder.frames_seen == 20
        assert [s.index for s in recorder.ring] == list(range(12, 20))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"capacity": 0},
            {"pre_roll": -1},
            {"post_roll": -1},
            {"capacity": 4, "pre_roll": 8},
            {"cooldown_frames": -1},
            {"max_incidents": 0},
        ],
    )
    def test_geometry_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            FlightRecorder(**kwargs)


class TestWindows:
    def test_pre_and_post_roll_around_the_trigger(self):
        recorder = FlightRecorder(capacity=64, pre_roll=4, post_roll=3)
        for i in range(10):
            assert recorder.push(snap(i)) is None
        assert recorder.trigger(trig(10))
        assert recorder.capturing
        windows = [w for w in (recorder.push(snap(i)) for i in range(10, 14)) if w is not None]
        assert not recorder.capturing
        assert len(windows) == 1
        assert recorder.incidents == windows
        window = windows[0]
        assert [s.index for s in window.snapshots] == [6, 7, 8, 9, 10, 11, 12]
        assert window.start_index == 6 and window.end_index == 12
        assert window.triggers[0].frame_index == 10

    def test_pre_roll_is_lifted_at_trigger_time(self):
        recorder = FlightRecorder(capacity=4, pre_roll=4, post_roll=8)
        for i in range(6):
            recorder.push(snap(i))
        recorder.trigger(trig(6))
        # Later pushes cannot evict the lifted pre-roll from the window.
        for i in range(6, 14):
            recorder.push(snap(i))
        window = recorder.incidents[0]
        assert [s.index for s in window.snapshots][:4] == [2, 3, 4, 5]

    def test_trigger_during_open_window_folds(self):
        recorder = FlightRecorder(capacity=16, pre_roll=2, post_roll=4)
        recorder.push(snap(0))
        assert recorder.trigger(trig(1))
        assert recorder.trigger(trig(2, kind="reconfig-failure"))
        for i in range(1, 5):
            recorder.push(snap(i))
        assert len(recorder.incidents) == 1
        assert [t.kind for t in recorder.incidents[0].triggers] == [
            "fault",
            "reconfig-failure",
        ]

    def test_cooldown_suppresses_a_storm(self):
        recorder = FlightRecorder(capacity=16, pre_roll=1, post_roll=1, cooldown_frames=10)
        recorder.push(snap(0))
        assert recorder.trigger(trig(0))
        recorder.push(snap(1))  # closes the window, arms the cooldown
        assert not recorder.trigger(trig(2))
        assert recorder.triggers_suppressed == 1
        for i in range(2, 12):
            recorder.push(snap(i))
        assert recorder.trigger(trig(12))

    def test_max_incidents_cap(self):
        recorder = FlightRecorder(
            capacity=16, pre_roll=0, post_roll=0, cooldown_frames=0, max_incidents=2
        )
        for i in range(4):
            recorder.push(snap(i))
            recorder.trigger(trig(i))
        assert len(recorder.incidents) == 2
        assert recorder.triggers_suppressed == 2

    def test_flush_truncates_post_roll(self):
        recorder = FlightRecorder(capacity=16, pre_roll=2, post_roll=100)
        for i in range(4):
            recorder.push(snap(i))
        recorder.trigger(trig(4))
        recorder.push(snap(4))
        window = recorder.flush()
        assert window is not None
        assert [s.index for s in window.snapshots] == [2, 3, 4]
        assert recorder.flush() is None

    def test_zero_post_roll_closes_immediately(self):
        recorder = FlightRecorder(capacity=8, pre_roll=2, post_roll=0)
        for i in range(3):
            recorder.push(snap(i))
        recorder.trigger(trig(3))
        assert not recorder.capturing
        assert len(recorder.incidents) == 1
        assert [s.index for s in recorder.incidents[0].snapshots] == [1, 2]
