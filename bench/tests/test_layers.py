"""The outside-in tracer: self-time rollup, clean install/uninstall, and
the traced/bare block alternation the overhead is measured on."""

from __future__ import annotations

import math
import sys

import pytest

from bench.layers import (
    LAYERS,
    PATCHED_PACKAGES,
    RESIDUAL,
    Instrumentation,
    Recorder,
    Tracing,
    _resolve,
    layer_metrics,
)
from bench.run import tracing_overhead


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_rollup_on_a_hand_built_span_tree():
    # frame [0, 10]
    #   pipelines.day_dusk [1, 7]
    #     features.gradient [2, 4]
    #     imaging.nms [5, 6]
    #   pipelines.pedestrian [7, 9]
    #     features.gradient [7.5, 8.5]
    clock = FakeClock()
    recorder = Recorder(clock=clock)
    recorder.phase = "measure"

    def at(t: float) -> None:
        clock.now = t

    at(0), recorder.enter("frame")
    at(1), recorder.enter("pipelines.day_dusk")
    at(2), recorder.enter("features.gradient")
    at(4), recorder.exit()
    at(5), recorder.enter("imaging.nms")
    at(6), recorder.exit()
    at(7), recorder.exit()
    recorder.enter("pipelines.pedestrian")
    at(7.5), recorder.enter("features.gradient")
    at(8.5), recorder.exit()
    at(9), recorder.exit()
    at(10)
    assert recorder.exit(RESIDUAL) == 10.0

    assert recorder.self_s("measure", "pipelines.day_dusk") == 3.0
    assert recorder.self_s("measure", "features.gradient") == 3.0
    assert recorder.self_s("measure", "imaging.nms") == 1.0
    assert recorder.self_s("measure", "pipelines.pedestrian") == 1.0
    assert recorder.self_s("measure", RESIDUAL) == 2.0
    # Self times partition the frame exactly.
    assert recorder.self_s("measure") == 10.0
    # Split by pipeline subtree: gradient time is charged to the subtree it ran in.
    assert recorder.self_s("measure", "features.gradient", pipeline="pipelines.day_dusk") == 2.0
    assert recorder.self_s("measure", "features.gradient", pipeline="pipelines.pedestrian") == 1.0
    assert recorder.self_s("measure", pipeline="pipelines.day_dusk") == 6.0
    assert recorder.self_s("measure", pipeline=None) == 2.0
    assert recorder.calls("measure", "features.gradient") == 2

    metrics = layer_metrics(recorder, items=1, setups=1)
    assert metrics["features.gradient.self_ms"] == 3000.0
    assert metrics["features.gradient.calls"] == 2
    assert metrics[f"{RESIDUAL}.self_ms"] == 2000.0

    # Spans close innermost first and point at their parent.
    names = [span[0] for span in recorder.spans]
    assert names == [
        "features.gradient",
        "imaging.nms",
        "pipelines.day_dusk",
        "features.gradient",
        "pipelines.pedestrian",
        "frame",
    ]
    parents = {span[0]: span[3] for span in recorder.spans}
    assert parents["frame"] is None


def test_span_dump_is_capped_but_rollup_is_not():
    recorder = Recorder(max_spans=2)
    recorder.phase = "measure"
    for _ in range(5):
        recorder.enter("imaging.nms")
        recorder.exit()
    assert len(recorder.spans) == 2
    assert recorder.spans_dropped == 3
    assert recorder.calls("measure", "imaging.nms") == 5


def _snapshot() -> dict:
    """Every module-level binding of the patched packages, plus the raw
    class attributes of every method target."""
    state = {}
    for layer in LAYERS:  # imports every target module first
        for target in layer.targets:
            owner, attr, raw = _resolve(target)
            state[(target,)] = id(raw)
    for name, module in list(sys.modules.items()):
        if module is not None and name.split(".")[0] in PATCHED_PACKAGES:
            for attr, value in vars(module).items():
                state[(name, attr)] = id(value)
    return state


def test_install_then_uninstall_leaves_every_callable_identical():
    import repro.pipelines.day_dusk as day_dusk
    import repro.pipelines.pedestrian as pedestrian
    from repro.core.system import AdaptiveDetectionSystem
    from repro.imaging import geometry

    before = _snapshot()
    original_nms = geometry.non_max_suppression
    original_from_spec = AdaptiveDetectionSystem.__dict__["from_spec"]

    instrumentation = Instrumentation(Recorder())
    instrumentation.install()
    try:
        # Names imported elsewhere by name are rebound too.
        assert day_dusk.non_max_suppression is not original_nms
        assert pedestrian.non_max_suppression is day_dusk.non_max_suppression
        assert geometry.non_max_suppression is day_dusk.non_max_suppression
        # classmethods stay classmethods.
        assert isinstance(AdaptiveDetectionSystem.__dict__["from_spec"], classmethod)
        assert AdaptiveDetectionSystem.__dict__["from_spec"] is not original_from_spec
    finally:
        instrumentation.uninstall()

    assert _snapshot() == before
    assert day_dusk.non_max_suppression is original_nms
    assert AdaptiveDetectionSystem.__dict__["from_spec"] is original_from_spec


def test_a_traced_run_alternates_installed_and_bare_blocks():
    import repro.pipelines.day_dusk as day_dusk

    original = day_dusk.non_max_suppression
    recorder = Recorder()
    tracing = Tracing(recorder, enabled=True, block=2)
    seen = []
    try:
        tracing.begin("setup")
        assert day_dusk.non_max_suppression is not original
        for item in range(6):
            tracing.item(item)
            seen.append((recorder.phase, day_dusk.non_max_suppression is not original))
    finally:
        tracing.end()
    assert seen == [("measure", True)] * 2 + [("bare", False)] * 2 + [("measure", True)] * 2
    assert day_dusk.non_max_suppression is original and recorder.phase is None

    untraced = Tracing(Recorder(), enabled=False, block=2)
    untraced.item(3)
    assert untraced.recorder.phase == "measure" and day_dusk.non_max_suppression is original


def test_tracing_overhead_compares_each_traced_block_with_the_bare_one_after_it():
    # Traced blocks run 10% slower than their bare neighbours; the machine
    # halving its speed for the second pair scales both blocks alike.
    items = [1.1, 1.1, 1.0, 1.0, 2.2, 2.2, 2.0, 2.0, 1.1, 1.1, 1.0, 1.0, 9.0]
    assert tracing_overhead(items, block=2) == pytest.approx(0.1)
    assert math.isnan(tracing_overhead([1.0, 1.0, 1.0], block=2))


def test_wrappers_record_only_inside_a_phase_and_keep_results():
    from repro.imaging.geometry import Rect
    import repro.pipelines.day_dusk as day_dusk

    boxes = [Rect(0, 0, 10, 10), Rect(1, 1, 10, 10), Rect(50, 50, 5, 5)]
    scores = [0.9, 0.8, 0.7]
    expected = day_dusk.non_max_suppression(boxes, scores, iou_threshold=0.3)

    recorder = Recorder()
    instrumentation = Instrumentation(recorder)
    instrumentation.install()
    try:
        assert day_dusk.non_max_suppression(boxes, scores, iou_threshold=0.3) == expected
        assert recorder.rollup == {}
        recorder.phase = "measure"
        assert day_dusk.non_max_suppression(boxes, scores, iou_threshold=0.3) == expected
    finally:
        instrumentation.uninstall()
    assert recorder.calls("measure", "imaging.nms") == 1
    assert recorder.counts[("measure", "imaging.nms.in")] == 3
    assert recorder.counts[("measure", "imaging.nms.kept")] == len(expected)
