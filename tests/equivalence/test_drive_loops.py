"""The drive-loop contract: ``run_drive`` and the pixel detector are one loop.

``AdaptiveDetectionSystem.run_drive`` (timing only) and
``AdaptiveVehicleDetector.process`` (the real pipelines as the tick's
stage) both run ``AdaptiveDetectionSystem.tick``.  Fed the same lux at the
same ticks, they must take the same condition changes, model swaps and
reconfigurations, refuse the same vehicle frames, flush the same ticks
under a ``PIPELINE_EXCEPTION`` plan, and record the same audited frame
cores.

The frame clock and the sensor both run at 1/64 s.  ``run_drive`` adds up
its sensor clock, and 0.02 s is not a binary fraction, so at 50 fps the
k-th sample drifts an ulp past the k-th tick and is taken one tick late;
1/64 s keeps the two clocks equal to the bit.  A reconfiguration (20.51
ms) spans one such tick and a bit, as it spans one 20 ms tick.
"""

from __future__ import annotations

import pytest

from repro.adaptive.controller import ControllerConfig
from repro.adaptive.sensor import LightSensor, LuxTrace
from repro.core.functional import AdaptiveVehicleDetector, FunctionalConfig
from repro.core.spec import frames_digest
from repro.core.system import AdaptiveDetectionSystem, SystemConfig
from repro.datasets.lighting import LightingCondition, lighting_for_condition
from repro.datasets.scene import SceneConfig, render_scene
from repro.faults.plan import FaultPlan, FaultSite, FaultSpec

pytestmark = pytest.mark.equivalence

FPS = 64.0
PERIOD_S = 1.0 / FPS
CONTROLLER = ControllerConfig(min_dwell_s=0.5)

#: Day -> dusk (model swap) -> dark (PR) -> dusk (PR) in five seconds.
TRACE = LuxTrace(
    points=(
        (0.0, 30000.0), (1.0, 30000.0), (1.1, 100.0), (2.0, 100.0),
        (2.1, 0.8), (3.4, 0.8), (3.5, 100.0), (5.0, 100.0),
    )
)  # fmt: skip
DURATION_S = 5.0


def flush_plan() -> FaultPlan:
    """Detector exceptions on a burst of ticks, and on the dark->dusk
    switch tick (3.453 s) and the blind tick after it."""
    return FaultPlan(
        [
            FaultSpec(site=FaultSite.PIPELINE_EXCEPTION, target="vehicle", start_s=0.5, end_s=0.6),
            FaultSpec(site=FaultSite.PIPELINE_EXCEPTION, target="vehicle", start_s=3.45, end_s=3.48),
        ]
    )


@pytest.fixture(scope="module")
def tiny_frame():
    config = SceneConfig(height=72, width=132, n_vehicles=1, vehicle_fill=(0.2, 0.25), seed=3)
    return render_scene(config, lighting_for_condition(LightingCondition.DUSK)).rgb


def both_loops(condition_models, dark_detector, frame, initial, plan_factory):
    """One drive through each loop: the timing-only report and the adapter."""
    system = AdaptiveDetectionSystem(
        SystemConfig(
            fps=FPS, controller=CONTROLLER, sensor_period_s=PERIOD_S, initial_condition=initial
        ),
        fault_plan=plan_factory(),
    )
    report = system.run_drive(
        TRACE, duration_s=DURATION_S, sensor=LightSensor(TRACE, noise_rel=0.0)
    )
    adapter = AdaptiveVehicleDetector(
        condition_models,
        dark_detector,
        config=FunctionalConfig(controller=CONTROLLER),
        initial=initial,
        fault_plan=plan_factory(),
    )
    for i in range(report.n_frames):
        t = i * PERIOD_S
        adapter.process(t, TRACE.lux_at(t), frame)
    return report, adapter


def flushed(record) -> bool:
    return any(label.startswith("degrade:detector-flush") for label in record.faults)


@pytest.mark.parametrize("plan_factory", [lambda: None, flush_plan], ids=["clean", "flushes"])
@pytest.mark.parametrize(
    "initial", [LightingCondition.DAY, LightingCondition.DUSK], ids=lambda c: c.value
)
def test_one_loop(condition_models, dark_detector, tiny_frame, initial, plan_factory):
    report, adapter = both_loops(condition_models, dark_detector, tiny_frame, initial, plan_factory)
    pixel = adapter.system.report
    results = adapter.results
    assert len(results) == report.n_frames == int(DURATION_S * FPS)

    assert pixel.condition_changes == report.condition_changes
    assert [c.new for c in report.condition_changes][-2:] == [
        LightingCondition.DARK,
        LightingCondition.DUSK,
    ]
    assert pixel.model_swaps == report.model_swaps
    assert pixel.reconfigurations == report.reconfigurations
    assert [r.ok for r in report.reconfigurations] == [True, True]
    assert pixel.degradations == report.degradations

    # A result's condition is the one in force when its frame was issued:
    # the condition the drive recorded after the previous tick's samples.
    assert [r.condition for r in results] == [initial] + [f.condition for f in report.frames[:-1]]
    # A frame is blind when a reconfiguration is in flight as it is issued;
    # it is degraded when the partition is up and the tick is flushed.
    # Between them they are exactly the vehicle frames the drive lost.
    in_flight = [
        any(r.start_s < f.time_s < r.end_s for r in report.reconfigurations)
        for f in report.frames
    ]
    assert [r.reconfiguring for r in results] == in_flight
    assert [r.degraded for r in results] == [
        flushed(f) and not blind for f, blind in zip(report.frames, in_flight)
    ]
    assert [r.reconfiguring or r.degraded for r in results] == [
        not f.vehicle_accepted for f in report.frames
    ]
    assert all(f.pedestrian_accepted for f in report.frames)
    # One tick body: the pixel drive's audit trail is the timing drive's.
    assert frames_digest(pixel.frames) == frames_digest(report.frames)


def test_flushed_results_carry_the_flush_label(condition_models, dark_detector, tiny_frame):
    _, adapter = both_loops(
        condition_models, dark_detector, tiny_frame, LightingCondition.DAY, flush_plan
    )
    results, frames = adapter.results, adapter.system.report.frames
    assert len(frames) == len(results)
    # A flushed tick on an up partition is a degraded result; the blind
    # tick after the dark->dusk switch is flushed too but reports blind.
    assert any(r.degraded for r in results)
    assert [r.degraded for r in results] == [
        flushed(f) and not r.reconfiguring for f, r in zip(frames, results)
    ]


@pytest.mark.parametrize("plan_factory", [lambda: None, flush_plan], ids=["clean", "flushes"])
def test_one_blind_frame_per_switch_after_the_switch_frame(
    condition_models, dark_detector, tiny_frame, plan_factory
):
    report, adapter = both_loops(
        condition_models, dark_detector, tiny_frame, LightingCondition.DAY, plan_factory
    )
    results = adapter.results
    blind = [i for i, r in enumerate(results) if r.reconfiguring]
    switch_ticks = [round(r.start_s * FPS) for r in report.reconfigurations]
    assert blind == [tick + 1 for tick in switch_ticks]
    for tick in switch_ticks:
        # The switch frame runs the outgoing image, the frame after it
        # none, and the one after that the incoming image.
        before, after = results[tick].active_pipeline, results[tick + 2].active_pipeline
        assert before != after
        assert results[tick + 2].condition is results[tick + 1].condition
    assert len(blind) / len(report.reconfigurations) == 1.0
