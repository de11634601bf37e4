"""Differential tests for the front end the two partitions share.

On a day or dusk frame the day/dusk pyramid's level 0 and the pedestrian
scan read the same dense HOG blocks of the same luma plane, and
``frame_blocks`` computes them once for both.  Detections must be byte
for byte those of a run whose every call finds the memo empty, in either
call order, on bench-like frames of all three lighting conditions; the
pedestrian partition must get the same when it runs alone (a blind window,
a dark frame); planes that differ in one bit must never share blocks; and
a spy holds a day frame through both partitions to four dense
extractions, not five.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.adaptive.controller import ControllerConfig
from repro.core.functional import AdaptiveVehicleDetector, FunctionalConfig
from repro.datasets.lighting import LightingCondition, lighting_for_condition
from repro.datasets.scene import SceneConfig, render_scene
from repro.datasets.synthetic import make_pedestrian_frames
from repro.features.hog import HogConfig, HogDescriptor
from repro.imaging.color import luminance
from repro.pipelines import base
from repro.pipelines.base import frame_blocks
from repro.pipelines.day_dusk import HogSvmVehicleDetector
from repro.pipelines.hog_svm import VEHICLE_LEVELS, HogSvmConfig
from repro.pipelines.pedestrian import PedestrianDetector

from tests.equivalence.references import reference_scans

pytestmark = pytest.mark.equivalence

#: Lux the controller reads as each condition.
LUX = {LightingCondition.DAY: 5000.0, LightingCondition.DARK: 0.8}


def bench_like_frame(condition: LightingCondition, seed: int) -> np.ndarray:
    """A 360x640 road scene with a pedestrian and fresh sensor noise."""
    config = SceneConfig(
        height=360,
        width=640,
        n_vehicles=2,
        n_pedestrians=1,
        n_oncoming=0 if condition is LightingCondition.DAY else 1,
        vehicle_fill=(0.13, 0.16) if condition is not LightingCondition.DARK else (0.06, 0.09),
        seed=seed,
    )
    rgb = render_scene(config, lighting_for_condition(condition)).rgb
    rgb = rgb + np.random.default_rng(seed).normal(0.0, 0.01, rgb.shape)
    return np.clip(rgb, 0.0, 1.0)


def detection_bytes(detections) -> list[tuple]:
    return [
        (d.kind, d.rect, np.float64(d.score).tobytes(), repr(d.extra)) for d in detections
    ]


def dense_calls(monkeypatch) -> list[tuple[int, int]]:
    """Record the plane shape of every ``HogDescriptor.extract_dense`` call."""
    calls: list[tuple[int, int]] = []
    real = HogDescriptor.extract_dense

    def recorded(self, image):
        calls.append(np.shape(image))
        return real(self, image)

    monkeypatch.setattr(HogDescriptor, "extract_dense", recorded)
    return calls


@pytest.fixture(autouse=True)
def empty_memo(monkeypatch):
    monkeypatch.setattr(base, "_frame_slot", None)


@pytest.fixture(scope="module")
def walker():
    detector = PedestrianDetector()
    detector.train_from_frames(
        make_pedestrian_frames(n_frames=8, height=180, width=320, seed=41), seed=42
    )
    return detector


def vehicle_hog(
    condition_models, condition: LightingCondition, levels: int = VEHICLE_LEVELS
) -> HogSvmVehicleDetector:
    model = condition_models["day" if condition is LightingCondition.DAY else "dusk"]
    return HogSvmVehicleDetector(HogSvmConfig(decision_threshold=1.0, levels=levels), model)


class TestSharedDetections:
    @pytest.mark.parametrize("vehicle_first", [True, False], ids=["vehicle-first", "walker-first"])
    @pytest.mark.parametrize("condition", list(LightingCondition), ids=lambda c: c.value)
    def test_identical_to_an_empty_memo(
        self, condition_models, walker, monkeypatch, condition, vehicle_first
    ):
        vehicle = vehicle_hog(condition_models, condition)
        frame = bench_like_frame(condition, seed=11)
        calls = [lambda: vehicle.detect_multiscale(frame), lambda: walker.detect(frame)]
        if not vehicle_first:
            calls.reverse()

        def run(empty: bool) -> list:
            out = []
            for call in calls:
                if empty:
                    monkeypatch.setattr(base, "_frame_slot", None)
                out.append(detection_bytes(call()))
            return out

        extractions = dense_calls(monkeypatch)
        shared = run(empty=False)
        assert len(extractions) == 4  # the second partition found level 0 in the memo
        extractions.clear()
        alone = run(empty=True)
        assert len(extractions) == 5
        assert shared == alone

    def test_single_scale_vehicle_shares_with_the_walker(
        self, condition_models, walker, monkeypatch
    ):
        vehicle = vehicle_hog(condition_models, LightingCondition.DUSK, levels=1)
        frame = bench_like_frame(LightingCondition.DUSK, seed=12)
        extractions = dense_calls(monkeypatch)
        shared = detection_bytes(vehicle.detect(frame)), detection_bytes(walker.detect(frame))
        assert len(extractions) == 1
        monkeypatch.setattr(base, "_frame_slot", None)
        assert detection_bytes(walker.detect(frame)) == shared[1]

    def test_other_frames_in_between_change_nothing(self, condition_models, walker):
        vehicle = vehicle_hog(condition_models, LightingCondition.DAY)
        first, second = (bench_like_frame(LightingCondition.DAY, seed) for seed in (21, 22))
        want = detection_bytes(walker.detect(first))
        vehicle.detect_multiscale(first)
        vehicle.detect_multiscale(second)
        assert detection_bytes(walker.detect(first)) == want


class TestPartitionsStayIndependent:
    def test_walker_alone_in_a_blind_window_and_on_dark_frames(
        self, condition_models, dark_detector, walker, monkeypatch
    ):
        vehicle = AdaptiveVehicleDetector(
            condition_models,
            dark_detector,
            config=FunctionalConfig(controller=ControllerConfig(min_dwell_s=0.0), multiscale=True),
            day_dusk_config=HogSvmConfig(decision_threshold=1.0),
            initial=LightingCondition.DUSK,
        )
        dusk = bench_like_frame(LightingCondition.DUSK, seed=31)
        dark = bench_like_frame(LightingCondition.DARK, seed=32)
        want = []
        for frame in (dusk, dark):
            monkeypatch.setattr(base, "_frame_slot", None)
            want.append(detection_bytes(walker.detect(frame)))
        # The frame that trips dusk->dark is still served by the dusk image.
        switch = vehicle.process(0.0, LUX[LightingCondition.DARK], dusk)
        assert not switch.reconfiguring and switch.active_pipeline.endswith(":dusk")
        monkeypatch.setattr(base, "_frame_slot", None)
        extractions = dense_calls(monkeypatch)
        # The next frame falls in the 20.51 ms blind window: no vehicle scan.
        blind = vehicle.process(0.02, LUX[LightingCondition.DARK], dusk)
        assert blind.reconfiguring and blind.detections == []
        assert extractions == []
        assert detection_bytes(walker.detect(dusk)) == want[0]
        # The dark pipeline runs no HOG, so the walker computes its own blocks.
        result = vehicle.process(1.0, LUX[LightingCondition.DARK], dark)
        assert result.condition is LightingCondition.DARK and not result.reconfiguring
        assert result.active_pipeline == "vehicle-dark"
        assert detection_bytes(walker.detect(dark)) == want[1]
        assert extractions == [(360, 640), (360, 640)]


class TestSpy:
    def test_a_day_frame_through_both_partitions_extracts_four_planes(
        self, condition_models, dark_detector, walker, monkeypatch
    ):
        # Byte-identical either way, so only a spy sees the second
        # partition recompute level 0.
        vehicle = AdaptiveVehicleDetector(
            condition_models,
            dark_detector,
            config=FunctionalConfig(multiscale=True),
            day_dusk_config=HogSvmConfig(decision_threshold=1.0),
            initial=LightingCondition.DAY,
        )
        frame = bench_like_frame(LightingCondition.DAY, seed=41)
        extractions = dense_calls(monkeypatch)
        vehicle.process(0.0, LUX[LightingCondition.DAY], frame)
        walker.detect(frame)
        assert len(extractions) == 4
        assert extractions[0] == (360, 640)

    def test_reference_scans_compute_their_own_blocks(self, condition_models, walker, monkeypatch):
        vehicle = vehicle_hog(condition_models, LightingCondition.DAY)
        frame = bench_like_frame(LightingCondition.DAY, seed=42)
        vehicle.detect_multiscale(frame)  # level 0 is now in the memo
        extractions = dense_calls(monkeypatch)
        with reference_scans():
            walker.detect(frame)
        assert extractions == [(360, 640)]  # the oracle's own, full computation


class TestByteIdentity:
    @pytest.fixture()
    def hog(self):
        return HogDescriptor(HogConfig(window=(64, 32)))

    @pytest.mark.parametrize("pixel", [(0, 0), (200, 333)], ids=["first-row", "inner"])
    def test_one_ulp_apart_never_share(self, hog, monkeypatch, pixel):
        plane = np.random.default_rng(5).random((360, 640))
        near = plane.copy()
        near[pixel] = np.nextafter(near[pixel], 2.0)
        extractions = dense_calls(monkeypatch)
        frame_blocks(hog, plane)
        blocks, _ = frame_blocks(hog, near)
        assert len(extractions) == 2
        assert blocks.tobytes() == hog.extract_dense(near.copy())[0].tobytes()

    @pytest.mark.parametrize("pixel", [(0, 5), (100, 90)], ids=["first-row", "inner"])
    def test_signed_zeros_never_share(self, hog, monkeypatch, pixel):
        plane = np.random.default_rng(6).random((128, 96))
        plane[pixel] = 0.0
        negative = plane.copy()
        negative[pixel] = -0.0
        assert np.array_equal(plane, negative)  # equal as numbers, not as bytes
        extractions = dense_calls(monkeypatch)
        frame_blocks(hog, plane)
        frame_blocks(hog, negative)
        assert len(extractions) == 2

    def test_same_bytes_share_across_windows_not_across_grids(self, monkeypatch):
        plane = luminance(np.random.default_rng(7).random((96, 128, 3)))
        extractions = dense_calls(monkeypatch)
        wide, _ = frame_blocks(HogDescriptor(HogConfig(window=(64, 64))), plane)
        tall, layout = frame_blocks(HogDescriptor(HogConfig(window=(64, 32))), plane.copy())
        assert tall is wide and layout.config.window == (64, 32)
        assert len(extractions) == 1
        frame_blocks(HogDescriptor(HogConfig(window=(64, 32), n_bins=8)), plane)
        assert len(extractions) == 2

    def test_shared_blocks_and_planes_are_read_only(self, hog):
        plane = np.random.default_rng(9).random((64, 64))
        blocks, _ = frame_blocks(hog, plane)
        assert not blocks.flags.writeable and not plane.flags.writeable
