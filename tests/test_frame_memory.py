"""Per-frame memory guard: a HOG+SVM scan allocates band- and level-sized
temporaries, never a frame-sized window feature matrix, and the dark front
end allocates no plane that its merged mask does not read.

The scans gather and score only the windows a margin bound cannot reject,
and the gradient/histogram front end runs in bands of a few cell rows.
The ``tracemalloc`` peak of one call on a 360x640 frame is ~7.2 MB for a
four-level ``detect_multiscale`` and ~4.3 MB for ``PedestrianDetector.detect``.
Gathering every window's descriptor and running the front end over whole
planes took them to ~21 MB and ~15 MB.

``DarkVehicleDetector.detect`` on a 360x640 night frame peaks at 5.53 MB:
the Y plane plus the one-pass histogram's two index-sized temporaries.
Splitting all three Y/Cb/Cr planes and thresholding Cr over the whole
frame peaked at 7.83 MB.
"""

from __future__ import annotations

import tracemalloc

import pytest

from repro.datasets.lighting import DARK_LIGHTING, LightingCondition, lighting_for_condition
from repro.datasets.scene import SceneConfig, render_scene
from repro.datasets.synthetic import make_pedestrian_frames
from repro.pipelines.day_dusk import DayDuskConfig, HogSvmVehicleDetector
from repro.pipelines.pedestrian import PedestrianDetector

#: tracemalloc peak bounds for one call, in MB.
MULTISCALE_MAX_MB = 12.0
PEDESTRIAN_MAX_MB = 8.0
DARK_MAX_MB = 7.0


@pytest.fixture(scope="module")
def frame():
    config = SceneConfig(
        height=360, width=640, n_vehicles=2, n_oncoming=1, vehicle_fill=(0.13, 0.16), seed=5
    )
    return render_scene(config, lighting_for_condition(LightingCondition.DAY)).rgb


def peak_mb(call) -> float:
    """tracemalloc peak of one call, after a warm-up call."""
    call()
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 1e6


def test_multiscale_scan_peak_memory(condition_models, frame):
    detector = HogSvmVehicleDetector(
        DayDuskConfig(decision_threshold=1.0), condition_models["day"]
    )
    peak = peak_mb(lambda: detector.detect_multiscale(frame, max_levels=4))
    assert peak < MULTISCALE_MAX_MB, f"detect_multiscale peaked at {peak:.1f} MB"


def test_pedestrian_scan_peak_memory(frame):
    detector = PedestrianDetector()
    detector.train_from_frames(
        make_pedestrian_frames(n_frames=8, height=180, width=320, seed=41), seed=42
    )
    peak = peak_mb(lambda: detector.detect(frame))
    assert peak < PEDESTRIAN_MAX_MB, f"pedestrian detect peaked at {peak:.1f} MB"


def test_dark_detect_peak_memory(dark_detector):
    config = SceneConfig(
        height=360, width=640, n_vehicles=3, n_oncoming=2, vehicle_fill=(0.057, 0.088), seed=5
    )
    night = render_scene(config, DARK_LIGHTING).rgb
    peak = peak_mb(lambda: dark_detector.detect(night))
    assert peak < DARK_MAX_MB, f"dark detect peaked at {peak:.1f} MB"
