"""Per-frame memory guard: a HOG+SVM scan allocates band- and level-sized
temporaries, never a frame-sized window feature matrix, the dark front end
allocates no plane that its merged mask does not read, and the front end
the two partitions share keeps one plane and its blocks between frames.

The scans gather and score only the windows a margin bound cannot reject;
the gradient/histogram front end and the pyramid resize run in bands of a
few rows, and the block normaliser works in its output array.  The
``tracemalloc`` peak of one call on a fresh 360x640 frame (one whose
blocks no earlier call computed) is ~5.6 MB for a four-level
``detect_multiscale`` and ~3.6 MB for ``PedestrianDetector.detect``.  A
gathered block copy and whole-plane resizes took them to ~7.2 MB and
~4.3 MB; gathering every window's descriptor and running the gradient
front end over whole planes, to ~21 MB and ~15 MB.

After a call, ``frame_blocks`` holds that frame's luma plane and its dense
blocks: ~2.85 MB for a 360x640 frame.

``DarkVehicleDetector.detect`` on a 360x640 night frame peaks at 3.30 MB.
Counting the Otsu histogram over the whole Y plane at once, with two
plane-sized temporaries, peaked at 5.53 MB; splitting all three Y/Cb/Cr
planes and thresholding Cr over the whole frame, at 7.83 MB.
"""

from __future__ import annotations

import tracemalloc

import pytest

from repro.datasets.lighting import DARK_LIGHTING, LightingCondition, lighting_for_condition
from repro.datasets.scene import SceneConfig, render_scene
from repro.datasets.synthetic import make_pedestrian_frames
from repro.pipelines.day_dusk import DayDuskConfig, HogSvmVehicleDetector
from repro.pipelines.hog_svm import VEHICLE_LEVELS
from repro.pipelines.pedestrian import PedestrianDetector

#: tracemalloc peak bounds for one call, in MB.
MULTISCALE_MAX_MB = 6.5
PEDESTRIAN_MAX_MB = 5.0
DARK_MAX_MB = 4.0
#: What the shared front end may still hold once a call returns, in MB.
RETAINED_MAX_MB = 3.0


def day_frame(seed: int):
    config = SceneConfig(
        height=360, width=640, n_vehicles=2, n_oncoming=1, vehicle_fill=(0.13, 0.16), seed=seed
    )
    return render_scene(config, lighting_for_condition(LightingCondition.DAY)).rgb


@pytest.fixture(scope="module")
def frames():
    """A warm-up frame and a fresh one for the measured call."""
    return day_frame(5), day_frame(6)


@pytest.fixture(scope="module")
def pedestrian_detector():
    detector = PedestrianDetector()
    detector.train_from_frames(
        make_pedestrian_frames(n_frames=8, height=180, width=320, seed=41), seed=42
    )
    return detector


def traced_mb(call, frames) -> tuple[float, float]:
    """tracemalloc (retained, peak) of ``call(frames[1])`` after a warm-up
    ``call(frames[0])``: the measured call computes every block itself."""
    call(frames[0])
    tracemalloc.start()
    try:
        call(frames[1])
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return retained / 1e6, peak / 1e6


def test_multiscale_scan_peak_memory(condition_models, frames):
    detector = HogSvmVehicleDetector(
        DayDuskConfig(decision_threshold=1.0, levels=VEHICLE_LEVELS), condition_models["day"]
    )
    _, peak = traced_mb(detector.detect_multiscale, frames)
    assert peak < MULTISCALE_MAX_MB, f"detect_multiscale peaked at {peak:.1f} MB"


def test_pedestrian_scan_peak_memory(pedestrian_detector, frames):
    _, peak = traced_mb(pedestrian_detector.detect, frames)
    assert peak < PEDESTRIAN_MAX_MB, f"pedestrian detect peaked at {peak:.1f} MB"


def test_shared_front_end_retains_one_plane_and_its_blocks(pedestrian_detector, frames):
    retained, _ = traced_mb(pedestrian_detector.detect, frames)
    assert 1.0 < retained < RETAINED_MAX_MB, f"a scan left {retained:.2f} MB behind"


def test_dark_detect_peak_memory(dark_detector):
    config = SceneConfig(
        height=360, width=640, n_vehicles=3, n_oncoming=2, vehicle_fill=(0.057, 0.088), seed=5
    )
    night = render_scene(config, DARK_LIGHTING).rgb
    _, peak = traced_mb(dark_detector.detect, (night, night))
    assert peak < DARK_MAX_MB, f"dark detect peaked at {peak:.1f} MB"
