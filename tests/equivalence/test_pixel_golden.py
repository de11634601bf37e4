"""Golden pin of pixel detections through both partitions.

Two seeded frames per lighting condition, at the shared fixtures' frame
sizes, go through :class:`~repro.core.functional.AdaptiveVehicleDetector`
booted in that condition and fed a lux settled in it (so no switch and no
blind frame), and through the static partition's
:class:`~repro.pipelines.pedestrian.PedestrianDetector`.  The vehicle
detector is set up as the benchmark's pixel workloads set it up: all
``VEHICLE_LEVELS`` pyramid levels and a +1 margin (one level would leave
the pyramid's scale step unpinned).  Each
(partition, condition) pair reduces to the SHA-256 of its rects, rounded
to whole pixels, and scores, rounded to six decimals.

The sim-only pins (``test_sim_only_golden.py``) see no pixel; these see a
changed pyramid, HOG bin, SVM score, dark-pipeline stage or NMS.  The
values were captured before the SoC trace stopped keeping records; a
change that moves a detection on purpose re-captures them and says so.

``scripts/check.sh`` runs this module once at OpenBLAS's default thread
count and again under the one-thread pins: detections must not depend on
the BLAS thread count for a replayed drive to reproduce them.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.functional import AdaptiveVehicleDetector, FunctionalConfig
from repro.datasets.lighting import LightingCondition, lighting_for_condition
from repro.datasets.scene import SceneConfig, render_scene
from repro.pipelines.hog_svm import HogSvmConfig

pytestmark = pytest.mark.equivalence

#: A lux well inside each condition's band, so the controller holds it.
SETTLED_LUX = {
    LightingCondition.DAY: 30_000.0,
    LightingCondition.DUSK: 400.0,
    LightingCondition.DARK: 1.0,
}

#: ``tests/conftest.py``'s frame sizes: 180 x 330 divides evenly by the
#: dark pipeline's 3x decimation.
FRAME_SIZE = {
    LightingCondition.DAY: (180, 320),
    LightingCondition.DUSK: (180, 320),
    LightingCondition.DARK: (180, 330),
}

GOLDEN = {
    "vehicle-day": "80d7fa68c68bd07e7a9ae53edf230e541c6c7e7d314cc3e2de58221cf0da7912",
    "vehicle-dusk": "70665046952f541e70048e066211325fbfe588ad9837b2aa65f9fa94f9fae8e9",
    "vehicle-dark": "87a7943c862a5c90c71e68a66776e20f7deb5bd99557b7bce2ad3e16a110e339",
    "pedestrian-day": "8f40e82f4e2a2288bdfeab3ee86b0adc2c1e734a1bd9c827eec589f091b175ac",
    "pedestrian-dusk": "a683096011db3975a1e401e33b0047d1f2677a11efe85ef12806f016ae039795",
    "pedestrian-dark": "a683096011db3975a1e401e33b0047d1f2677a11efe85ef12806f016ae039795",
}


def frames(condition: LightingCondition):
    height, width = FRAME_SIZE[condition]
    lighting = lighting_for_condition(condition)
    return [
        render_scene(
            SceneConfig(
                height=height,
                width=width,
                n_vehicles=2,
                n_pedestrians=2,
                n_oncoming=1,
                vehicle_fill=(0.1, 0.2),
                seed=seed,
            ),
            lighting,
        ).rgb
        for seed in (33, 39)
    ]


def view(detections_per_frame) -> list:
    return [
        [
            [round(d.rect.x), round(d.rect.y), round(d.rect.w), round(d.rect.h), round(d.score, 6)]
            for d in detections
        ]
        for detections in detections_per_frame
    ]


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value).encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def surface(condition_models, dark_detector, pedestrian_detector) -> dict[str, list]:
    views = {}
    for condition in SETTLED_LUX:
        rgb = frames(condition)
        vehicle = AdaptiveVehicleDetector(
            condition_models,
            dark_detector,
            config=FunctionalConfig(multiscale=True),
            day_dusk_config=HogSvmConfig(decision_threshold=1.0),
            initial=condition,
        )
        results = [
            vehicle.process(0.02 * i, SETTLED_LUX[condition], frame)
            for i, frame in enumerate(rgb)
        ]
        assert all(r.condition is condition and not r.degraded for r in results)
        views[f"vehicle-{condition.value}"] = view(r.detections for r in results)
        views[f"pedestrian-{condition.value}"] = view(
            pedestrian_detector.detect(frame) for frame in rgb
        )
    return views


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_detections_match_golden(surface, name):
    assert digest(surface[name]) == GOLDEN[name]


def test_pins_are_of_real_detections(surface):
    """An empty list hashes to a constant that no defect would move."""
    for partition in ("vehicle", "pedestrian"):
        assert any(
            any(frame) for name, view in surface.items() if name.startswith(partition)
            for frame in view
        ), partition
