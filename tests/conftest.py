"""Shared fixtures: small corpora, trained models, reusable detectors.

Training is expensive, so everything trained is session-scoped and uses
reduced corpus sizes; accuracy-shape assertions in tests use tolerant
thresholds accordingly (the full-scale numbers live in the benchmarks).
"""

from __future__ import annotations

import numpy as np
import pytest


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def small_corpora_and_models():
    """Corpora + day/dusk/combined models at a small scale (cached)."""
    from repro.experiments.common import corpora_and_models

    return corpora_and_models(scale=0.2, seed=0)


@pytest.fixture(scope="session")
def condition_models(small_corpora_and_models):
    return small_corpora_and_models[1]


@pytest.fixture(scope="session")
def condition_corpora(small_corpora_and_models):
    return small_corpora_and_models[0]


@pytest.fixture(scope="session")
def dark_detector():
    """A trained DarkVehicleDetector (cached)."""
    from repro.experiments.common import trained_dark_detector

    return trained_dark_detector()


@pytest.fixture(scope="session")
def pedestrian_detector():
    """A trained PedestrianDetector (cached)."""
    from repro.datasets.synthetic import make_pedestrian_frames
    from repro.pipelines.pedestrian import PedestrianDetector

    detector = PedestrianDetector()
    frames = make_pedestrian_frames(n_frames=8, height=180, width=320, seed=41)
    detector.train_from_frames(frames, seed=42)
    return detector


@pytest.fixture()
def simulator():
    from repro.zynq.events import Simulator

    return Simulator()


@pytest.fixture()
def soc():
    from repro.zynq.soc import ZynqSoC

    return ZynqSoC()


@pytest.fixture(scope="session")
def dark_frame():
    """One rendered dark scene with two vehicles."""
    from repro.datasets.lighting import LightingCondition
    from repro.datasets.scene import SceneConfig, render_scene
    from repro.datasets.lighting import DARK_LIGHTING

    # 180 x 330 divides evenly by the dark pipeline's 3x decimation.
    config = SceneConfig(
        height=180, width=330, n_vehicles=2, n_oncoming=1, vehicle_fill=(0.08, 0.16), seed=99
    )
    return render_scene(config, DARK_LIGHTING)


@pytest.fixture(scope="session")
def day_frame():
    from repro.datasets.lighting import DAY_LIGHTING
    from repro.datasets.scene import SceneConfig, render_scene

    config = SceneConfig(height=180, width=320, n_vehicles=1, n_pedestrians=1, seed=77)
    return render_scene(config, DAY_LIGHTING)
