"""Synthetic stand-ins for the paper's datasets (UPM, SYSU, iROADS).

The real corpora are not redistributable, so these factories procedurally
generate corpora with the *statistics that matter* for each experiment:

* ``make_upm_like``    — day crops (UPM vehicle dataset [15]): sharp
  boundaries, under-car shadow, no lights.
* ``make_sysu_like``   — dusk crops (SYSU nighttime dataset [4]): "images
  are taken from near cars and in the urban area with reasonable lighting" —
  visible bodies *and* lit taillights; a configurable fraction is rendered
  genuinely dark, reproducing the samples the paper excludes to form its
  SYSU *subset*.
* ``make_iroads_like`` — dark full frames (iROADS [18]): near-black scenes
  where taillights are the only reliable cue, with oncoming headlights and
  occasional road lights as distractors.
* ``make_taillight_windows`` — 9x9 binary windows with 4 size/shape classes
  for training the paper's 81-20-8-4 DBN.
* ``make_pedestrian_frames`` — frames with pedestrians for the static
  partition's detector.

Table I of the paper fixes the test-set sizes; the default test splits here
use the same counts (day: 200 pos / 25 neg; dusk: 1063 pos / 752 neg with
100 very dark positives).
"""

from __future__ import annotations

import numpy as np

from repro.datasets.lighting import (
    DARK_LIGHTING,
    LightingCondition,
    sample_dark_lighting,
    sample_day_lighting,
    sample_dusk_lighting,
)
from repro.datasets.samples import ClassificationDataset, DetectionDataset
from repro.datasets.scene import (
    SceneConfig,
    render_negative_crop,
    render_scene,
    render_vehicle_crop,
)
from repro.errors import DatasetError
from repro.rng import make_rng

# Table I test-set sizes, read off the paper's TP/TN/FP/FN columns.
UPM_TEST_POS = 200
UPM_TEST_NEG = 25
SYSU_TEST_POS = 1063
SYSU_TEST_NEG = 752
SYSU_TEST_VERY_DARK_POS = 100


# Viewpoint statistics per corpus: UPM shows distant highway vehicles in
# tightly centred canonical crops; SYSU shows near urban cars with looser
# framing ("images are taken from near cars ... in the urban area").
UPM_FILL_RANGE = (0.40, 0.60)
SYSU_FILL_RANGE = (0.50, 0.90)


def _render_crops(
    lighting_sampler,
    n_pos: int,
    n_neg: int,
    size: int,
    rng: np.random.Generator,
    fill_range: tuple[float, float] = (0.62, 0.8),
    center_jitter: float = 0.05,
) -> tuple[np.ndarray, np.ndarray]:
    """Render crops, drawing a fresh lighting model per sample."""
    images = []
    labels = []
    for _ in range(n_pos):
        lighting = lighting_sampler(rng)
        images.append(
            render_vehicle_crop(
                lighting, rng, size=size, fill_range=fill_range, center_jitter=center_jitter
            )
        )
        labels.append(1)
    for _ in range(n_neg):
        lighting = lighting_sampler(rng)
        images.append(render_negative_crop(lighting, rng, size=size))
        labels.append(-1)
    if not images:
        raise DatasetError("requested an empty corpus")
    return np.stack(images), np.asarray(labels, dtype=np.int64)


def make_upm_like(
    n_positive: int = UPM_TEST_POS,
    n_negative: int = UPM_TEST_NEG,
    size: int = 64,
    seed: int = 0,
) -> ClassificationDataset:
    """Day-condition classification corpus (UPM stand-in)."""
    rng = make_rng(seed)
    images, labels = _render_crops(
        sample_day_lighting, n_positive, n_negative, size, rng,
        fill_range=UPM_FILL_RANGE, center_jitter=0.03,
    )
    return ClassificationDataset(
        name="upm-like",
        condition=LightingCondition.DAY,
        images=images,
        labels=labels,
    )


def make_sysu_like(
    n_positive: int = SYSU_TEST_POS,
    n_negative: int = SYSU_TEST_NEG,
    n_very_dark_positive: int = SYSU_TEST_VERY_DARK_POS,
    size: int = 64,
    seed: int = 1,
    lighting_t_range: tuple[float, float] = (0.1, 1.0),
) -> ClassificationDataset:
    """Dusk-condition corpus (SYSU stand-in) with a very-dark positive tail.

    The very-dark positives are rendered under the DARK lighting model —
    bodies nearly invisible, taillights dominant — matching the samples the
    paper moves from the dusk test into the dark evaluation.
    """
    if n_very_dark_positive > n_positive:
        raise DatasetError(
            f"very dark positives ({n_very_dark_positive}) exceed positives ({n_positive})"
        )
    rng = make_rng(seed)
    n_dusk_pos = n_positive - n_very_dark_positive

    def dusk_sampler(r):
        return sample_dusk_lighting(r, t_range=lighting_t_range)

    images, labels = _render_crops(
        dusk_sampler, n_dusk_pos, n_negative, size, rng,
        fill_range=SYSU_FILL_RANGE, center_jitter=0.05,
    )
    very_dark = np.zeros(labels.size, dtype=bool)
    if n_very_dark_positive:
        dark_imgs, dark_labels = _render_crops(
            sample_dark_lighting, n_very_dark_positive, 0, size, rng,
            fill_range=SYSU_FILL_RANGE, center_jitter=0.05,
        )
        images = np.concatenate([images, dark_imgs])
        labels = np.concatenate([labels, dark_labels])
        very_dark = np.concatenate([very_dark, np.ones(n_very_dark_positive, dtype=bool)])
    return ClassificationDataset(
        name="sysu-like",
        condition=LightingCondition.DUSK,
        images=images,
        labels=labels,
        very_dark=very_dark,
    )


def make_dark_crops(
    n_positive: int = 100,
    n_negative: int = 100,
    size: int = 64,
    seed: int = 2,
) -> ClassificationDataset:
    """Very dark crop corpus for evaluating the dark pipeline at crop level."""
    rng = make_rng(seed)
    images, labels = _render_crops(
        sample_dark_lighting, n_positive, n_negative, size, rng,
        fill_range=SYSU_FILL_RANGE, center_jitter=0.05,
    )
    return ClassificationDataset(
        name="dark-crops",
        condition=LightingCondition.DARK,
        images=images,
        labels=labels,
        very_dark=np.ones(labels.size, dtype=bool),
    )


def make_iroads_like(
    n_frames: int = 20,
    height: int = 360,
    width: int = 640,
    with_vehicle_fraction: float = 0.7,
    wet_road_probability: float = 0.5,
    seed: int = 3,
) -> DetectionDataset:
    """Dark full-frame detection corpus (iROADS stand-in).

    A fraction of frames contains 1-2 preceding vehicles; all frames may
    contain oncoming headlights and roadside clutter as distractors.
    """
    if not 0.0 <= with_vehicle_fraction <= 1.0:
        raise DatasetError(
            f"with_vehicle_fraction must be in [0, 1], got {with_vehicle_fraction}"
        )
    rng = make_rng(seed)
    frames = []
    for i in range(n_frames):
        has_vehicle = rng.random() < with_vehicle_fraction
        config = SceneConfig(
            height=height,
            width=width,
            n_vehicles=int(rng.integers(1, 3)) if has_vehicle else 0,
            n_pedestrians=0,
            n_oncoming=int(rng.integers(0, 3)),
            # Keep taillight blobs within the 9x9 sliding-DBN window at the
            # 3x-decimated processing resolution (medium-to-far vehicles).
            vehicle_fill=(0.07, 0.17),
            wet_road_probability=wet_road_probability,
            seed=seed * 100003 + i,
        )
        frames.append(render_scene(config, DARK_LIGHTING))
    return DetectionDataset(name="iroads-like", condition=LightingCondition.DARK, frames=frames)


def make_pedestrian_frames(
    n_frames: int = 10,
    height: int = 360,
    width: int = 640,
    condition: LightingCondition = LightingCondition.DAY,
    seed: int = 4,
) -> DetectionDataset:
    """Frames with pedestrians for the static partition's detector."""
    from repro.datasets.lighting import lighting_for_condition

    rng = make_rng(seed)
    frames = []
    for i in range(n_frames):
        config = SceneConfig(
            height=height,
            width=width,
            n_vehicles=int(rng.integers(0, 2)),
            n_pedestrians=int(rng.integers(1, 3)),
            n_oncoming=0,
            seed=seed * 99991 + i,
        )
        frames.append(render_scene(config, lighting_for_condition(condition)))
    return DetectionDataset(name="pedestrian-frames", condition=condition, frames=frames)


# DBN training windows -----------------------------------------------------

# Size/shape classes of the paper's 4-node DBN output layer.
TAILLIGHT_CLASS_NONE = 0  # background / noise / non-compact structure
TAILLIGHT_CLASS_SMALL = 1  # distant taillight, radius ~1 px at 9x9
TAILLIGHT_CLASS_MEDIUM = 2  # mid-range taillight, radius ~2 px
TAILLIGHT_CLASS_LARGE = 3  # near taillight, radius ~3-4 px
TAILLIGHT_CLASS_NAMES = ("none", "small", "medium", "large")

_WINDOW_SIDE = 9
_WINDOW_YS, _WINDOW_XS = np.mgrid[0:_WINDOW_SIDE, 0:_WINDOW_SIDE]


def _disk_window(rng: np.random.Generator, radius: float) -> np.ndarray:
    """A 9x9 binary window with a roughly circular blob of ``radius``."""
    cy = 4.0 + rng.uniform(-1.2, 1.2)
    cx = 4.0 + rng.uniform(-1.2, 1.2)
    # Slight ellipticity: real taillights are wider than tall.
    ey = rng.uniform(0.8, 1.25)
    dist = ((_WINDOW_YS - cy) * ey) ** 2 + (_WINDOW_XS - cx) ** 2
    window = (dist <= radius**2).astype(np.float64)
    # Ragged edge from thresholding noise.
    flip = rng.random((_WINDOW_SIDE, _WINDOW_SIDE)) < 0.02
    window[flip] = 1.0 - window[flip]
    return window


def _background_window(rng: np.random.Generator) -> np.ndarray:
    """Background patterns the sliding DBN must reject."""
    kind = rng.integers(0, 5)
    window = np.zeros((_WINDOW_SIDE, _WINDOW_SIDE), dtype=np.float64)
    if kind == 0:  # empty road
        pass
    elif kind == 1:  # sparse threshold noise
        window = (rng.random((_WINDOW_SIDE, _WINDOW_SIDE)) < rng.uniform(0.02, 0.12)).astype(
            np.float64
        )
    elif kind == 2:  # straight edge of a big glow (headlight bloom boundary)
        edge = rng.integers(1, _WINDOW_SIDE - 1)
        if rng.random() < 0.5:
            window[:, :edge] = 1.0
        else:
            window[:edge, :] = 1.0
    elif kind == 3:  # saturated interior of a huge blob (inside a near headlight)
        window[:, :] = 1.0
    else:  # elongated bar: a wet-road lamp reflection crossing the window
        bar_w = int(rng.integers(1, 5))
        start = int(rng.integers(0, _WINDOW_SIDE - bar_w + 1))
        # Bars may end inside the window (the streak's tail).
        span0 = int(rng.integers(0, 3))
        span1 = int(rng.integers(_WINDOW_SIDE - 2, _WINDOW_SIDE + 1))
        if rng.random() < 0.7:  # reflections are mostly vertical streaks
            window[span0:span1, start : start + bar_w] = 1.0
        else:
            window[start : start + bar_w, span0:span1] = 1.0
    # A little noise on all background kinds.
    flip = rng.random((_WINDOW_SIDE, _WINDOW_SIDE)) < 0.03
    window[flip] = 1.0 - window[flip]
    return window


_CLASS_RADII = {
    TAILLIGHT_CLASS_SMALL: (0.9, 1.5),
    TAILLIGHT_CLASS_MEDIUM: (1.8, 2.6),
    TAILLIGHT_CLASS_LARGE: (3.0, 4.2),
}


def make_taillight_windows(
    n_per_class: int = 250,
    seed: int = 5,
) -> tuple[np.ndarray, np.ndarray]:
    """Training corpus for the taillight DBN.

    The background class is sampled at twice the per-class rate: it spans
    five distinct pattern families (empty, speckle, glow edges, saturated
    interiors, reflection bars) and carries the pipeline's precision.

    Returns:
        (windows, labels): windows is (N, 81) binary float rows (flattened
        9x9, matching the DBN's 81 visible units), labels in {0, 1, 2, 3}.
    """
    if n_per_class < 1:
        raise DatasetError(f"n_per_class must be >= 1, got {n_per_class}")
    rng = make_rng(seed)
    windows: list[np.ndarray] = []
    labels: list[int] = []
    for _ in range(2 * n_per_class):
        windows.append(_background_window(rng))
        labels.append(TAILLIGHT_CLASS_NONE)
    for cls, (r_lo, r_hi) in _CLASS_RADII.items():
        for _ in range(n_per_class):
            windows.append(_disk_window(rng, float(rng.uniform(r_lo, r_hi))))
            labels.append(cls)
    order = rng.permutation(len(windows))
    x = np.stack(windows).reshape(len(windows), -1)[order]
    y = np.asarray(labels, dtype=np.int64)[order]
    return x, y
