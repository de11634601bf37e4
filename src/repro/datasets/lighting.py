"""Lighting conditions and photometric models.

The paper's whole premise: "the vehicle itself is not a static object with
regards to its appearance in different lighting conditions", so detection is
split across three named conditions — *day*, *dusk*, *dark* — each with its
own detector.  This module defines those conditions and the photometric
parameters the scene renderer uses to realise them.

Ambient light is expressed in lux on a log scale roughly matching real
driving: direct daylight 10k-100k lx, street-lit urban dusk/night 5-50 lx,
unlit rural road < 1 lx.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import DatasetError


class LightingCondition(enum.Enum):
    """The paper's three ambient-light regimes."""

    DAY = "day"
    DUSK = "dusk"
    DARK = "dark"


# Lux boundaries between regimes (see repro.adaptive for the hysteresis
# controller that consumes these).
DUSK_LUX_UPPER = 1000.0  # above: day
DARK_LUX_UPPER = 5.0  # below: dark


def condition_for_lux(lux: float) -> LightingCondition:
    """Map an ambient illuminance to its lighting condition (no hysteresis)."""
    if lux < 0:
        raise DatasetError(f"lux must be >= 0, got {lux}")
    if lux >= DUSK_LUX_UPPER:
        return LightingCondition.DAY
    if lux >= DARK_LUX_UPPER:
        return LightingCondition.DUSK
    return LightingCondition.DARK


@dataclass(frozen=True)
class LightingModel:
    """Photometric parameters for rendering one condition.

    Attributes:
        condition: The regime this model realises.
        ambient: Scene reflectance multiplier in [0, 1]; 1 = full daylight.
        sky_brightness: Top-of-frame sky level in [0, 1].
        headlights_on: Whether vehicles run their headlights.
        taillights_on: Whether taillights are lit (drivers switch on at dusk).
        taillight_intensity: Peak emissive value of a taillight in [0, 1].
        road_lights: Whether street lamps appear (urban dusk scenes).
        glow_scale: Bloom radius multiplier around emissive sources.
        noise_sigma: Additive Gaussian sensor-noise sigma (low light = high
            gain = more noise).
        contrast: Global contrast multiplier applied around mid-gray.
        blur_sigma: Optical/exposure blur sigma in pixels (long exposures in
            low light soften boundaries — "the boundaries are not as sharp
            as they are in light environment").
    """

    condition: LightingCondition
    ambient: float
    sky_brightness: float
    headlights_on: bool
    taillights_on: bool
    taillight_intensity: float
    road_lights: bool
    glow_scale: float
    noise_sigma: float
    contrast: float
    blur_sigma: float = 0.0

    def __post_init__(self) -> None:
        for name in ("ambient", "sky_brightness", "taillight_intensity", "contrast"):
            value = getattr(self, name)
            if value < 0:
                raise DatasetError(f"{name} must be >= 0, got {value}")
        if self.noise_sigma < 0 or self.glow_scale <= 0:
            raise DatasetError("noise_sigma must be >= 0 and glow_scale > 0")
        if self.blur_sigma < 0:
            raise DatasetError(f"blur_sigma must be >= 0, got {self.blur_sigma}")


DAY_LIGHTING = LightingModel(
    condition=LightingCondition.DAY,
    ambient=1.0,
    sky_brightness=0.92,
    headlights_on=False,
    taillights_on=False,
    taillight_intensity=0.0,
    road_lights=False,
    glow_scale=1.0,
    noise_sigma=0.01,
    contrast=1.0,
)

DUSK_LIGHTING = LightingModel(
    condition=LightingCondition.DUSK,
    ambient=0.22,
    sky_brightness=0.24,
    headlights_on=True,
    taillights_on=True,
    taillight_intensity=0.88,
    road_lights=True,
    glow_scale=1.9,
    noise_sigma=0.045,
    contrast=0.72,
    blur_sigma=0.9,
)

DARK_LIGHTING = LightingModel(
    condition=LightingCondition.DARK,
    ambient=0.045,
    sky_brightness=0.02,
    headlights_on=True,
    taillights_on=True,
    taillight_intensity=0.95,
    road_lights=False,
    glow_scale=1.6,
    noise_sigma=0.05,
    contrast=0.6,
    blur_sigma=1.2,
)

PRESETS: dict[LightingCondition, LightingModel] = {
    LightingCondition.DAY: DAY_LIGHTING,
    LightingCondition.DUSK: DUSK_LIGHTING,
    LightingCondition.DARK: DARK_LIGHTING,
}


def lighting_for_condition(condition: LightingCondition) -> LightingModel:
    """Preset photometric model of a condition."""
    return PRESETS[condition]


# Per-sample lighting samplers ---------------------------------------------
#
# Real corpora are photometrically heterogeneous: UPM spans morning to late
# afternoon; SYSU spans well-lit urban dusk down to nearly dark streets.
# Sampling a fresh LightingModel per crop reproduces that spread — and it is
# what makes the paper's *combined* model win at dusk: the bright end of the
# dusk distribution looks day-like, so day training data helps there.


def sample_day_lighting(rng) -> LightingModel:
    """Day lighting with mild exposure/weather jitter."""
    return LightingModel(
        condition=LightingCondition.DAY,
        ambient=float(rng.uniform(0.82, 1.0)),
        sky_brightness=float(rng.uniform(0.82, 0.95)),
        headlights_on=False,
        taillights_on=False,
        taillight_intensity=0.0,
        road_lights=False,
        glow_scale=1.0,
        noise_sigma=float(rng.uniform(0.008, 0.022)),
        contrast=float(rng.uniform(0.9, 1.05)),
        blur_sigma=float(rng.uniform(0.0, 0.3)),
    )


def sample_dusk_lighting(rng, t_range: tuple[float, float] = (0.1, 1.0)) -> LightingModel:
    """Dusk lighting spanning bright urban evening down to nearly dark.

    ``t`` near 1 is the bright end (day-like bodies, lights already on);
    ``t`` near 0 approaches the dark regime.  ``t_range`` narrows the
    sampled span; corpora with different coverage of the dusk brightness
    axis are how the combined model's Table-I advantage arises (the dusk
    *training* split under-covers the bright end that day data supplies).
    """
    lo, hi = t_range
    if not 0.0 <= lo <= hi <= 1.0:
        raise DatasetError(f"t_range must satisfy 0 <= lo <= hi <= 1, got {t_range}")
    t = float(rng.uniform(lo, hi))
    return LightingModel(
        condition=LightingCondition.DUSK,
        ambient=0.16 + 0.46 * t,
        sky_brightness=0.1 + 0.38 * t,
        headlights_on=True,
        taillights_on=True,
        # Lamps dominate the dark end; toward the bright end the ambient
        # light washes the bloom out and body shape carries the class.
        taillight_intensity=0.98 - 0.75 * t,
        road_lights=True,
        glow_scale=2.1 - 1.1 * t,
        noise_sigma=0.052 - 0.032 * t,
        contrast=0.62 + 0.33 * t,
        blur_sigma=1.0 - 0.55 * t,
    )


def sample_dark_lighting(rng) -> LightingModel:
    """Very dark lighting with small gain/exposure jitter."""
    return LightingModel(
        condition=LightingCondition.DARK,
        ambient=float(rng.uniform(0.03, 0.07)),
        sky_brightness=float(rng.uniform(0.01, 0.04)),
        headlights_on=True,
        taillights_on=True,
        taillight_intensity=float(rng.uniform(0.88, 1.0)),
        road_lights=bool(rng.random() < 0.2),
        glow_scale=float(rng.uniform(1.4, 1.9)),
        noise_sigma=float(rng.uniform(0.04, 0.06)),
        contrast=float(rng.uniform(0.55, 0.68)),
        blur_sigma=float(rng.uniform(1.0, 1.4)),
    )


SAMPLERS = {
    LightingCondition.DAY: sample_day_lighting,
    LightingCondition.DUSK: sample_dusk_lighting,
    LightingCondition.DARK: sample_dark_lighting,
}


def sample_lighting(condition: LightingCondition, rng) -> LightingModel:
    """A randomly jittered lighting model for the given condition."""
    return SAMPLERS[condition](rng)
