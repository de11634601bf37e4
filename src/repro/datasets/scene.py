"""Procedural road-scene renderer with ground truth.

Produces full frames (for the detection pipelines and the end-to-end system
simulation) and window-sized crops (for the Table-I classification corpora),
under any :class:`~repro.datasets.lighting.LightingModel`.

The renderer composes three layers:

1. *reflectance* — sky, road, roadside, objects; multiplied by the lighting
   model's ``ambient`` term;
2. *emissive* — taillights, headlights, street lamps; added on top (light
   adds, it is not scaled by ambient);
3. *sensor* — global contrast and Gaussian noise (high gain at night).

Ground truth records every vehicle body box, its lit taillight centers, and
every pedestrian box, so detection metrics need no manual annotation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.datasets.lighting import LightingCondition, LightingModel, lighting_for_condition
from repro.datasets.pedestrians import PedestrianSprite, random_pedestrian_spec, render_pedestrian
from repro.datasets.vehicles import (
    VehicleSprite,
    random_vehicle_spec,
    render_headlight_pair,
    render_vehicle,
)
from repro.errors import DatasetError
from repro.imaging.draw import fill_rect, light_glow
from repro.imaging.geometry import Rect
from repro.imaging.image import additive_light
from repro.rng import make_rng


@dataclass
class SceneObject:
    """Ground truth for one object placed in a frame.

    ``track_id`` is set by the sequence renderer (``datasets.sequences``) to
    give objects stable identities across frames; single-frame renders leave
    it ``None``.
    """

    kind: str  # "vehicle" | "pedestrian" | "headlights"
    rect: Rect
    taillights: list[tuple[float, float]] = field(default_factory=list)
    track_id: int | None = None


@dataclass
class SceneFrame:
    """A rendered frame plus its ground truth.

    Attributes:
        rgb: (H, W, 3) image in [0, 1].
        lighting: The photometric model used.
        objects: All placed objects.
    """

    rgb: np.ndarray
    lighting: LightingModel
    objects: list[SceneObject]

    @property
    def condition(self) -> LightingCondition:
        return self.lighting.condition

    @property
    def vehicles(self) -> list[SceneObject]:
        return [o for o in self.objects if o.kind == "vehicle"]

    @property
    def pedestrians(self) -> list[SceneObject]:
        return [o for o in self.objects if o.kind == "pedestrian"]

    @property
    def vehicle_boxes(self) -> list[Rect]:
        return [o.rect for o in self.vehicles]

    @property
    def pedestrian_boxes(self) -> list[Rect]:
        return [o.rect for o in self.pedestrians]


@dataclass(frozen=True)
class SceneConfig:
    """Scene composition parameters.

    Attributes:
        height, width: Frame size in pixels.
        n_vehicles: Preceding vehicles to place (rear views, taillights
            toward the camera).
        n_pedestrians: Pedestrians on the roadside.
        n_oncoming: Oncoming headlight pairs (dusk/dark distractors).
        horizon: Fraction of the height where the road meets the sky.
        vehicle_fill: (near, far) vehicle width as a fraction of the frame
            width; near vehicles use the upper bound.
        seed: Deterministic rendering seed.
    """

    height: int = 360
    width: int = 640
    n_vehicles: int = 1
    n_pedestrians: int = 0
    n_oncoming: int = 0
    horizon: float = 0.42
    vehicle_fill: tuple[float, float] = (0.08, 0.30)
    wet_road_probability: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.height < 48 or self.width < 48:
            raise DatasetError(f"frame must be at least 48x48, got {self.height}x{self.width}")
        if min(self.n_vehicles, self.n_pedestrians, self.n_oncoming) < 0:
            raise DatasetError("object counts must be >= 0")
        if not 0.2 <= self.horizon <= 0.7:
            raise DatasetError(f"horizon must be in [0.2, 0.7], got {self.horizon}")
        lo, hi = self.vehicle_fill
        if not 0.02 <= lo <= hi <= 0.5:
            raise DatasetError(f"vehicle_fill must satisfy 0.02 <= lo <= hi <= 0.5, got {self.vehicle_fill}")
        if not 0.0 <= self.wet_road_probability <= 1.0:
            raise DatasetError(
                f"wet_road_probability must be in [0, 1], got {self.wet_road_probability}"
            )


def render_background(
    height: int,
    width: int,
    lighting: LightingModel,
    rng: np.random.Generator,
    horizon: float = 0.42,
) -> tuple[np.ndarray, np.ndarray]:
    """Sky + road + roadside reflectance, and street-lamp emissive layer.

    Returns:
        (reflectance, emissive) RGB layers.
    """
    reflectance = np.zeros((height, width, 3), dtype=np.float64)
    emissive = np.zeros((height, width, 3), dtype=np.float64)
    horizon_y = int(height * horizon)

    # Sky: vertical gradient from sky_brightness down to ~60% of it.
    sky = np.linspace(lighting.sky_brightness, lighting.sky_brightness * 0.6, max(horizon_y, 1))
    reflectance[:horizon_y, :, 0] = sky[:, None] * 0.92
    reflectance[:horizon_y, :, 1] = sky[:, None] * 0.96
    reflectance[:horizon_y, :, 2] = sky[:, None] * 1.0

    # Ground: asphalt with slight vertical shading (nearer = darker).
    ground = np.linspace(0.42, 0.3, height - horizon_y)
    for c, tint in enumerate((1.0, 1.0, 1.02)):
        reflectance[horizon_y:, :, c] = ground[:, None] * tint

    # Roadside strips: slightly different tone with clutter blocks.
    verge_w = int(width * 0.12)
    reflectance[horizon_y:, :verge_w] *= 0.8
    reflectance[horizon_y:, -verge_w:] *= 0.8
    for _ in range(rng.integers(2, 6)):
        # Buildings / trees on the horizon as dark slabs (day texture).
        bw = int(rng.uniform(0.05, 0.18) * width)
        bh = int(rng.uniform(0.05, 0.16) * height)
        bx = int(rng.uniform(0, width - bw))
        tone = float(rng.uniform(0.15, 0.45))
        fill_rect(reflectance, Rect(float(bx), float(horizon_y - bh), float(bw), float(bh)), (tone, tone * 1.02, tone * 0.98))

    # Lane markings: dashed center lines converging to the vanishing point.
    vanish_x = width / 2.0 + float(rng.uniform(-0.05, 0.05)) * width
    for lane_offset in (-0.16, 0.16):
        bottom_x = width / 2.0 + lane_offset * width * 2.2
        n_dashes = 7
        for d in range(n_dashes):
            t0 = d / n_dashes
            t1 = t0 + 0.45 / n_dashes
            y0 = horizon_y + (height - horizon_y) * t0
            y1 = horizon_y + (height - horizon_y) * t1
            x0 = vanish_x + (bottom_x - vanish_x) * t0
            x1 = vanish_x + (bottom_x - vanish_x) * t1
            wline = max(1.0, (t0 * 0.012 + 0.002) * width)
            fill_rect(
                reflectance,
                Rect(min(x0, x1), y0, abs(x1 - x0) + wline, max(1.0, y1 - y0)),
                (0.85, 0.85, 0.8),
            )

    # Street lamps at dusk: emissive orange points along the verge.
    if lighting.road_lights:
        for _ in range(rng.integers(1, 4)):
            lx = float(rng.choice([rng.uniform(0.02, 0.1), rng.uniform(0.9, 0.98)])) * width
            ly = float(rng.uniform(0.15, 0.45)) * height
            glow = light_glow(height, width, lx, ly, max(2.0, 0.012 * width) * lighting.glow_scale, 0.8)
            emissive[..., 0] += glow * 1.0
            emissive[..., 1] += glow * 0.8
            emissive[..., 2] += glow * 0.45
    return reflectance, np.clip(emissive, 0.0, 1.0)


def _composite_sprite(
    reflectance: np.ndarray,
    emissive: np.ndarray,
    sprite_rgb: np.ndarray,
    sprite_emissive: np.ndarray | None,
    alpha: np.ndarray,
    x: int,
    y: int,
) -> None:
    """Alpha-composite a sprite's reflectance and add its emission."""
    height, width = reflectance.shape[:2]
    ph, pw = alpha.shape
    x1, y1 = max(x, 0), max(y, 0)
    x2, y2 = min(x + pw, width), min(y + ph, height)
    if x2 <= x1 or y2 <= y1:
        return
    sub_a = alpha[y1 - y : y2 - y, x1 - x : x2 - x][..., None]
    sub_rgb = sprite_rgb[y1 - y : y2 - y, x1 - x : x2 - x]
    region = reflectance[y1:y2, x1:x2]
    reflectance[y1:y2, x1:x2] = region * (1.0 - sub_a) + sub_rgb * sub_a
    if sprite_emissive is not None:
        additive_light(emissive, sprite_emissive, x, y)


def add_wet_road_reflections(
    emissive: np.ndarray,
    lights: list[tuple[float, float]],
    lighting: LightingModel,
    rng: np.random.Generator,
) -> None:
    """Vertical smears of lamp light on a wet road surface, in place.

    The classic nighttime false-positive source: each lit lamp mirrors into
    an elongated red streak below it.  Blob-area heuristics read the streaks
    as taillight-sized blobs and pair them into phantom vehicles; the
    paper's DBN classifies their elongated shape as background.
    """
    height, width = emissive.shape[:2]
    for (lx, ly) in lights:
        length = int(rng.uniform(0.10, 0.25) * height)
        half_w = max(1.0, 0.9 * lighting.glow_scale)
        # The mirror image starts below the vehicle: the body occludes the
        # road surface immediately beneath the lamp.
        y0 = int(ly) + int((0.06 + rng.uniform(0.0, 0.05)) * height)
        for dy in range(length):
            y = y0 + dy
            if y >= height:
                break
            fade = (1.0 - 0.6 * dy / max(length, 1)) * lighting.taillight_intensity * 0.9
            x1 = max(0, int(lx - half_w))
            x2 = min(width, int(lx + half_w) + 1)
            emissive[y, x1:x2, 0] = np.minimum(emissive[y, x1:x2, 0] + fade, 1.0)
            emissive[y, x1:x2, 1] = np.minimum(emissive[y, x1:x2, 1] + fade * 0.2, 1.0)
            emissive[y, x1:x2, 2] = np.minimum(emissive[y, x1:x2, 2] + fade * 0.1, 1.0)


def apply_sensor_model(image: np.ndarray, lighting: LightingModel, rng: np.random.Generator) -> np.ndarray:
    """Exposure blur, contrast around mid-gray, Gaussian noise; clip to [0,1].

    The blur models the longer exposures of low-light capture that soften
    object boundaries — the structural change that degrades HOG at dusk.
    """
    out = np.asarray(image, dtype=np.float64)
    if lighting.blur_sigma > 0:
        from repro.imaging.filters import gaussian_blur

        out = gaussian_blur(out, lighting.blur_sigma)
    # Contrast loss pivots on the scene's own level (no exposure shift):
    # dark scenes stay dark, they just flatten.
    pivot = float(out.mean())
    out = pivot + (out - pivot) * lighting.contrast
    if lighting.noise_sigma > 0:
        out = out + rng.normal(0.0, lighting.noise_sigma, size=out.shape)
    return np.clip(out, 0.0, 1.0)


def render_scene(config: SceneConfig, lighting: LightingModel) -> SceneFrame:
    """Render a full frame with vehicles, pedestrians, and distractors."""
    rng = make_rng(config.seed)
    height, width = config.height, config.width
    reflectance, emissive = render_background(height, width, lighting, rng, config.horizon)
    objects: list[SceneObject] = []
    horizon_y = int(height * config.horizon)

    # Vehicles: nearer = lower in frame and larger.  Sort far-to-near so
    # nearer sprites composite on top.
    depths = sorted(rng.uniform(0.25, 1.0, size=config.n_vehicles), reverse=False)
    fill_far, fill_near = config.vehicle_fill
    for depth in depths:  # depth 1.0 = nearest
        vw = int(width * (fill_far + (fill_near - fill_far) * depth))
        spec = random_vehicle_spec(rng, vw)
        sprite = render_vehicle(spec, lighting, rng)
        road_y = horizon_y + (height - horizon_y) * (0.15 + 0.8 * depth)
        lane = rng.choice([-0.13, 0.0, 0.13])
        cx = width / 2.0 + lane * width + rng.uniform(-0.03, 0.03) * width
        x = int(cx - sprite.alpha.shape[1] / 2.0)
        y = int(road_y - sprite.alpha.shape[0])
        _composite_sprite(reflectance, emissive, sprite.rgb, sprite.emissive, sprite.alpha, x, y)
        body = sprite.body_rect.translated(float(x), float(y))
        clipped = body.clipped(width, height)
        if clipped is not None:
            objects.append(
                SceneObject(
                    kind="vehicle",
                    rect=clipped,
                    taillights=[(tx + x, ty + y) for tx, ty in sprite.taillights],
                )
            )

    # Oncoming headlights (only meaningful when lights are on).
    if lighting.headlights_on:
        for _ in range(config.n_oncoming):
            depth = float(rng.uniform(0.3, 0.9))
            sep = width * (0.03 + 0.09 * depth)
            cy = horizon_y + (height - horizon_y) * (0.1 + 0.6 * depth)
            cx = width * float(rng.uniform(0.12, 0.35))
            radius = max(1.5, width * 0.008 * (0.5 + depth))
            patch = render_headlight_pair(
                height, width, cx, cy, sep, radius, 0.95, lighting.glow_scale
            )
            additive_light(emissive, patch, 0, 0)
            objects.append(
                SceneObject(
                    kind="headlights",
                    rect=Rect(cx - sep, cy - radius * 3, sep * 2, radius * 6),
                )
            )

    # Pedestrians on the verge.
    for _ in range(config.n_pedestrians):
        depth = float(rng.uniform(0.35, 1.0))
        ph = int(height * (0.1 + 0.22 * depth))
        spec = random_pedestrian_spec(rng, max(16, ph))
        sprite: PedestrianSprite = render_pedestrian(spec, rng)
        side = rng.choice([0.08, 0.9])
        x = int(width * side + rng.uniform(-0.02, 0.05) * width)
        y = int(horizon_y + (height - horizon_y) * (0.1 + 0.75 * depth) - sprite.alpha.shape[0])
        _composite_sprite(reflectance, emissive, sprite.rgb, None, sprite.alpha, x, y)
        box = sprite.body_rect.translated(float(x), float(y)).clipped(width, height)
        if box is not None:
            objects.append(SceneObject(kind="pedestrian", rect=box))

    # Wet-road lamp reflections (dusk/dark only).
    if lighting.taillights_on and rng.random() < config.wet_road_probability:
        all_lights = [light for o in objects for light in o.taillights]
        add_wet_road_reflections(emissive, all_lights, lighting, rng)

    lit = np.clip(reflectance * lighting.ambient + emissive, 0.0, 1.0)
    rgb = apply_sensor_model(lit, lighting, rng)
    return SceneFrame(rgb=rgb, lighting=lighting, objects=objects)


def render_condition_scene(
    condition: LightingCondition,
    seed: int = 0,
    **kwargs,
) -> SceneFrame:
    """Convenience: render a scene under a preset condition."""
    config = SceneConfig(seed=seed, **kwargs)
    return render_scene(config, lighting_for_condition(condition))


# Window-sized crops for the classification corpora (Table I) -------------


def render_vehicle_crop(
    lighting: LightingModel,
    rng: np.random.Generator,
    size: int = 64,
    fill_range: tuple[float, float] = (0.62, 0.8),
    center_jitter: float = 0.05,
) -> np.ndarray:
    """A positive sample: one rear-view vehicle in the window.

    ``fill_range`` bounds the vehicle width as a fraction of the window and
    encodes the corpus viewpoint: UPM-like day data shows distant highway
    vehicles (small fill), SYSU-like dusk data "images are taken from near
    cars" (large fill).  ``center_jitter`` is the horizontal placement
    spread — canonical corpora centre their crops tightly; urban captures
    are looser.
    """
    if size < 16:
        raise DatasetError(f"crop size must be >= 16, got {size}")
    lo, hi = fill_range
    if not 0.2 <= lo <= hi <= 0.95:
        raise DatasetError(f"fill_range must satisfy 0.2 <= lo <= hi <= 0.95, got {fill_range}")
    if not 0.0 <= center_jitter <= 0.3:
        raise DatasetError(f"center_jitter must be in [0, 0.3], got {center_jitter}")
    # Background strip of road around the vehicle.
    reflectance, emissive = render_background(size, size, lighting, rng, horizon=0.3)
    vw = int(size * rng.uniform(lo, hi))
    spec = random_vehicle_spec(rng, vw)
    sprite = render_vehicle(spec, lighting, rng)
    ph, pw = sprite.alpha.shape
    x = int((size - pw) / 2.0 + rng.uniform(-center_jitter, center_jitter) * size)
    y = int(size - ph - rng.uniform(0.0, 0.08) * size)
    _composite_sprite(reflectance, emissive, sprite.rgb, sprite.emissive, sprite.alpha, x, y)
    lit = np.clip(reflectance * lighting.ambient + emissive, 0.0, 1.0)
    return apply_sensor_model(lit, lighting, rng)


def render_negative_crop(
    lighting: LightingModel,
    rng: np.random.Generator,
    size: int = 64,
) -> np.ndarray:
    """A negative sample: road scene clutter without any vehicle.

    Includes the hard negatives that matter per condition: signs and
    buildings during the day; street lamps and oncoming headlights at dusk.
    """
    if size < 16:
        raise DatasetError(f"crop size must be >= 16, got {size}")
    reflectance, emissive = render_background(size, size, lighting, rng, horizon=float(rng.uniform(0.25, 0.55)))
    # Urban night scenes contain *parked, unlit* vehicles; they are
    # negatives for the on-road detectors (no active vehicle ahead).  This
    # hard-negative class teaches the dusk model that body shape without
    # lit lamps is not a target — the mechanism behind the paper's dusk
    # model rejecting almost all (unlit) day vehicles.
    if lighting.taillights_on and rng.random() < 0.35:
        from dataclasses import replace as _replace

        from repro.datasets.vehicles import random_vehicle_spec, render_vehicle

        unlit = _replace(lighting, taillights_on=False, taillight_intensity=0.0)
        spec = random_vehicle_spec(rng, int(size * rng.uniform(0.5, 0.9)))
        sprite = render_vehicle(spec, unlit, rng)
        ph, pw = sprite.alpha.shape
        # Placed exactly like a positive (centered, near the bottom): the
        # only difference between this negative and a positive is the lit
        # lamps, so the classifier cannot fall back on shape or position.
        x = int((size - pw) / 2.0 + rng.uniform(-0.05, 0.05) * size)
        y = int(size - ph - rng.uniform(0.0, 0.08) * size)
        _composite_sprite(reflectance, emissive, sprite.rgb, None, sprite.alpha, x, y)
    # Random clutter: poles, signs, barriers.
    for _ in range(rng.integers(0, 4)):
        cw = int(rng.uniform(0.04, 0.3) * size)
        chh = int(rng.uniform(0.1, 0.5) * size)
        cx = int(rng.uniform(0, size - cw))
        cy = int(rng.uniform(0.1, 0.9) * (size - chh))
        tone = float(rng.uniform(0.1, 0.7))
        fill_rect(reflectance, Rect(float(cx), float(cy), float(cw), float(chh)), (tone, tone, tone))
    if lighting.headlights_on:
        # Night-time negatives are light-rich: oncoming headlight pairs,
        # lamp reflections, isolated glows.  These hard negatives force the
        # dusk/dark classifiers to key on *taillight-specific* structure
        # rather than "any bright blob".
        if rng.random() < 0.7:
            sep = size * rng.uniform(0.15, 0.4)
            patch = render_headlight_pair(
                size,
                size,
                size * float(rng.uniform(0.3, 0.7)),
                size * float(rng.uniform(0.4, 0.75)),
                sep,
                size * 0.02,
                0.9,
                lighting.glow_scale,
            )
            additive_light(emissive, patch, 0, 0)
        for _ in range(rng.integers(0, 3)):
            glow = light_glow(
                size,
                size,
                float(rng.uniform(0, size)),
                float(rng.uniform(0, size * 0.7)),
                max(1.5, size * float(rng.uniform(0.015, 0.05))) * lighting.glow_scale,
                float(rng.uniform(0.4, 0.9)),
            )
            emissive[..., 0] += glow
            emissive[..., 1] += glow * float(rng.uniform(0.6, 0.95))
            emissive[..., 2] += glow * float(rng.uniform(0.3, 0.8))
        emissive = np.clip(emissive, 0.0, 1.0)
    lit = np.clip(reflectance * lighting.ambient + emissive, 0.0, 1.0)
    return apply_sensor_model(lit, lighting, rng)
