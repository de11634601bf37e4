"""Imaging hot paths: the dark front end, resize, morphology, integral images.

The dark pipeline spends its pre-DBN time here (split -> threshold ->
decimate -> close), and every pyramid level of the day/dusk path goes
through the bilinear resize.
"""

from __future__ import annotations

import numpy as np

from repro.datasets.lighting import DARK_LIGHTING
from repro.datasets.scene import SceneConfig, render_scene
from repro.imaging.integral import integral_image
from repro.imaging.morphology import closing, square_element
from repro.imaging.resize import resize_bilinear
from repro.perf.registry import BenchContext, bench
from repro.pipelines.dark import DarkVehicleDetector


@bench(
    "dark_preprocess_ms",
    group="imaging",
    summary="dark front end: split, Otsu, threshold, decimate, close",
)
def dark_preprocess(ctx: BenchContext):
    # 360x640 is the benchmark's frame size; it decimates by 2 (640 % 3 != 0).
    height, width = (90, 160) if ctx.smoke else (360, 640)
    config = SceneConfig(
        height=height,
        width=width,
        n_vehicles=3,
        n_oncoming=1,
        vehicle_fill=(0.08, 0.16),
        seed=int(ctx.rng.integers(2**31)),
    )
    frame = render_scene(config, DARK_LIGHTING).rgb
    ctx.digest(frame)
    detector = DarkVehicleDetector()

    def run():
        return detector.preprocess(frame)

    return run


@bench("resize_bilinear_ms", group="imaging", summary="bilinear frame resize")
def resize_bilinear_bench(ctx: BenchContext):
    height, width = (90, 160) if ctx.smoke else (180, 320)
    frame = ctx.rng.random((height, width))
    ctx.digest(frame)
    out_h, out_w = int(height * 0.8), int(width * 0.8)

    def run():
        return resize_bilinear(frame, out_h, out_w)

    return run


@bench("morphology_closing_ms", group="imaging", summary="binary closing, 3x3 square")
def morphology_closing(ctx: BenchContext):
    height, width = (60, 110) if ctx.smoke else (120, 220)
    mask = ctx.rng.random((height, width)) > 0.7
    ctx.digest(mask)
    element = square_element(3)

    def run():
        return closing(mask, element)

    return run


@bench("integral_image_ms", group="imaging", summary="summed-area table build")
def integral_image_bench(ctx: BenchContext):
    height, width = (90, 160) if ctx.smoke else (180, 320)
    frame = ctx.rng.random((height, width))
    ctx.digest(frame)

    def run():
        return integral_image(frame)

    return run
