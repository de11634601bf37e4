"""Sliding windows and image pyramids for dense detection."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.errors import FeatureError
from repro.imaging.geometry import Rect
from repro.imaging.image import ensure_gray
from repro.imaging.resize import pyramid_scales, resize_bilinear


@dataclass(frozen=True)
class Window:
    """One sliding-window placement.

    Attributes:
        rect: Position in the coordinates of the *scaled* image it was cut
            from.
        scale: Scale factor of that pyramid level (1.0 = native resolution).
        patch: The pixel content of the window.
    """

    rect: Rect
    scale: float
    patch: np.ndarray


def slide(
    image: np.ndarray,
    window: tuple[int, int],
    stride: tuple[int, int],
    scale: float = 1.0,
) -> Iterator[Window]:
    """Yield all full windows of ``window`` = (h, w) with the given stride."""
    arr = ensure_gray(image)
    win_h, win_w = window
    step_y, step_x = stride
    if win_h < 1 or win_w < 1:
        raise FeatureError(f"window must be positive, got {window}")
    if step_y < 1 or step_x < 1:
        raise FeatureError(f"stride must be positive, got {stride}")
    height, width = arr.shape
    for y in range(0, height - win_h + 1, step_y):
        for x in range(0, width - win_w + 1, step_x):
            yield Window(
                rect=Rect(float(x), float(y), float(win_w), float(win_h)),
                scale=scale,
                patch=arr[y : y + win_h, x : x + win_w],
            )


def pyramid(
    image: np.ndarray,
    window: tuple[int, int],
    scale_step: float = 1.25,
    max_levels: int | None = None,
) -> Iterator[tuple[float, np.ndarray]]:
    """Yield (scale, scaled_image) pyramid levels down to the window size."""
    arr = ensure_gray(image)
    scales = pyramid_scales(window, arr.shape, scale_step=scale_step)
    if max_levels is not None:
        scales = scales[:max_levels]
    for factor in scales:
        if factor == 1.0:
            yield factor, arr
        else:
            out_h = max(window[0], int(round(arr.shape[0] * factor)))
            out_w = max(window[1], int(round(arr.shape[1] * factor)))
            yield factor, resize_bilinear(arr, out_h, out_w)
