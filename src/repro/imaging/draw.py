"""Lightweight drawing helpers for examples and dataset rendering.

These are plain numpy rasterisers: filled rectangles, outlined boxes, disks,
radial light glows, and an ASCII renderer used by the example scripts to show
detections in a terminal without any imaging dependency.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ImageError
from repro.imaging.geometry import Rect


def _clip_span(lo: int, hi: int, limit: int) -> tuple[int, int]:
    return max(lo, 0), min(hi, limit)


def fill_rect(image: np.ndarray, rect: Rect, value) -> None:
    """Fill ``rect`` with ``value`` in place (scalar for gray, 3-seq for RGB)."""
    arr = np.asarray(image)
    x, y, w, h = rect.as_int()
    y1, y2 = _clip_span(y, y + h, arr.shape[0])
    x1, x2 = _clip_span(x, x + w, arr.shape[1])
    if y2 <= y1 or x2 <= x1:
        return
    image[y1:y2, x1:x2] = value


def draw_box(image: np.ndarray, rect: Rect, value, thickness: int = 1) -> None:
    """Draw the outline of ``rect`` in place."""
    if thickness < 1:
        raise ImageError(f"thickness must be >= 1, got {thickness}")
    x, y, w, h = rect.as_int()
    t = thickness
    fill_rect(image, Rect(x, y, w, min(t, h)), value)
    fill_rect(image, Rect(x, y + h - min(t, h), w, min(t, h)), value)
    fill_rect(image, Rect(x, y, min(t, w), h), value)
    fill_rect(image, Rect(x + w - min(t, w), y, min(t, w), h), value)


def fill_disk(image: np.ndarray, cx: float, cy: float, radius: float, value) -> None:
    """Fill a disk of ``radius`` centred at (cx, cy) in place."""
    if radius <= 0:
        raise ImageError(f"radius must be positive, got {radius}")
    arr = np.asarray(image)
    height, width = arr.shape[:2]
    y1, y2 = _clip_span(int(cy - radius), int(cy + radius) + 2, height)
    x1, x2 = _clip_span(int(cx - radius), int(cx + radius) + 2, width)
    if y2 <= y1 or x2 <= x1:
        return
    ys = np.arange(y1, y2)[:, None]
    xs = np.arange(x1, x2)
    inside = (ys - cy) ** 2 + (xs - cx) ** 2 <= radius**2
    region = image[y1:y2, x1:x2]
    if arr.ndim == 3:
        region[inside] = value
    else:
        region[inside] = value
    image[y1:y2, x1:x2] = region


def light_glow(height: int, width: int, cx: float, cy: float, radius: float, intensity: float = 1.0) -> np.ndarray:
    """Radial falloff patch modelling the bloom around a light source.

    Returns an (height, width) plane with a Gaussian-ish glow centred at
    (cx, cy); callers tint it per channel and add it onto the scene.
    """
    if radius <= 0:
        raise ImageError(f"radius must be positive, got {radius}")
    # Open row and column grids: the same per-pixel values as a full mesh.
    ys = np.arange(height)[:, None]
    xs = np.arange(width)
    dist2 = (ys - cy) ** 2 + (xs - cx) ** 2
    return intensity * np.exp(-dist2 / (2.0 * (radius / 2.0) ** 2))


# ASCII rendering --------------------------------------------------------

_ASCII_RAMP = " .:-=+*#%@"


def ascii_render(gray: np.ndarray, width: int = 72) -> str:
    """Render a gray image as ASCII art (examples / terminal debugging)."""
    from repro.imaging.resize import resize_bilinear

    arr = np.asarray(gray, dtype=np.float64)
    if arr.ndim == 3:
        arr = arr.mean(axis=2)
    in_h, in_w = arr.shape
    out_w = min(width, in_w) if in_w > 0 else width
    # Terminal cells are ~2x taller than wide; halve the row count.
    out_h = max(1, int(round(in_h * out_w / in_w / 2.0)))
    small = resize_bilinear(arr, out_h, out_w)
    lo, hi = small.min(), small.max()
    if hi - lo < 1e-12:
        norm = np.zeros_like(small)
    else:
        norm = (small - lo) / (hi - lo)
    indices = np.minimum((norm * len(_ASCII_RAMP)).astype(int), len(_ASCII_RAMP) - 1)
    return "\n".join("".join(_ASCII_RAMP[i] for i in row) for row in indices)


def ascii_render_with_boxes(gray: np.ndarray, boxes: list[Rect], width: int = 72) -> str:
    """ASCII render with detection boxes burnt in as bright outlines."""
    arr = np.asarray(gray, dtype=np.float64)
    if arr.ndim == 3:
        arr = arr.mean(axis=2)
    canvas = arr.copy()
    peak = float(canvas.max()) if canvas.size else 1.0
    for box in boxes:
        draw_box(canvas, box, max(1.0, peak), thickness=max(1, int(arr.shape[0] / 60)))
    return ascii_render(canvas, width=width)
