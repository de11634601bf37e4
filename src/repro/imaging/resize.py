"""Image resampling: area (box) decimation and bilinear resize.

The dark pipeline downsamples the thresholded 1920x1080 frame to 640x360
(paper Fig. 4) before the morphological and DBN stages.  Downsampling by an
integer factor uses *area* averaging — what a hardware decimator with an
accumulator tree implements — while arbitrary resizes use bilinear sampling.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.errors import ImageError
from repro.imaging.image import ensure_binary, ensure_gray


def _tile_grid(shape: tuple[int, ...], factor: int) -> tuple[int, int]:
    """Output shape of an integer-factor decimation; rejects misalignment."""
    if factor < 1:
        raise ImageError(f"factor must be >= 1, got {factor}")
    height, width = shape
    if height % factor or width % factor:
        raise ImageError(
            f"image shape {shape} is not divisible by downsample factor {factor}"
        )
    return height // factor, width // factor


def downsample_area(image: np.ndarray, factor: int) -> np.ndarray:
    """Integer-factor downsample by averaging ``factor`` x ``factor`` tiles.

    The image dimensions must be divisible by ``factor``; the hardware block
    asserts the same alignment (1920/3 = 640, 1080/3 = 360).
    """
    arr = ensure_gray(image)
    out_h, out_w = _tile_grid(arr.shape, factor)
    return arr.reshape(out_h, factor, out_w, factor).mean(axis=(1, 3))


def downsample_binary(mask: np.ndarray, factor: int, vote: float = 0.25) -> np.ndarray:
    """Downsample a binary mask: tile becomes 1 when >= ``vote`` fraction set.

    A plain area-average-then-threshold decimator.  The default vote of 1/4
    keeps small taillight blobs alive through the 3x decimation while
    suppressing single noisy pixels.

    Votes are counted in integers, one strided sub-grid of the tile at a
    time; ``count / factor**2`` is exactly the float tile mean
    :func:`downsample_area` would give, so the decision is the same.
    """
    src = ensure_binary(mask)
    if not 0.0 < vote <= 1.0:
        raise ImageError(f"vote must be in (0, 1], got {vote}")
    if src.size == 0:
        raise ImageError("image must be non-empty")
    counts = np.zeros(_tile_grid(src.shape, factor), dtype=np.intp)
    for dy in range(factor):
        for dx in range(factor):
            counts += src[dy::factor, dx::factor]
    return counts / (factor * factor) >= vote


#: Output rows per band of :func:`resize_bilinear`.  A band's interpolated
#: source rows (~40 for a 0.8x pyramid step) stay in cache until its output
#: rows blend them.
_BAND_ROWS = 32


@functools.lru_cache(maxsize=64)
def _bilinear_taps(in_len: int, out_len: int) -> tuple[np.ndarray, ...]:
    """(i0, i1, w, 1 - w): the two source indices and weights of each output.

    Read-only and shared between calls: a detection pyramid resizes to the
    same few shapes frame after frame, so each (in, out) pair builds its
    taps once.
    """
    pos = (np.arange(out_len) + 0.5) * in_len / out_len - 0.5
    pos = np.clip(pos, 0.0, in_len - 1.0)
    i0 = np.floor(pos).astype(np.intp)
    i1 = np.minimum(i0 + 1, in_len - 1)
    w = pos - i0
    taps = (i0, i1, w, 1 - w)
    for tap in taps:
        tap.flags.writeable = False
    return taps


def resize_bilinear(image: np.ndarray, out_height: int, out_width: int) -> np.ndarray:
    """Bilinear resize of a 2-D plane (align-corners=False convention).

    Each output is ``(r0[x0]*(1-wx) + r0[x1]*wx) * (1-wy)
    + (r1[x0]*(1-wx) + r1[x1]*wx) * wy``, evaluated in that order.  It runs
    in bands of :data:`_BAND_ROWS` output rows: a band interpolates the
    source rows it reads (the bracketed terms), then blends them into its
    output rows.  A source row two bands read is interpolated by each, with
    the same operations, so the result is bitwise that of a whole-plane
    pass.
    """
    arr = ensure_gray(image)
    if out_height < 1 or out_width < 1:
        raise ImageError("output shape must be positive")
    in_h, in_w = arr.shape
    if in_h == out_height and in_w == out_width:
        return arr.copy()
    y0, y1, wy, wy_c = _bilinear_taps(in_h, out_height)
    x0, x1, wx, wx_c = _bilinear_taps(in_w, out_width)
    out = np.empty((out_height, out_width))
    for top in range(0, out_height, _BAND_ROWS):
        bottom = min(top + _BAND_ROWS, out_height)
        first = y0[top]  # the taps never decrease, so the band reads rows first..y1[bottom-1]
        src = arr[first : y1[bottom - 1] + 1]
        rows = np.take(src, x0, axis=1)
        rows *= wx_c
        part = np.take(src, x1, axis=1)
        part *= wx
        rows += part
        band = out[top:bottom]
        np.take(rows, y0[top:bottom] - first, axis=0, out=band)
        band *= wy_c[top:bottom, np.newaxis]
        part = np.take(rows, y1[top:bottom] - first, axis=0)
        part *= wy[top:bottom, np.newaxis]
        band += part
    return out


def resize_rgb_bilinear(image: np.ndarray, out_height: int, out_width: int) -> np.ndarray:
    """Bilinear resize applied per channel of an (H, W, 3) image."""
    arr = np.asarray(image, dtype=np.float64)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise ImageError(f"expected (H, W, 3) image, got {arr.shape}")
    planes = [resize_bilinear(arr[..., c], out_height, out_width) for c in range(3)]
    return np.stack(planes, axis=-1)


def pyramid_scales(
    min_size: tuple[int, int],
    image_size: tuple[int, int],
    scale_step: float = 1.2,
) -> list[float]:
    """Scale factors for a coarse-to-fine detection pyramid.

    Produces factors f (<= 1) such that the *downscaled* image at each level
    still contains the detector window ``min_size`` = (height, width).
    """
    if scale_step <= 1.0:
        raise ImageError(f"scale_step must be > 1, got {scale_step}")
    win_h, win_w = min_size
    img_h, img_w = image_size
    if win_h > img_h or win_w > img_w:
        return []
    scales = []
    factor = 1.0
    while img_h * factor >= win_h and img_w * factor >= win_w:
        scales.append(factor)
        factor /= scale_step
    return scales
