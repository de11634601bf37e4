"""Color-space conversion: RGB <-> YCbCr (ITU-R BT.601).

The dark-condition pipeline of the paper thresholds both the *luminance*
channel (light sources are bright) and the *chrominance* channels (taillights
are red), so the library standardises on BT.601 YCbCr, the color space that
HDTV camera front-ends commonly deliver.

All conversions operate on float images in [0, 1].  Cb and Cr are centered:
they are returned in [-0.5, 0.5] so that "red" is simply a positive Cr.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ImageError
from repro.imaging.image import ensure_gray, ensure_rgb

# BT.601 luma coefficients.
_KR = 0.299
_KG = 0.587
_KB = 0.114


def rgb_to_ycbcr(rgb: np.ndarray) -> np.ndarray:
    """Convert an (H, W, 3) RGB image in [0, 1] to YCbCr.

    Returns:
        (H, W, 3) array with Y in [0, 1] and Cb, Cr in [-0.5, 0.5].
    """
    return np.stack(split_channels(rgb), axis=-1)


def ycbcr_to_rgb(ycbcr: np.ndarray) -> np.ndarray:
    """Inverse of :func:`rgb_to_ycbcr`; output clipped to [0, 1]."""
    arr = np.asarray(ycbcr, dtype=np.float64)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise ImageError(f"ycbcr image must have shape (H, W, 3), got {arr.shape}")
    y = arr[..., 0]
    cb = arr[..., 1]
    cr = arr[..., 2]
    r = y + 2.0 * (1.0 - _KR) * cr
    b = y + 2.0 * (1.0 - _KB) * cb
    g = (y - _KR * r - _KB * b) / _KG
    return np.clip(np.stack([r, g, b], axis=-1), 0.0, 1.0)


def luminance(rgb: np.ndarray) -> np.ndarray:
    """BT.601 luma plane of an RGB image."""
    arr = ensure_rgb(rgb, "rgb")
    return _KR * arr[..., 0] + _KG * arr[..., 1] + _KB * arr[..., 2]


def split_channels(rgb: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The paper's "Split Chroma & Luminance" stage (Fig. 4).

    Each plane is computed straight into its own C-contiguous array: the
    thresholds and the Otsu histogram downstream read a contiguous plane
    several times faster than a stride-3 slice of an interleaved image.

    Returns:
        (y, cb, cr) planes; Y in [0, 1], Cb/Cr in [-0.5, 0.5].
    """
    arr = ensure_rgb(rgb, "rgb")
    r = arr[..., 0]
    g = arr[..., 1]
    b = arr[..., 2]
    y = _KR * r + _KG * g + _KB * b
    cb = (b - y) / (2.0 * (1.0 - _KB))
    cr = (r - y) / (2.0 * (1.0 - _KR))
    return y, cb, cr


def redness(rgb: np.ndarray) -> np.ndarray:
    """Cr chroma plane; large positive values indicate red light sources."""
    _, _, cr = split_channels(rgb)
    return cr


def gray_to_rgb(gray: np.ndarray) -> np.ndarray:
    """Replicate a gray plane into three channels."""
    arr = ensure_gray(gray, "gray")
    return np.repeat(arr[..., np.newaxis], 3, axis=2)
