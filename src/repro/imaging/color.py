"""Color-space conversion: RGB <-> YCbCr (ITU-R BT.601).

The dark-condition pipeline of the paper thresholds both the *luminance*
channel (light sources are bright) and the *chrominance* channels (taillights
are red), so the library standardises on BT.601 YCbCr, the color space that
HDTV camera front-ends commonly deliver.

All conversions operate on float images in [0, 1].  Cb and Cr are centered:
they are returned in [-0.5, 0.5] so that "red" is simply a positive Cr.

Each formula is written once.  The luma plane is built by one kernel,
:func:`_luma`, which evaluates ``_KR*r + _KG*g + _KB*b`` a band of
``_BAND_ROWS`` rows at a time with ``out=`` ufuncs: the same operations in
the same order per pixel, so the plane is bitwise equal to the whole-frame
expression, but the temporaries stay in cache.  :func:`luminance` and
:func:`split_channels` both call it.  The red-difference chroma is
:func:`red_difference`, which the dark pipeline also evaluates at just the
pixels its luma test keeps.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ImageError
from repro.imaging.image import ensure_gray, ensure_rgb

# BT.601 luma coefficients.
_KR = 0.299
_KG = 0.587
_KB = 0.114

#: Rows per band of the luma kernel.  A band of a 640-wide frame reads
#: 480 KB of RGB and writes two 160 KB planes, which stay in L2 across the
#: kernel's five passes (16 to 96 rows time within ~15% of each other on a
#: 360x640 frame; 32 was the fastest).
_BAND_ROWS = 32


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


def _luma(arr: np.ndarray) -> np.ndarray:
    """BT.601 luma of float64 RGB ``arr``, computed band by band.

    Per pixel it computes ``(_KR*r + _KG*g) + _KB*b``, the rounding order of
    the plain expression, so the plane is bitwise equal to it.
    """
    out = np.empty(arr.shape[:2])
    scratch = np.empty((min(_BAND_ROWS, arr.shape[0]), arr.shape[1]))
    for top in range(0, arr.shape[0], _BAND_ROWS):
        band = arr[top : top + _BAND_ROWS]
        y = out[top : top + _BAND_ROWS]
        tmp = scratch[: y.shape[0]]
        np.multiply(band[..., 0], _KR, out=y)
        np.multiply(band[..., 1], _KG, out=tmp)
        np.add(y, tmp, out=y)
        np.multiply(band[..., 2], _KB, out=tmp)
        np.add(y, tmp, out=y)
    return out


def luminance(rgb: np.ndarray) -> np.ndarray:
    """BT.601 luma plane of an RGB image, as a fresh C-contiguous float64 array."""
    arr = ensure_rgb(rgb, "rgb")
    return _luma(arr)


def red_difference(r: np.ndarray, y: np.ndarray) -> np.ndarray:
    """BT.601 Cr of pixels with red ``r`` and luma ``y``, in [-0.5, 0.5].

    Elementwise, so it serves a whole plane or just the pixels gathered
    from one.
    """
    return (r - y) / (2.0 * (1.0 - _KR))


def split_channels(rgb: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The paper's "Split Chroma & Luminance" stage (Fig. 4), all three planes.

    Y comes from the banded luma kernel that :func:`luminance` uses, and Cr
    from :func:`red_difference`, so each plane is bitwise equal to its
    plain formula.  Each plane is its own C-contiguous array: thresholds
    and histograms read a contiguous plane several times faster than a
    stride-3 slice of an interleaved image.  The dark pipeline does not
    call this: it needs only Y, and Cr where Y is lit.

    Returns:
        (y, cb, cr) planes; Y in [0, 1], Cb/Cr in [-0.5, 0.5].
    """
    arr = ensure_rgb(rgb, "rgb")
    y = _luma(arr)
    cb = (arr[..., 2] - y) / (2.0 * (1.0 - _KB))
    cr = red_difference(arr[..., 0], y)
    return y, cb, cr


def redness(rgb: np.ndarray) -> np.ndarray:
    """Cr chroma plane; large positive values indicate red light sources."""
    _, _, cr = split_channels(rgb)
    return cr


def gray_to_rgb(gray: np.ndarray) -> np.ndarray:
    """Replicate a gray plane into three channels."""
    arr = ensure_gray(gray, "gray")
    return np.repeat(arr[..., np.newaxis], 3, axis=2)
