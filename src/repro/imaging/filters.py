"""Spatial filtering: 2-D convolution, separable Gaussian, central gradients.

Implemented directly on numpy (no scipy dependency in the core library) so
the functional behaviour of the hardware pipelines can be mirrored exactly.
Border handling follows the hardware convention of edge replication, which is
what line-buffer-based streaming filters implement on an FPGA.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ImageError
from repro.imaging.image import ensure_gray


def _replicate(arr: np.ndarray, top: int, bottom: int, left: int, right: int) -> np.ndarray:
    """Grow the two leading axes of ``arr`` by copies of its edge samples.

    Equal to ``np.pad(mode="edge")`` on those axes, for any amount, even
    one wider than the array, without ``np.pad``'s per-call set-up.
    """
    height, width = arr.shape[:2]
    out = np.empty((top + height + bottom, left + width + right) + arr.shape[2:])
    rows = slice(top, top + height)
    out[rows, left : left + width] = arr
    out[rows, :left] = arr[:, :1]
    out[rows, left + width :] = arr[:, -1:]
    out[:top] = out[top : top + 1]
    out[top + height :] = out[top + height - 1 : top + height]
    return out


def convolve2d(image: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Same-size 2-D convolution with edge replication.

    The kernel is flipped (true convolution).  Kernel sides must be odd so
    the output aligns with the input grid.
    """
    return _convolve(ensure_gray(image), kernel)


def _convolve(arr: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """:func:`convolve2d` over the two leading axes of a float64 array.

    Trailing axes are channels: each is bitwise equal to convolving that
    plane alone.
    """
    ker = np.asarray(kernel, dtype=np.float64)
    if ker.ndim != 2:
        raise ImageError(f"kernel must be 2-D, got shape {ker.shape}")
    kh, kw = ker.shape
    if kh % 2 == 0 or kw % 2 == 0:
        raise ImageError(f"kernel sides must be odd, got {ker.shape}")
    ry, rx = kh // 2, kw // 2
    padded = _replicate(arr, ry, ry, rx, rx)
    flipped = ker[::-1, ::-1]
    height, width = arr.shape[:2]
    out = np.zeros_like(arr)
    term = np.empty_like(arr)
    # Accumulate shifted copies; O(kh*kw) vectorised passes beats a pixel loop.
    for dy in range(kh):
        for dx in range(kw):
            np.multiply(padded[dy : dy + height, dx : dx + width], flipped[dy, dx], out=term)
            out += term
    return out


def convolve_separable(image: np.ndarray, ky: np.ndarray, kx: np.ndarray) -> np.ndarray:
    """Convolution with a separable kernel given as column and row vectors.

    Accepts a 2-D plane or an (H, W, C) image; each channel of the result
    is bitwise equal to convolving that channel alone.
    """
    arr = np.asarray(image)
    if arr.ndim not in (2, 3) or arr.shape[0] == 0 or arr.shape[1] == 0:
        raise ImageError(f"image must be (H, W) or (H, W, C) and non-empty, got shape {arr.shape}")
    arr = arr.astype(np.float64, copy=False)
    col = np.asarray(ky, dtype=np.float64).reshape(-1, 1)
    row = np.asarray(kx, dtype=np.float64).reshape(1, -1)
    return _convolve(_convolve(arr, col), row)


def gaussian_kernel1d(sigma: float, radius: int | None = None) -> np.ndarray:
    """Normalised 1-D Gaussian taps."""
    if sigma <= 0:
        raise ImageError(f"sigma must be positive, got {sigma}")
    if radius is None:
        radius = max(1, int(round(3.0 * sigma)))
    xs = np.arange(-radius, radius + 1, dtype=np.float64)
    taps = np.exp(-(xs**2) / (2.0 * sigma**2))
    return taps / taps.sum()


def gaussian_blur(image: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian blur with edge replication, of a plane or of each
    channel of an (H, W, C) image."""
    taps = gaussian_kernel1d(sigma)
    return convolve_separable(image, taps, taps)


def central_gradient(image: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """[-1, 0, 1] central-difference gradients, the Dalal-Triggs choice.

    Dalal & Triggs found that the simple 1-D mask outperforms Sobel for HOG;
    the paper's HOG accelerators use the same mask for its trivial hardware
    cost (one subtractor per pixel).

    Accepts a 2-D plane or an (..., H, W) stack of planes; borders behave
    as under edge replication.  Each plane of a stack is bitwise equal to
    the gradients of that plane alone.
    """
    arr = np.asarray(image)
    if arr.ndim < 2 or arr.shape[-2] == 0 or arr.shape[-1] == 0:
        raise ImageError(f"image must be (..., H, W) with non-empty planes, got shape {arr.shape}")
    arr = arr.astype(np.float64, copy=False)
    return _half_difference(arr, -1), _half_difference(arr, -2)


def _half_difference(arr: np.ndarray, axis: int) -> np.ndarray:
    """``0.5 * (next - previous)`` along ``axis``, edge samples replicated.

    The interior takes one pass and the two border lines are written
    explicitly, so no padded copy of the input is made.
    """
    out = np.empty(arr.shape)
    src = arr.swapaxes(axis, -1)
    dst = out.swapaxes(axis, -1)
    last = src.shape[-1] - 1
    np.subtract(src[..., 2:], src[..., :-2], out=dst[..., 1:-1])
    np.subtract(src[..., min(1, last)], src[..., 0], out=dst[..., 0])
    np.subtract(src[..., last], src[..., max(last - 1, 0)], out=dst[..., last])
    out *= 0.5
    return out
