"""Binary morphology: erosion, dilation, opening, closing.

The dark pipeline (paper Fig. 4) follows its threshold stage with a *closing*
(dilate then erode) to remove noise produced by thresholding and to smooth
blob contours by filling small holes.  Structuring elements are binary numpy
masks; rectangular elements are provided.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ImageError
from repro.imaging.image import ensure_binary


def rect_element(height: int, width: int) -> np.ndarray:
    """Solid rectangular structuring element."""
    if height < 1 or width < 1:
        raise ImageError(f"element sides must be >= 1, got ({height}, {width})")
    return np.ones((height, width), dtype=bool)


def square_element(size: int) -> np.ndarray:
    """Solid square structuring element."""
    return rect_element(size, size)


def _validate_element(element: np.ndarray) -> np.ndarray:
    el = np.asarray(element).astype(bool)
    if el.ndim != 2:
        raise ImageError(f"structuring element must be 2-D, got shape {el.shape}")
    if not el.any():
        raise ImageError("structuring element must contain at least one True cell")
    return el


def dilate(mask: np.ndarray, element: np.ndarray) -> np.ndarray:
    """Binary dilation: OR of the mask shifted over the element's support.

    Border handling pads with zeros (background), matching a streaming
    hardware window that reads zero outside the frame.
    """
    src = ensure_binary(mask)
    el = _validate_element(element)
    eh, ew = el.shape
    cy, cx = eh // 2, ew // 2
    padded = np.pad(src, ((cy, eh - 1 - cy), (cx, ew - 1 - cx)), mode="constant")
    height, width = src.shape
    out = np.zeros_like(src)
    for dy in range(eh):
        for dx in range(ew):
            if el[dy, dx]:
                out |= padded[dy : dy + height, dx : dx + width]
    return out


def erode(mask: np.ndarray, element: np.ndarray) -> np.ndarray:
    """Binary erosion: AND of the mask shifted over the element's support."""
    src = ensure_binary(mask)
    el = _validate_element(element)
    eh, ew = el.shape
    cy, cx = eh // 2, ew // 2
    padded = np.pad(src, ((cy, eh - 1 - cy), (cx, ew - 1 - cx)), mode="constant")
    height, width = src.shape
    out = np.ones_like(src)
    for dy in range(eh):
        for dx in range(ew):
            if el[dy, dx]:
                out &= padded[dy : dy + height, dx : dx + width]
    return out


def closing(mask: np.ndarray, element: np.ndarray) -> np.ndarray:
    """Dilate then erode — fills small holes, joins nearby fragments.

    This is the exact "Closing (Dilate & Erode)" block of paper Fig. 4.
    """
    return erode(dilate(mask, element), element)


def opening(mask: np.ndarray, element: np.ndarray) -> np.ndarray:
    """Erode then dilate — removes specks smaller than the element."""
    return dilate(erode(mask, element), element)
