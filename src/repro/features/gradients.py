"""Gradient magnitude/orientation maps for HOG.

The hardware "Gradient Calculation" stage (paper Fig. 1) computes per-pixel
gradient magnitude and quantised orientation from central differences.  The
software model keeps full precision; the quantisation into orientation bins
happens in the histogram stage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import FeatureError
from repro.imaging.filters import central_gradient


@dataclass(frozen=True)
class GradientField:
    """Per-pixel gradient magnitude and orientation.

    Attributes:
        magnitude: (..., H, W) non-negative gradient magnitudes.
        orientation: (..., H, W) angles in radians, folded into [0, pi) for
            the unsigned-gradient convention HOG uses.
    """

    magnitude: np.ndarray
    orientation: np.ndarray

    @property
    def shape(self) -> tuple[int, ...]:
        return self.magnitude.shape


def gradient_field(image: np.ndarray) -> GradientField:
    """Compute the unsigned gradient field of a gray image.

    Also takes an (..., H, W) stack of planes; every step is elementwise or
    a slice along the last two axes, so plane ``i`` of a stack's field is
    bitwise equal to the field of plane ``i`` alone.

    The magnitude is ``sqrt(gx*gx + gy*gy)``, the squaring adder and square
    root of the paper's gradient unit; it stays within one ulp of
    ``np.hypot(gx, gy)`` while the squares neither overflow nor underflow.
    The orientation is bitwise equal to ``np.mod(np.arctan2(gy, gx), pi)``.
    """
    gx, gy = central_gradient(image)
    orientation = np.arctan2(gy, gx)  # [-pi, pi]
    # The fold np.mod(orientation, pi) does, without its per-element fmod:
    # pi maps to +0, negatives gain pi (tiny ones round up to pi, as under
    # np.mod), and adding +0.0 elsewhere turns atan2's -0.0 into +0.0.
    orientation[orientation == np.pi] = 0.0
    orientation += (orientation < 0.0) * np.pi
    gx *= gx
    gy *= gy
    gx += gy
    magnitude = np.sqrt(gx, out=gx)
    return GradientField(magnitude=magnitude, orientation=orientation)


def orientation_bins(field: GradientField, n_bins: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Soft-assign each pixel's orientation to two adjacent bins.

    Linear interpolation between neighbouring orientation bins, exactly as in
    Dalal-Triggs.  Returns (bin_lo, weight_lo, weight_hi) where ``bin_lo`` is
    the lower bin index per pixel and the upper bin is ``(bin_lo+1) % n_bins``.
    Orientations are expected in [0, pi], as :func:`gradient_field` folds
    them.
    """
    if n_bins < 2:
        raise FeatureError(f"need at least 2 orientation bins, got {n_bins}")
    bin_width = np.pi / n_bins
    # Center of bin b is (b + 0.5) * bin_width.
    position = field.orientation / bin_width
    position -= 0.5
    floor = np.floor(position)
    position -= floor  # the fraction past the lower bin's centre
    bin_lo = floor.astype(np.intp)
    # Orientations below the first bin's centre fall to -1: wrap to the last bin.
    bin_lo += (bin_lo < 0) * n_bins
    return bin_lo, 1.0 - position, position
