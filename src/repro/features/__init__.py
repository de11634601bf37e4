"""Feature extraction: HOG (Dalal-Triggs) and sliding-window machinery."""

from repro.features.gradients import GradientField, gradient_field, orientation_bins
from repro.features.hog import (
    DenseHogLayout,
    HogConfig,
    HogDescriptor,
    cell_histograms,
    cell_histograms_from_field,
    normalize_block,
    normalize_blocks,
)
from repro.features.windows import Window, pyramid, slide

__all__ = [
    "DenseHogLayout",
    "GradientField",
    "HogConfig",
    "HogDescriptor",
    "Window",
    "cell_histograms",
    "cell_histograms_from_field",
    "gradient_field",
    "normalize_block",
    "normalize_blocks",
    "orientation_bins",
    "pyramid",
    "slide",
]
