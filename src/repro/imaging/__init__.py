"""Image-processing substrate: the software model of the PL image path.

Everything the detection pipelines consume is built from this package:
color conversion, spatial filtering, thresholding, binary morphology,
resampling, connected components, geometry, and drawing.
"""

from repro.imaging.color import (
    gray_to_rgb,
    luminance,
    redness,
    rgb_to_ycbcr,
    split_channels,
)
from repro.imaging.components import Blob, blob_statistics, find_blobs, label_components
from repro.imaging.draw import (
    ascii_render,
    ascii_render_with_boxes,
    draw_box,
    fill_disk,
    fill_rect,
    light_glow,
)
from repro.imaging.filters import (
    central_gradient,
    convolve2d,
    convolve_separable,
    gaussian_blur,
    gaussian_kernel1d,
)
from repro.imaging.geometry import (
    Rect,
    match_detections,
    non_max_suppression,
)
from repro.imaging.image import (
    additive_light,
    blend,
    clip01,
    crop,
    ensure_binary,
    ensure_gray,
    ensure_rgb,
)
from repro.imaging.morphology import (
    closing,
    dilate,
    erode,
    opening,
    rect_element,
    square_element,
)
from repro.imaging.resize import (
    downsample_area,
    downsample_binary,
    pyramid_scales,
    resize_bilinear,
    resize_rgb_bilinear,
)
from repro.imaging.threshold import (
    binary_threshold,
    histogram,
    otsu_threshold,
)

__all__ = [
    "Blob",
    "Rect",
    "additive_light",
    "ascii_render",
    "ascii_render_with_boxes",
    "binary_threshold",
    "blend",
    "blob_statistics",
    "central_gradient",
    "clip01",
    "closing",
    "convolve2d",
    "convolve_separable",
    "crop",
    "dilate",
    "downsample_area",
    "downsample_binary",
    "draw_box",
    "ensure_binary",
    "ensure_gray",
    "ensure_rgb",
    "erode",
    "fill_disk",
    "fill_rect",
    "find_blobs",
    "gaussian_blur",
    "gaussian_kernel1d",
    "gray_to_rgb",
    "histogram",
    "label_components",
    "light_glow",
    "luminance",
    "match_detections",
    "non_max_suppression",
    "opening",
    "otsu_threshold",
    "pyramid_scales",
    "rect_element",
    "redness",
    "resize_bilinear",
    "resize_rgb_bilinear",
    "rgb_to_ycbcr",
    "split_channels",
    "square_element",
]
