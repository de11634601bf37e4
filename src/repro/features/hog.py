"""Histogram-of-oriented-gradients descriptor (Dalal-Triggs).

This is the exact feature the paper uses for day/dusk vehicle detection and
for the static pedestrian detector: gradient -> per-cell orientation
histograms -> block normalisation (paper Fig. 1 / Fig. 2).  The
implementation mirrors the three hardware stages so the streaming timing
model in ``repro.hw`` can be attached to the same structure:

* ``cell_histograms``   <-> "Gradient Calculation" + "Histogram Generation"
* ``normalize_blocks``  <-> "Block Normalization" / "HOG Normalizer"
* ``HogDescriptor.extract`` <-> the full "HOG Feature Extraction" pipeline
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from numpy.lib.stride_tricks import sliding_window_view

from repro.errors import FeatureError
from repro.features.gradients import GradientField, gradient_field, orientation_bins
from repro.imaging.geometry import Rect
from repro.imaging.image import ensure_gray
from repro.ml.kernels import square_norm_rows


#: Cell rows per band of :meth:`HogDescriptor.extract_dense`'s front end.
#: Small bands keep the gradient and histogram temporaries of a band (~170
#: KB for a 640 px wide plane) in cache; 2-4 rows measured fastest (PERF.md
#: "HOG+SVM scan, round 3").
BAND_CELLS = 4


def _gamma(n: int) -> float:
    """Higham's ``gamma_n = n*u / (1 - n*u)`` for float64 (``u = 2**-53``):
    the relative error bound of an n-operation sum or dot product."""
    nu = n * 2.0**-53
    return nu / (1.0 - nu)


@dataclass(frozen=True)
class HogConfig:
    """HOG layout parameters.

    Attributes:
        window: (height, width) of the detector window in pixels.
        cell_size: Side of a square cell in pixels.
        block_size: Side of a square block in cells (2 means 2x2 cells).
        block_stride: Block step in cells (1 means half-overlapping blocks
            for the default 2x2 block).
        n_bins: Orientation bins over [0, pi).
        clip: L2-Hys clipping value applied during block normalisation.
    """

    window: tuple[int, int] = (64, 64)
    cell_size: int = 8
    block_size: int = 2
    block_stride: int = 1
    n_bins: int = 9
    clip: float = 0.2

    def __post_init__(self) -> None:
        win_h, win_w = self.window
        if self.cell_size < 1:
            raise FeatureError(f"cell_size must be >= 1, got {self.cell_size}")
        if win_h % self.cell_size or win_w % self.cell_size:
            raise FeatureError(
                f"window {self.window} not divisible by cell_size {self.cell_size}"
            )
        if self.block_size < 1 or self.block_stride < 1:
            raise FeatureError("block_size and block_stride must be >= 1")
        if self.n_bins < 2:
            raise FeatureError(f"n_bins must be >= 2, got {self.n_bins}")
        if self.block_size > min(self.cells_shape):
            raise FeatureError(
                f"block of {self.block_size} cells exceeds window of {self.cells_shape} cells"
            )
        if self.clip <= 0:
            raise FeatureError(f"clip must be positive, got {self.clip}")

    @property
    def cells_shape(self) -> tuple[int, int]:
        """(rows, cols) of cells inside the window."""
        return (self.window[0] // self.cell_size, self.window[1] // self.cell_size)

    @property
    def blocks_shape(self) -> tuple[int, int]:
        """(rows, cols) of blocks inside the window."""
        cr, cc = self.cells_shape
        return (
            (cr - self.block_size) // self.block_stride + 1,
            (cc - self.block_size) // self.block_stride + 1,
        )

    @property
    def block_length(self) -> int:
        """Feature values per block."""
        return self.block_size * self.block_size * self.n_bins

    @property
    def feature_length(self) -> int:
        """Total descriptor length for one window."""
        br, bc = self.blocks_shape
        return br * bc * self.block_length


def cell_histograms(image: np.ndarray, config: HogConfig) -> np.ndarray:
    """Per-cell orientation histograms for a window-sized image.

    Args:
        image: Gray image whose shape equals ``config.window``.

    Returns:
        (cell_rows, cell_cols, n_bins) histogram tensor.
    """
    arr = ensure_gray(image)
    if arr.shape != config.window:
        raise FeatureError(f"image shape {arr.shape} != window {config.window}")
    field = gradient_field(arr)
    return cell_histograms_from_field(field, config.cell_size, config.n_bins)


@functools.lru_cache(maxsize=32)
def _cell_slots(height: int, width: int, cell_size: int, n_bins: int) -> np.ndarray:
    """(H, W) index of each pixel's cell's first slot in a flat histogram.

    Read-only and shared between calls: pyramid levels repeat frame after
    frame, so each plane shape builds its index grid once.  int32 keeps the
    cached grids small; the scatter indices themselves stay intp.
    """
    rows, cols = height // cell_size, width // cell_size
    cell_row = np.repeat(np.arange(rows, dtype=np.int32), cell_size)
    cell_col = np.repeat(np.arange(cols, dtype=np.int32), cell_size)
    slots = (cell_row[:, None] * cols + cell_col[None, :]) * n_bins
    slots.flags.writeable = False
    return slots


def cell_histograms_from_field(field: GradientField, cell_size: int, n_bins: int) -> np.ndarray:
    """Cell histograms for an arbitrary-size gradient field.

    The field's shape must be divisible by ``cell_size``.  Dense detection
    reuses this over a whole frame, then slides windows over the cell grid.
    A field of an (..., H, W) stack yields (..., rows, cols, n_bins); plane
    ``i`` is bitwise equal to the histograms of plane ``i``'s field alone,
    since planes never share a slot and each slot sums its pixels in the
    same order.
    """
    *lead, height, width = field.shape
    if height % cell_size or width % cell_size:
        raise FeatureError(
            f"field shape {field.shape} not divisible by cell_size {cell_size}"
        )
    rows, cols = height // cell_size, width // cell_size
    planes = math.prod(lead)
    plane_slots = rows * cols * n_bins
    bin_lo, w_lo, w_hi = orientation_bins(field, n_bins)
    slots = _cell_slots(height, width, cell_size, n_bins)
    if lead:
        slots = slots + np.arange(0, planes * plane_slots, plane_slots).reshape(*lead, 1, 1)
    # Both soft-assigned bins of every pixel, stacked lo over hi, so one
    # bincount scatters them all: each slot sums its lo terms, then its hi
    # terms, in pixel order.
    index = np.empty((2, *bin_lo.shape), dtype=np.intp)
    np.add(bin_lo, slots, out=index[0])
    np.add(index[0], 1, out=index[1])
    index[1] -= (bin_lo == n_bins - 1) * n_bins
    weight = np.empty((2, *bin_lo.shape))
    np.multiply(w_lo, field.magnitude, out=weight[0])
    np.multiply(w_hi, field.magnitude, out=weight[1])
    flat_hist = np.bincount(
        index.ravel(), weights=weight.ravel(), minlength=planes * plane_slots
    )
    return flat_hist.reshape(*lead, rows, cols, n_bins)


def normalize_block(block: np.ndarray, clip: float = 0.2, eps: float = 1e-6) -> np.ndarray:
    """L2-Hys normalisation of one flattened block vector.

    The squared norms use the same fixed-order einsum summation as the
    vectorised :func:`normalize_block_rows`, so normalising one block alone
    is bitwise equal to normalising it inside any batch of blocks.
    """
    vec = np.asarray(block, dtype=np.float64).ravel()
    norm = np.sqrt(np.einsum("d,d->", vec, vec) + eps**2)
    vec = vec / norm
    vec = np.minimum(vec, clip)
    norm = np.sqrt(np.einsum("d,d->", vec, vec) + eps**2)
    return vec / norm


def normalize_block_rows(
    rows: np.ndarray, clip: float = 0.2, eps: float = 1e-6, out: np.ndarray | None = None
) -> np.ndarray:
    """L2-Hys normalisation of a (N, block_length) batch of block vectors.

    Row ``i`` is bitwise equal to ``normalize_block(rows[i])`` — both paths
    share the batch-size-invariant squared-norm kernel — which lets the
    dense descriptor reuse one vectorised normaliser without perturbing the
    per-window reference output.  ``out`` (which may be ``rows`` itself)
    receives the result; otherwise a new array does.
    """
    batch = np.asarray(rows, dtype=np.float64)
    if batch.ndim != 2:
        raise FeatureError(f"rows must be (N, block_length), got shape {batch.shape}")
    norm = np.sqrt(square_norm_rows(batch) + eps**2)
    vec = np.divide(batch, norm[:, None], out=out)
    np.minimum(vec, clip, out=vec)
    norm = np.sqrt(square_norm_rows(vec) + eps**2)
    vec /= norm[:, None]
    return vec


def normalize_blocks(cells: np.ndarray, config: HogConfig) -> np.ndarray:
    """Form overlapping blocks from a cell-histogram tensor and L2-Hys them.

    Vectorised: each block's cells are copied into place, one strided copy
    per cell offset within a block, and the blocks are then normalised in
    place by one batched :func:`normalize_block_rows` call, which replaces
    the per-block Python loop (bitwise-identical output).  The output array
    is the only plane-sized allocation.

    Args:
        cells: (rows, cols, n_bins) cell histograms (any rows/cols >= block).

    Returns:
        (block_rows, block_cols, block_length) normalised block features.
    """
    tensor = np.asarray(cells, dtype=np.float64)
    if tensor.ndim != 3 or tensor.shape[2] != config.n_bins:
        raise FeatureError(
            f"cells must be (rows, cols, {config.n_bins}), got {tensor.shape}"
        )
    rows, cols, n_bins = tensor.shape
    bs, stride = config.block_size, config.block_stride
    if rows < bs or cols < bs:
        raise FeatureError(f"cell grid {rows}x{cols} smaller than block {bs}x{bs}")
    block_rows = (rows - bs) // stride + 1
    block_cols = (cols - bs) // stride + 1
    out = np.empty((block_rows, block_cols, config.block_length))
    # A block's vector is its cells in (cell_row, cell_col, bin) order, as
    # ravel() of a block slice gives them.
    by_cell = out.reshape(block_rows, block_cols, bs, bs, n_bins)
    row_span = stride * (block_rows - 1) + 1
    col_span = stride * (block_cols - 1) + 1
    for i in range(bs):
        for j in range(bs):
            by_cell[:, :, i, j] = tensor[i : i + row_span : stride, j : j + col_span : stride]
    flat = out.reshape(block_rows * block_cols, config.block_length)
    normalize_block_rows(flat, clip=config.clip, out=flat)
    return out


class HogDescriptor:
    """Window-level HOG feature extractor.

    The three-stage structure matches the hardware pipeline of paper Fig. 2;
    use :meth:`extract` for a single window and :meth:`extract_dense` to
    share cell histograms across all windows of a frame.  The dense blocks
    do not depend on the window, so the detectors also share one
    full-resolution plane's blocks across partitions
    (``repro.pipelines.base.frame_blocks``).
    """

    def __init__(self, config: HogConfig | None = None):
        self.config = config or HogConfig()

    @property
    def feature_length(self) -> int:
        return self.config.feature_length

    def extract(self, window: np.ndarray) -> np.ndarray:
        """Descriptor for one window-sized gray image (1-D float vector)."""
        cells = cell_histograms(window, self.config)
        blocks = normalize_blocks(cells, self.config)
        return blocks.ravel()

    def extract_dense(self, image: np.ndarray) -> tuple[np.ndarray, "DenseHogLayout"]:
        """Cell/block features over a whole frame for sliding-window reuse.

        The image is cropped (bottom/right) to a whole number of cells.
        Gradient, orientation bins and histograms run in bands of
        :data:`BAND_CELLS` cell rows.  A band's gradient reads one halo row
        beyond each side the cropped plane has, and every cell lies in one
        band, so each histogram slot sums the same terms in the same order
        as a whole-plane pass.

        Returns:
            (blocks, layout): ``blocks`` is the frame's normalised block
            tensor; ``layout`` maps window positions to feature slices.
        """
        arr = ensure_gray(image)
        cs = self.config.cell_size
        rows = (arr.shape[0] // cs) * cs
        cols = (arr.shape[1] // cs) * cs
        if rows < self.config.window[0] or cols < self.config.window[1]:
            raise FeatureError(
                f"image {arr.shape} smaller than window {self.config.window}"
            )
        plane = arr[:rows, :cols]
        n_bins = self.config.n_bins
        cells = np.empty((rows // cs, cols // cs, n_bins))
        step = BAND_CELLS * cs
        for top in range(0, rows, step):
            bottom = min(top + step, rows)
            lo, hi = max(top - 1, 0), min(bottom + 1, rows)
            halo = gradient_field(plane[lo:hi])
            field = GradientField(
                halo.magnitude[top - lo : bottom - lo], halo.orientation[top - lo : bottom - lo]
            )
            cells[top // cs : bottom // cs] = cell_histograms_from_field(field, cs, n_bins)
        blocks = normalize_blocks(cells, self.config)
        return blocks, DenseHogLayout(self.config, blocks.shape[0], blocks.shape[1])


@dataclass(frozen=True)
class DenseHogLayout:
    """Maps window positions (in cells) into a dense block tensor."""

    config: HogConfig
    frame_block_rows: int
    frame_block_cols: int

    @property
    def window_blocks(self) -> tuple[int, int]:
        return self.config.blocks_shape

    def window_positions(self, cell_stride: int = 1) -> list[tuple[int, int]]:
        """All (block_row, block_col) origins of full windows in the frame."""
        wb_r, wb_c = self.window_blocks
        return [
            (r, c)
            for r in range(0, self.frame_block_rows - wb_r + 1, cell_stride)
            for c in range(0, self.frame_block_cols - wb_c + 1, cell_stride)
        ]

    def window_grid(self, cell_stride: int = 1) -> tuple[np.ndarray, np.ndarray]:
        """The (row_origins, col_origins) axes of the window grid.

        The full position list is their row-major product, in exactly the
        order :meth:`window_positions` yields.
        """
        if cell_stride < 1:
            raise FeatureError(f"cell_stride must be >= 1, got {cell_stride}")
        wb_r, wb_c = self.window_blocks
        rows = np.arange(0, max(self.frame_block_rows - wb_r + 1, 0), cell_stride)
        cols = np.arange(0, max(self.frame_block_cols - wb_c + 1, 0), cell_stride)
        return rows, cols

    def window_index_grid(self, cell_stride: int = 1) -> np.ndarray:
        """All window origins as an (n_windows, 2) int array, row-major.

        Row ``i`` equals ``window_positions(cell_stride)[i]`` — the batched
        scorer and the per-window reference path walk the same grid in the
        same order, so their outputs align index for index.
        """
        rows, cols = self.window_grid(cell_stride)
        if rows.size == 0 or cols.size == 0:
            return np.zeros((0, 2), dtype=np.int64)
        mesh = np.stack(np.meshgrid(rows, cols, indexing="ij"), axis=-1)
        return mesh.reshape(-1, 2).astype(np.int64, copy=False)

    def candidate_windows(
        self,
        blocks: np.ndarray,
        weights: np.ndarray,
        bias: float,
        threshold: float,
        cell_stride: int = 1,
    ) -> np.ndarray:
        """Indices into the window grid of every window whose margin may
        exceed ``threshold``; every other window's margin cannot.

        Each block's partial margins against the model's per-block weight
        slices (49 for a 64x64 window) come from one small GEMM, ``P = W @
        blocks.T``, whose row for a block offset is one contiguous plane; a
        window's approximate margin is then the sum of its blocks' partial
        margins, one strided add per block offset.

        L2-Hys features lie in [0, 1], so the exact margin's computed value
        and the approximation each err by at most ``gamma_n * S`` with ``S
        = ||w||_1 + |b|``, ``gamma_n = n*u / (1 - n*u)`` and ``u = 2**-53``
        (``n = D + 1`` for the D-term dot product plus the bias, ``n = L +
        B + 1`` for the L-term GEMM, the B-term window sum and the bias).
        A window is kept when its approximate margin exceeds ``threshold -
        slack`` with ``slack = 2 * (gamma_(D+1) + gamma_(L+B+1)) * S``; the
        factor 2 also covers the rounding of that subtraction.  When any
        approximate margin is not finite (a NaN or inf plane), every
        window is kept.

        Returns:
            Increasing int indices in :meth:`window_index_grid` order.
        """
        rows, cols = self.window_grid(cell_stride)
        wb_r, wb_c = self.window_blocks
        length = blocks.shape[2]
        per_block = np.asarray(weights, dtype=np.float64).reshape(wb_r * wb_c, length)
        partial = (per_block @ blocks.reshape(-1, length).T).reshape(
            wb_r, wb_c, *blocks.shape[:2]
        )
        span_r = (rows.size - 1) * cell_stride + 1
        span_c = (cols.size - 1) * cell_stride + 1
        approx = np.zeros((rows.size, cols.size))
        for i in range(wb_r):
            for j in range(wb_c):
                approx += partial[i, j, i : i + span_r : cell_stride, j : j + span_c : cell_stride]
        approx += bias
        approx = approx.ravel()
        if not np.isfinite(approx).all():
            return np.arange(approx.size)
        size = np.abs(per_block).sum() + abs(bias)
        slack = 2.0 * (_gamma(per_block.size + 1) + _gamma(length + wb_r * wb_c + 1)) * size
        return np.flatnonzero(approx > threshold - slack)

    def window_feature_matrix(
        self,
        blocks: np.ndarray,
        cell_stride: int = 1,
        out: np.ndarray | None = None,
        windows: np.ndarray | None = None,
    ) -> np.ndarray:
        """Window descriptors gathered into one (n_windows, D) matrix.

        One strided view plus one copy replaces n_windows Python-level
        slices: block histograms shared by overlapping windows are computed
        once in ``blocks`` and fanned out here.  Row ``i`` is bitwise equal
        to ``window_feature(blocks, *window_positions(cell_stride)[i])``
        (it is the same bytes, moved not recomputed).

        Args:
            blocks: Dense block tensor from ``HogDescriptor.extract_dense``.
            cell_stride: Window grid stride in block units.
            out: Optional preallocated C-contiguous (n_windows, D) float64
                buffer.
            windows: Optional indices into the window grid
                (:meth:`window_index_grid` order): gather only those
                windows, in that order.

        Returns:
            (n_windows, feature_length) matrix (``out`` when given).
        """
        wb_r, wb_c = self.window_blocks
        if blocks.ndim != 3 or blocks.shape[:2] != (
            self.frame_block_rows,
            self.frame_block_cols,
        ):
            raise FeatureError(
                f"blocks shape {blocks.shape} does not match layout "
                f"({self.frame_block_rows}, {self.frame_block_cols}, ...)"
            )
        rows, cols = self.window_grid(cell_stride)
        n = rows.size * cols.size if windows is None else len(windows)
        length = self.config.feature_length
        if out is None:
            out = np.empty((n, length), dtype=np.float64)
        elif (
            out.shape != (n, length)
            or out.dtype != np.float64
            or not out.flags.c_contiguous
        ):
            raise FeatureError(
                f"out buffer must be C-contiguous float64 {(n, length)}, "
                f"got {out.dtype} {out.shape}"
            )
        if n == 0:
            return out
        view = sliding_window_view(blocks, (wb_r, wb_c), axis=(0, 1))
        sub = view[::cell_stride, ::cell_stride]
        sub = sub[: rows.size, : cols.size]
        if windows is not None:
            sub = sub[np.divmod(windows, cols.size)][np.newaxis]
        # sub axes: (rows, cols, L, wb_r, wb_c) — reorder the trailing trio
        # to the (wb_r, wb_c, L) ravel order of window_feature and copy
        # straight into the output buffer.
        shaped = out.reshape(*sub.shape[:2], wb_r, wb_c, blocks.shape[2])
        np.copyto(shaped, sub.transpose(0, 1, 3, 4, 2))
        return out

    def window_feature(self, blocks: np.ndarray, block_row: int, block_col: int) -> np.ndarray:
        """Slice one window's descriptor out of the dense block tensor."""
        wb_r, wb_c = self.window_blocks
        view = blocks[block_row : block_row + wb_r, block_col : block_col + wb_c, :]
        if view.shape[:2] != (wb_r, wb_c):
            raise FeatureError(
                f"window at block ({block_row}, {block_col}) exceeds frame blocks"
            )
        return view.ravel()

    def window_rect(self, block_row: int, block_col: int) -> Rect:
        """Pixel-space rectangle of the window at a block origin."""
        cs = self.config.cell_size
        stride_px = self.config.block_stride * cs
        return Rect(
            float(block_col * stride_px),
            float(block_row * stride_px),
            float(self.config.window[1]),
            float(self.config.window[0]),
        )
