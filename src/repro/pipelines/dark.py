"""Dark-condition vehicle detection (paper Fig. 3 / Fig. 4).

The full pipeline, stage for stage:

1. *Split channels* — RGB -> Y / Cr (BT.601); Cb is never read.
2. *Threshold* — luminance threshold (light sources: Otsu plus
   :data:`LUMA_MARGIN`) AND chrominance threshold (red sources: Cr above
   :data:`CR_THRESHOLD`), merged into one binary mask.  Cr is computed
   only at the pixels that pass the luminance threshold.  "Instead of
   relying only on the luminance information, we consider both the
   chrominance and luminance channels during the threshold stage."
3. *Downsample* — :data:`DOWNSAMPLE_FACTOR` = 3x area decimation
   (1920x1080 -> 640x360 in the paper) with a :data:`DOWNSAMPLE_VOTE`.
4. *Closing* — dilate + erode with a :data:`CLOSING_SIZE` square, removing
   threshold noise and smoothing contours.
5. *Sliding DBN* — the 81-20-8-4 network over 9x9 windows with stride 2,
   classifying each window's size/shape class.
6. *Spatial correlation & matching* — DBN hit clusters of at least
   :data:`MIN_BLOB_WINDOWS` inside the :data:`ASPECT_RANGE` band, the
   :data:`MAX_CANDIDATES` largest, paired by the SVM matcher; each matched
   pair localises one vehicle.

Every stage is exposed separately (`preprocess`, `dbn_grid`,
`extract_candidates`) so the hardware timing model, the benchmarks, and the
ablation studies can instrument them individually.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError, PipelineError
from repro.imaging.color import luminance, red_difference
from repro.imaging.components import blob_statistics, label_components
from repro.imaging.geometry import Rect
from repro.imaging.image import ensure_rgb
from repro.imaging.morphology import closing, dilate, square_element
from repro.imaging.resize import downsample_binary
from repro.imaging.threshold import binary_threshold, otsu_threshold
from repro.ml.dbn import DeepBeliefNetwork
from repro.pipelines.base import Detection
from repro.telemetry.metrics import DETECTIONS_BUCKETS
from repro.telemetry.session import NULL_TELEMETRY, Telemetry
from repro.pipelines.taillight import (
    TaillightCandidate,
    TaillightPairMatcher,
    vehicle_box_from_pair,
)

DBN_WINDOW = 9
DBN_STRIDE = 2
#: Max windows classified per DBN forward call; a 360x640 frame's grid
#: has 13,416 cells, so one call covers it.
DBN_BATCH = 65536


#: Margin added to the Otsu luma threshold.
LUMA_MARGIN = 0.08
#: Cr (redness) threshold of the chroma mask.
CR_THRESHOLD = 0.15
#: Binary decimation factor (3 for 1080p -> 640x360).
DOWNSAMPLE_FACTOR = 3
#: Fraction of set pixels that keeps a decimated pixel.
DOWNSAMPLE_VOTE = 0.25
#: Side of the square closing element.
CLOSING_SIZE = 3
#: Minimum DBN hit-windows to accept a candidate.
MIN_BLOB_WINDOWS = 2
#: Keep at most this many largest candidates.
MAX_CANDIDATES = 24
#: Accepted hit-cluster width/height aspect band — the paper's "selection
#: of detected taillights based on their obtained size features": lamps
#: cluster roughly square; wet-road reflection streaks cluster
#: tall-and-narrow and are dropped.
ASPECT_RANGE = (0.36, 2.8)


@dataclass(frozen=True)
class DarkConfig:
    """Dark-pipeline parameters.

    Attributes:
        use_chroma: Merge the chroma mask (the paper's choice); False is
            the luma-only ablation of Table I.
    """

    use_chroma: bool = True


@dataclass
class DarkStageTrace:
    """Intermediate products of one frame, for debugging and benches."""

    luma_mask: np.ndarray | None = None
    chroma_mask: np.ndarray | None = None
    merged_mask: np.ndarray | None = None
    processed_mask: np.ndarray | None = None
    class_grid: np.ndarray | None = None
    candidates: list[TaillightCandidate] = field(default_factory=list)
    pairs: list[tuple[int, int, float]] = field(default_factory=list)


def _window_any(lit: np.ndarray, axis: int) -> np.ndarray:
    """Any-lit test of every ``DBN_WINDOW``-long run at ``DBN_STRIDE`` along ``axis``.

    ORs shifted copies with doubling spans (1, 2, 4, 8 cells), then one
    overlapping shift covers the ninth cell.
    """
    runs = np.moveaxis(lit, axis, 0)
    span = 1
    while 2 * span <= DBN_WINDOW:
        runs = runs[:-span] | runs[span:]
        span *= 2
    rest = DBN_WINDOW - span
    if rest:
        runs = runs[:-rest] | runs[rest:]
    return np.moveaxis(runs[::DBN_STRIDE], 0, axis)


class DarkVehicleDetector:
    """The reconfigurable dark-condition vehicle-detection configuration."""

    def __init__(
        self,
        config: DarkConfig | None = None,
        dbn: DeepBeliefNetwork | None = None,
        matcher: TaillightPairMatcher | None = None,
        telemetry: Telemetry | None = None,
    ):
        self.config = config or DarkConfig()
        self.dbn = dbn
        self.matcher = matcher
        self.name = "vehicle-dark"
        self.telemetry = telemetry or NULL_TELEMETRY

    # Training ----------------------------------------------------------------

    def train(
        self,
        windows: np.ndarray | None = None,
        labels: np.ndarray | None = None,
        seed: int = 11,
    ) -> dict:
        """Train both learned stages.

        Defaults to the synthetic taillight-window corpus and synthetic
        pair corpus (see :mod:`repro.datasets.synthetic` /
        :mod:`repro.pipelines.taillight`); a window corpus must come with
        its labels.

        Returns:
            Training report with DBN traces and pair-SVM meta.
        """
        from repro.datasets.synthetic import make_taillight_windows

        if (windows is None) != (labels is None):
            raise ConfigurationError("give the DBN windows and their labels together")
        if windows is None:
            windows, labels = make_taillight_windows(seed=seed)
        self.dbn = DeepBeliefNetwork()
        dbn_report = self.dbn.fit(windows, labels)
        self.matcher = TaillightPairMatcher()
        pair_model = self.matcher.train(seed=seed)
        return {
            "dbn": dbn_report,
            "dbn_train_accuracy": self.dbn.score(windows, labels),
            "pair_svm": pair_model.meta,
        }

    def _require_trained(self) -> None:
        if self.matcher is None or self.matcher.model is None:
            raise PipelineError("DarkVehicleDetector is not trained; call train()")
        self._require_dbn()

    def _require_dbn(self) -> None:
        if self.dbn is None:
            raise PipelineError("DarkVehicleDetector has no DBN; call train()")

    # Stages (Fig. 4) ----------------------------------------------------------

    def preprocess(self, frame: np.ndarray, trace: DarkStageTrace | None = None) -> np.ndarray:
        """Stages 1-4: split, threshold, merge, downsample, closing.

        Only what the merged mask reads is computed: the Y plane, and Cr at
        just the pixels the luma test keeps (about 1% of a night frame).
        Cb is never computed.  Passing a ``trace`` also computes the
        full-frame Cr plane, to fill ``trace.chroma_mask``; the masks are
        the same either way.
        """
        rgb = ensure_rgb(frame, "frame")
        luma = luminance(rgb)
        luma_mask = binary_threshold(luma, otsu_threshold(luma) + LUMA_MARGIN)
        chroma_mask = None
        merged = luma_mask
        if self.config.use_chroma:
            lit = np.flatnonzero(luma_mask)
            red = red_difference(rgb.reshape(-1, 3)[lit, 0], luma.ravel()[lit]) > CR_THRESHOLD
            merged = luma_mask.copy()
            np.put(merged, lit, red)
            if trace is not None:
                chroma_mask = binary_threshold(red_difference(rgb[..., 0], luma), CR_THRESHOLD)
        factor = self._effective_factor(rgb.shape[0], rgb.shape[1])
        small = downsample_binary(merged, factor, vote=DOWNSAMPLE_VOTE) if factor > 1 else merged
        processed = closing(small, square_element(CLOSING_SIZE))
        if trace is not None:
            trace.luma_mask = luma_mask
            trace.chroma_mask = chroma_mask
            trace.merged_mask = merged
            trace.processed_mask = processed
        return processed

    def _effective_factor(self, height: int, width: int) -> int:
        """Largest factor <= :data:`DOWNSAMPLE_FACTOR` that divides the frame evenly."""
        for factor in range(DOWNSAMPLE_FACTOR, 0, -1):
            if height % factor == 0 and width % factor == 0:
                return factor
        return 1

    def dbn_grid(self, mask: np.ndarray) -> np.ndarray:
        """Stage 5: sliding 9x9 / stride-2 DBN over the processed mask.

        Returns:
            (ny, nx) int grid of DBN classes (0 = background) where cell
            (i, j) covers mask pixels [2i, 2i+9) x [2j, 2j+9).
        """
        self._require_dbn()
        src = np.asarray(mask, dtype=np.float64)
        if src.ndim != 2:
            raise PipelineError(f"mask must be 2-D, got shape {src.shape}")
        if src.shape[0] < DBN_WINDOW or src.shape[1] < DBN_WINDOW:
            return np.zeros((0, 0), dtype=np.int64)
        # Only windows with any lit pixel can be taillights; the rest stay 0.
        # A frame lights a few hundred of its ~13k windows, so find them
        # separably and copy out just their 81 values, in row-major order.
        lit = _window_any(_window_any(src != 0, axis=0), axis=1)
        ny, nx = lit.shape
        occupied = np.flatnonzero(lit)
        view = np.lib.stride_tricks.sliding_window_view(src, (DBN_WINDOW, DBN_WINDOW))
        rows, cols = np.divmod(occupied, nx)
        windows = view[rows * DBN_STRIDE, cols * DBN_STRIDE].reshape(
            occupied.size, DBN_WINDOW * DBN_WINDOW
        )
        grid = np.zeros(ny * nx, dtype=np.int64)
        for start in range(0, occupied.size, DBN_BATCH):
            stop = start + DBN_BATCH
            grid[occupied[start:stop]] = self.dbn.predict_batch(windows[start:stop])
        return grid.reshape(ny, nx)

    def extract_candidates(self, class_grid: np.ndarray) -> list[TaillightCandidate]:
        """Cluster DBN hits into taillight candidates.

        Hits are bridged by a one-step dilation before labelling so a lamp
        whose window responses fragment (the DBN is conservative near
        cluttered masks) still forms one candidate; cluster statistics use
        the true hit cells only.
        """
        if class_grid.size == 0:
            return []
        hits = class_grid > 0
        bridged = dilate(hits, square_element(3))
        labels, count = label_components(bridged)
        labels = np.where(hits, labels, 0)
        blobs = blob_statistics(labels, count)
        candidates: list[TaillightCandidate] = []
        aspect_lo, aspect_hi = ASPECT_RANGE
        for blob in blobs:
            if blob.area < MIN_BLOB_WINDOWS:
                continue
            if not aspect_lo <= blob.aspect <= aspect_hi:
                continue  # elongated cluster: reflection streak, not a lamp
            cells = class_grid[labels == blob.label]
            # Majority size class across the blob's hit windows.
            size_class = int(np.bincount(cells, minlength=4)[1:].argmax()) + 1
            gx, gy = blob.centroid
            center = (
                gx * DBN_STRIDE + DBN_WINDOW / 2.0,
                gy * DBN_STRIDE + DBN_WINDOW / 2.0,
            )
            bbox = Rect(
                blob.bbox.x * DBN_STRIDE,
                blob.bbox.y * DBN_STRIDE,
                blob.bbox.w * DBN_STRIDE + DBN_WINDOW - DBN_STRIDE,
                blob.bbox.h * DBN_STRIDE + DBN_WINDOW - DBN_STRIDE,
            )
            candidates.append(
                TaillightCandidate(
                    center=center, size_class=size_class, area=float(blob.area), bbox=bbox
                )
            )
        candidates.sort(key=lambda c: c.area, reverse=True)
        return candidates[:MAX_CANDIDATES]

    # Full pipeline -------------------------------------------------------------

    def detect(self, frame: np.ndarray, trace: DarkStageTrace | None = None) -> list[Detection]:
        """Stages 1-6: detections in native frame coordinates."""
        self._require_trained()
        telemetry = self.telemetry
        rgb = ensure_rgb(frame, "frame")
        factor = self._effective_factor(rgb.shape[0], rgb.shape[1])
        with telemetry.stage("dark.preprocess"):
            mask = self.preprocess(rgb, trace=trace)
        with telemetry.stage("dark.dbn_grid"):
            class_grid = self.dbn_grid(mask)
        with telemetry.stage("dark.extract_candidates"):
            candidates = self.extract_candidates(class_grid)
        with telemetry.stage("dark.match_pairs"):
            pairs = self.matcher.match_pairs(candidates)  # type: ignore[union-attr]
        if trace is not None:
            trace.class_grid = class_grid
            trace.candidates = candidates
            trace.pairs = pairs
        detections: list[Detection] = []
        for i, j, score in pairs:
            box = vehicle_box_from_pair(candidates[i], candidates[j]).scaled(float(factor))
            clipped = box.clipped(rgb.shape[1], rgb.shape[0])
            if clipped is None:
                continue
            detections.append(
                Detection(
                    rect=clipped,
                    score=score,
                    kind="vehicle",
                    extra={
                        "taillights": [
                            tuple(v * factor for v in candidates[i].center),
                            tuple(v * factor for v in candidates[j].center),
                        ],
                        "size_class": max(candidates[i].size_class, candidates[j].size_class),
                    },
                )
            )
        if telemetry.enabled:
            telemetry.histogram(
                "detections_per_frame", bounds=DETECTIONS_BUCKETS, detector=self.name
            ).observe(float(len(detections)))
        return detections

    def classify_crop(self, crop: np.ndarray) -> tuple[bool, float]:
        """Crop-level protocol: vehicle present iff a pair is matched."""
        detections = self.detect(crop)
        if not detections:
            return False, 0.0
        best = max(d.score for d in detections)
        return True, best
