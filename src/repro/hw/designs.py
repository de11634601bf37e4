"""Block-level hardware designs of the paper's three modules.

Composes the :mod:`repro.hw.resources` estimators into the three designs of
Table II:

* ``day_dusk_design``  — the HOG+SVM vehicle pipeline (Fig. 2),
* ``dark_design``      — the threshold/closing/DBN/pairing pipeline (Fig. 4),
* ``static_design``    — pedestrian detection + data capture + PR controller
  + DMA/interconnect infrastructure (Fig. 6, static partition).

and their streaming timing models (Fig. 2 / Fig. 4 pipelines at 125 MHz).

The detector geometry (HOG cells, windows and feature lengths, the window
stride, the DBN stack, window and stride, the dark downsample) is read from
the functional pipelines, so the model and the detector it times cannot
drift apart.  Architectural parameters (parallelism, datapath widths,
cycles per window) are stated explicitly; where the paper does not publish a
block's internals they are chosen so the totals land near the published
utilization.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.features.hog import HogConfig
from repro.hw.resources import (
    ResourceVector,
    adder_tree,
    axi_dma_core,
    axi_interconnect,
    axi_lite_slave,
    bram_for_bits,
    comparator_bank,
    ddr_controller_pl,
    divider,
    fifo,
    icap_controller,
    line_buffer,
    mac_array,
    sqrt_unit,
    video_io,
)
from repro.hw.timing import (
    HDTV_TIMING,
    PAPER_CLOCK_HZ,
    PipelineStage,
    StreamingPipeline,
    VideoTiming,
)
from repro.ml.dbn import PAPER_DBN_CLASSES, PAPER_DBN_LAYERS
from repro.pipelines.dark import DBN_STRIDE, DBN_WINDOW, DOWNSAMPLE_FACTOR
from repro.pipelines.hog_svm import WINDOW_STRIDE_BLOCKS, HogSvmConfig

VEHICLE_HOG = HogSvmConfig(kind="vehicle").hog
PEDESTRIAN_HOG = HogSvmConfig(kind="pedestrian").hog


@dataclass(frozen=True)
class DesignReport:
    """A named design with per-block resource accounting."""

    name: str
    blocks: tuple[tuple[str, ResourceVector], ...]

    @property
    def total(self) -> ResourceVector:
        total = ResourceVector()
        for _, rv in self.blocks:
            total = total + rv
        return total

    def render(self) -> str:
        """Block-level breakdown as an aligned text table."""
        name_w = max(len(n) for n, _ in self.blocks + (("TOTAL", ResourceVector()),))
        lines = [f"{self.name} design — block-level resources"]
        header = f"{'block':<{name_w}} {'LUT':>8} {'FF':>8} {'BRAM':>6} {'DSP48':>6}"
        lines.append(header)
        lines.append("-" * len(header))
        for block_name, rv in self.blocks:
            lines.append(
                f"{block_name:<{name_w}} {rv.lut:>8} {rv.ff:>8} {rv.bram:>6} {rv.dsp:>6}"
            )
        total = self.total
        lines.append("-" * len(header))
        lines.append(
            f"{'TOTAL':<{name_w}} {total.lut:>8} {total.ff:>8} {total.bram:>6} {total.dsp:>6}"
        )
        return "\n".join(lines)


# --- Day / dusk vehicle detection (Fig. 2) ---------------------------------


def hog_svm_design(
    name: str = "day-dusk-vehicle",
    frame_width: int = 1920,
    n_bins: int = VEHICLE_HOG.n_bins,
    parallel_normalizers: int = 12,
    n_models: int = 2,
    feature_length: int = VEHICLE_HOG.feature_length,
    buffered_cell_rows: int = 16,
) -> DesignReport:
    """Resources of a streaming HOG+SVM engine.

    ``parallel_normalizers`` is the count of concurrently normalised block
    lanes — the knob that buys II=1 at 1080p; ``n_models`` counts the block
    RAM-resident SVM models (day and dusk share the fabric, "stored in two
    block RAM").
    """
    cells_per_row = frame_width // VEHICLE_HOG.cell_size
    blocks: list[tuple[str, ResourceVector]] = []
    # Gradient: 3-row luma buffer + |g| / angle datapath (CORDIC, LUT-only).
    blocks.append(("gradient line buffers", line_buffer(3, frame_width, 8)))
    blocks.append(("gradient magnitude/angle", ResourceVector(lut=5_800, ff=5_600)))
    # Histogram: dual-bin interpolation + per-cell accumulators.
    blocks.append(("histogram interpolation", ResourceVector(lut=3_600, ff=3_200)))
    blocks.append(("cell accumulators", adder_tree(n_bins * 8, 16)))
    # HOG memory: ping-pong cell rows covering the window plus the stride
    # overlap of the next window row (double-buffered block assembly).
    hog_bits = 2 * buffered_cell_rows * cells_per_row * n_bins * 16
    blocks.append(("HOG memory", ResourceVector(bram=bram_for_bits(hog_bits), lut=400, ff=600)))
    # Normalizer: parallel block lanes, each squaring 36 values, sqrt, div.
    lane = (
        mac_array(6, use_dsp=False, bits=16)
        + sqrt_unit(16)
        + divider(16)
        + ResourceVector(lut=900, ff=1_300)
    )
    norm = ResourceVector()
    for _ in range(parallel_normalizers):
        norm = norm + lane
    blocks.append((f"block normalizer x{parallel_normalizers}", norm))
    # Normalized HOG memory: same footprint as the HOG memory.
    blocks.append(
        ("normalized HOG memory", ResourceVector(bram=bram_for_bits(hog_bits), lut=400, ff=600))
    )
    # SVM: sequential dot product against the model BRAMs.
    model_bits = n_models * feature_length * 16
    blocks.append(("SVM MAC + accumulator", mac_array(8, use_dsp=True)))
    blocks.append(
        ("SVM model BRAM", ResourceVector(bram=max(2, bram_for_bits(model_bits)), lut=300, ff=400))
    )
    # Window assembly, thresholding, NMS, result formatting.
    blocks.append(("window control / NMS", ResourceVector(lut=6_800, ff=6_400, bram=8)))
    # Stream plumbing.
    blocks.append(("AXI-Stream FIFOs", fifo(128 * 1024) + fifo(128 * 1024)))
    blocks.append(("AXI-Lite control", axi_lite_slave()))
    return DesignReport(name=name, blocks=tuple(blocks))


def day_dusk_design() -> DesignReport:
    """The Table-II "Day and Dusk Design" row."""
    return hog_svm_design()


def svm_windows(timing: VideoTiming, hog: HogConfig) -> int:
    """Windows the SVM stage scores per frame: one scale, a window every
    ``WINDOW_STRIDE_BLOCKS`` blocks each way."""
    rows, cols = hog.blocks_shape
    cell = hog.cell_size
    positions = (timing.height // cell - rows) * (timing.width // cell - cols)
    return max(1, positions // WINDOW_STRIDE_BLOCKS**2)


def day_dusk_pipeline(timing: VideoTiming = HDTV_TIMING, clock_hz: float = PAPER_CLOCK_HZ) -> StreamingPipeline:
    """Fig. 2 timing: HOG descriptor -> normalizer -> SVM, II = 1."""
    pipe = StreamingPipeline(name="day-dusk-vehicle", timing=timing, clock_hz=clock_hz)
    rows = timing.width  # one raster row of latency per line-buffered stage
    pipe.add_stage(PipelineStage("HOG descriptor", 1.0, latency_cycles=3 * rows))
    pipe.add_stage(PipelineStage("HOG normalizer", 1.0, latency_cycles=8 * rows))
    # SVM evaluates one window feature element per cycle, overlapped across
    # windows; demand stays below the raster rate.
    windows = svm_windows(timing, VEHICLE_HOG)
    pipe.add_stage(
        PipelineStage("SVM classifier", 1.0, latency_cycles=2_000, work_items_per_frame=windows * 270)
    )
    return pipe


# --- Dark vehicle detection (Fig. 4) ----------------------------------------


def dark_design(
    name: str = "dark-vehicle",
    frame_width: int = 1920,
    frame_height: int = 1080,
    downsample: int = DOWNSAMPLE_FACTOR,
    dbn_layers: tuple[int, ...] = PAPER_DBN_LAYERS,
    n_classes: int = PAPER_DBN_CLASSES,
    dbn_engines: int = 3,
) -> DesignReport:
    """Resources of the dark pipeline.

    The dominant consumers: the ping-pong full-resolution binary mask store
    (BRAM) and the replicated DBN engines (DSP for the hidden/output layers,
    fabric adder trees for the binary first layer).
    """
    small_w = frame_width // downsample
    blocks: list[tuple[str, ResourceVector]] = []
    blocks.append(("channel split (YCbCr)", mac_array(6, use_dsp=True) + ResourceVector(lut=800, ff=1_000)))
    blocks.append(("dual threshold + merge", comparator_bank(3, 10) + ResourceVector(lut=600, ff=700)))
    # Full-res binary mask, ping-pong (the Fig. 4 ". . ." frame store).
    mask_bits = 2 * frame_width * frame_height
    blocks.append(("binary mask store (ping-pong)", ResourceVector(bram=bram_for_bits(mask_bits), lut=900, ff=1_100)))
    blocks.append(("downsampler", ResourceVector(lut=700, ff=900)))
    blocks.append(("closing (dilate+erode)", line_buffer(6, small_w, 1) + ResourceVector(lut=2_400, ff=2_600)))
    # Sliding-window DBN engines.
    layer1_in, layer1_out = dbn_layers[0], dbn_layers[1]
    engine = ResourceVector()
    # Layer 1: binary visibles -> adder trees (no multipliers needed).
    for _ in range(layer1_out):
        engine = engine + adder_tree(layer1_in, 16)
    # Hidden/output layers: fixed-point MACs on DSP48s.
    macs = 0
    for a, b in zip(dbn_layers[1:], dbn_layers[2:]):
        macs += a * b
    macs += dbn_layers[-1] * n_classes
    engine = engine + mac_array(macs, use_dsp=True)
    # Sigmoid tables and weight ROMs.
    weight_bits = sum(a * b for a, b in zip(dbn_layers, dbn_layers[1:])) * 18
    engine = engine + ResourceVector(bram=max(2, bram_for_bits(weight_bits)) + 3, lut=2_300, ff=5_200)
    total_engines = ResourceVector()
    for _ in range(dbn_engines):
        total_engines = total_engines + engine
    blocks.append((f"DBN engine x{dbn_engines}", total_engines))
    blocks.append(("window line buffers", line_buffer(DBN_WINDOW, small_w, 1)))
    blocks.append(("class grid store", ResourceVector(bram=4, lut=500, ff=600)))
    # Spatial correlation: candidate table + pair SVM.
    blocks.append(("candidate extraction", ResourceVector(lut=3_800, ff=4_200, bram=3)))
    blocks.append(("pair SVM (matching)", mac_array(6, use_dsp=True) + ResourceVector(lut=1_200, ff=1_500)))
    blocks.append(("merge & compare", ResourceVector(lut=2_200, ff=2_600, bram=2)))
    blocks.append(("AXI-Stream FIFOs", fifo(64 * 1024) + fifo(64 * 1024)))
    blocks.append(("AXI-Lite control", axi_lite_slave()))
    return DesignReport(name=name, blocks=tuple(blocks))


def dark_pipeline(timing: VideoTiming = HDTV_TIMING, clock_hz: float = PAPER_CLOCK_HZ, dbn_engines: int = 3) -> StreamingPipeline:
    """Fig. 4 timing: threshold -> resize -> closing -> DBN -> matching."""
    pipe = StreamingPipeline(name="dark-vehicle", timing=timing, clock_hz=clock_hz)
    width = timing.width
    pipe.add_stage(PipelineStage("split + threshold + AND", 1.0, latency_cycles=8))
    factor = DOWNSAMPLE_FACTOR
    pipe.add_stage(PipelineStage(f"resize {factor}x", 1.0, latency_cycles=factor * width))
    small_w = width // factor
    small_h = timing.height // factor
    pipe.add_stage(PipelineStage("closing", 1.0, latency_cycles=6 * small_w))
    # DBN: one window per cycle per engine over the decimated grid.
    windows = ((small_h - DBN_WINDOW) // DBN_STRIDE + 1) * ((small_w - DBN_WINDOW) // DBN_STRIDE + 1)
    dbn_cycles = windows * 24  # 24 cycles per window per engine (folded MACs)
    pipe.add_stage(
        PipelineStage(
            "sliding DBN",
            1.0,
            latency_cycles=600,
            work_items_per_frame=max(1, dbn_cycles // dbn_engines),
        )
    )
    pipe.add_stage(PipelineStage("spatial correlation", 1.0, latency_cycles=400, work_items_per_frame=4_096))
    return pipe


# --- Static partition (Fig. 6) ----------------------------------------------


def pedestrian_design() -> DesignReport:
    """The static partition's pedestrian HOG+SVM engine (64x32 window)."""
    return hog_svm_design(
        name="pedestrian",
        parallel_normalizers=2,
        n_models=1,
        feature_length=PEDESTRIAN_HOG.feature_length,
        buffered_cell_rows=12,
    )


def static_design() -> DesignReport:
    """The Table-II "Static Design" row: pedestrian engine + infrastructure."""
    ped = pedestrian_design()
    blocks: list[tuple[str, ResourceVector]] = [(f"pedestrian/{n}", rv) for n, rv in ped.blocks]
    blocks.append(("video capture / format", video_io()))
    # Five AXI DMA cores (Fig. 6: two per detector + one for the PR path).
    dma = ResourceVector()
    for _ in range(5):
        dma = dma + axi_dma_core()
    blocks.append(("AXI DMA cores x5", dma))
    blocks.append(("AXI interconnect (memory)", axi_interconnect(4)))
    blocks.append(("AXI interconnect (peripheral)", axi_interconnect(3)))
    blocks.append(("PR controller + ICAP manager", icap_controller()))
    blocks.append(("PL DDR3 controller", ddr_controller_pl()))
    blocks.append(("interrupt/glue logic", ResourceVector(lut=1_200, ff=1_600)))
    return DesignReport(name="static", blocks=tuple(blocks))


def animal_design() -> DesignReport:
    """A hypothetical *animal detection* configuration for the vehicle RP.

    The paper's introduction motivates adaptivity with exactly this feature:
    "animal detection on the road could be a useful feature ... however,
    this feature might not be used in most of the times".  This design is a
    wide-window HOG+SVM variant (animals present wide aspect ratios) sized
    to demonstrate that the floor-planned partition can host additional ADS
    features with no extra fabric cost.
    """
    return hog_svm_design(
        name="animal",
        parallel_normalizers=10,
        n_models=1,
        feature_length=2 * VEHICLE_HOG.feature_length,
        buffered_cell_rows=16,
    )


def pedestrian_pipeline(timing: VideoTiming = HDTV_TIMING, clock_hz: float = PAPER_CLOCK_HZ) -> StreamingPipeline:
    """Static-partition pedestrian pipeline timing (II = 1 at 125 MHz)."""
    pipe = StreamingPipeline(name="pedestrian", timing=timing, clock_hz=clock_hz)
    rows = timing.width
    pipe.add_stage(PipelineStage("HOG descriptor", 1.0, latency_cycles=3 * rows))
    pipe.add_stage(PipelineStage("HOG normalizer", 1.0, latency_cycles=8 * rows))
    windows = svm_windows(timing, PEDESTRIAN_HOG)
    pipe.add_stage(
        PipelineStage("SVM classifier", 1.0, latency_cycles=2_000, work_items_per_frame=windows * 189)
    )
    return pipe
