"""Hardware models: streaming timing, FPGA resources, floor-planning.

The designs (:mod:`repro.hw.designs`) read their window, feature and DBN
geometry from the detection pipelines, so they load on first use of one of
their names: importing the timing model (as the SoC does) does not import
the pipelines, HOG features or classifiers.
"""

from typing import TYPE_CHECKING, Any

from repro.hw.floorplan import (
    AREA_GRANULARITY,
    PACKING,
    PAPER_SLACK,
    Partition,
    plan_partition,
    plan_vehicle_partition,
    region_capacity,
)
from repro.hw.resources import (
    Device,
    ResourceVector,
    ZYNQ_7Z100,
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
    HDTV_HEIGHT,
    HDTV_TIMING,
    HDTV_WIDTH,
    PAPER_CLOCK_HZ,
    PipelineStage,
    StreamingPipeline,
    VideoTiming,
)

if TYPE_CHECKING:
    from repro.hw.designs import (
        DesignReport,
        animal_design,
        dark_design,
        dark_pipeline,
        day_dusk_design,
        day_dusk_pipeline,
        hog_svm_design,
        pedestrian_design,
        pedestrian_pipeline,
        static_design,
    )

_DESIGNS = frozenset(
    {
        "DesignReport",
        "animal_design",
        "dark_design",
        "dark_pipeline",
        "day_dusk_design",
        "day_dusk_pipeline",
        "hog_svm_design",
        "pedestrian_design",
        "pedestrian_pipeline",
        "static_design",
    }
)


def __getattr__(name: str) -> Any:
    if name in _DESIGNS:
        from repro.hw import designs

        return getattr(designs, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AREA_GRANULARITY",
    "Device",
    "DesignReport",
    "HDTV_HEIGHT",
    "HDTV_TIMING",
    "HDTV_WIDTH",
    "PACKING",
    "PAPER_CLOCK_HZ",
    "PAPER_SLACK",
    "Partition",
    "PipelineStage",
    "ResourceVector",
    "StreamingPipeline",
    "VideoTiming",
    "ZYNQ_7Z100",
    "adder_tree",
    "animal_design",
    "axi_dma_core",
    "axi_interconnect",
    "axi_lite_slave",
    "bram_for_bits",
    "comparator_bank",
    "dark_design",
    "dark_pipeline",
    "day_dusk_design",
    "day_dusk_pipeline",
    "ddr_controller_pl",
    "divider",
    "fifo",
    "hog_svm_design",
    "icap_controller",
    "line_buffer",
    "mac_array",
    "pedestrian_design",
    "pedestrian_pipeline",
    "plan_partition",
    "plan_vehicle_partition",
    "region_capacity",
    "sqrt_unit",
    "static_design",
    "video_io",
]
