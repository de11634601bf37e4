"""Experiment runners: one per paper table/figure plus ablations.

Every runner returns a result object with ``render()`` (the table/report
text) and ``shape_checks()`` (the qualitative claims the paper draws from
that artefact, as booleans).  Benchmarks and EXPERIMENTS.md are generated
from these.
"""

from repro.experiments.adaptive_gain import AdaptiveGainResult, PipelineScore, run_adaptive_gain
from repro.experiments.ablations import (
    BlobHeuristicDetector,
    ContentionResult,
    DbnAblationResult,
    FloorplanSweepResult,
    HysteresisAblationResult,
    ThresholdAblationResult,
    run_contention,
    run_dbn_ablation,
    run_floorplan_sweep,
    run_hysteresis_ablation,
    run_threshold_ablation,
)
from repro.experiments.common import (
    ConditionCorpora,
    build_corpora,
    corpora_and_models,
    trained_dark_detector,
)
from repro.experiments.dark_accuracy import (
    PAPER_DARK_ACCURACY,
    DarkAccuracyResult,
    run_dark_accuracy,
)
from repro.experiments.figures import (
    DarkSamplesResult,
    FpsResult,
    PipelineTimingResult,
    PrControllerTraceResult,
    SystemTopologyResult,
    TrainingFlowResult,
    run_fig2_pipeline,
    run_fig4_pipeline,
    run_fig5_samples,
    run_fig6_system,
    run_fig7_pr_controller,
    run_fps,
    run_pedestrian_pipeline,
    run_training_flow,
)
from repro.experiments.reconfig import (
    PAPER_RECONFIG_MS,
    PAPER_SPEEDUP_OVER_PCAP,
    PAPER_THROUGHPUT_MB_S,
    LatencyResult,
    ThroughputResult,
    run_latency,
    run_throughput,
)
from repro.experiments.table1 import PAPER_TABLE1, Table1Result, run_table1
from repro.experiments.table2 import PAPER_TABLE2, Table2Result, run_table2
from repro.experiments.tables import format_table, pct

__all__ = [
    "AdaptiveGainResult",
    "BlobHeuristicDetector",
    "ConditionCorpora",
    "ContentionResult",
    "DarkAccuracyResult",
    "DarkSamplesResult",
    "DbnAblationResult",
    "FloorplanSweepResult",
    "FpsResult",
    "HysteresisAblationResult",
    "LatencyResult",
    "PAPER_DARK_ACCURACY",
    "PAPER_RECONFIG_MS",
    "PAPER_SPEEDUP_OVER_PCAP",
    "PAPER_TABLE1",
    "PAPER_TABLE2",
    "PAPER_THROUGHPUT_MB_S",
    "PipelineTimingResult",
    "PrControllerTraceResult",
    "SystemTopologyResult",
    "Table1Result",
    "Table2Result",
    "ThresholdAblationResult",
    "ThroughputResult",
    "TrainingFlowResult",
    "build_corpora",
    "corpora_and_models",
    "format_table",
    "PipelineScore",
    "pct",
    "run_adaptive_gain",
    "run_contention",
    "run_dark_accuracy",
    "run_dbn_ablation",
    "run_fig2_pipeline",
    "run_fig4_pipeline",
    "run_fig5_samples",
    "run_fig6_system",
    "run_fig7_pr_controller",
    "run_floorplan_sweep",
    "run_fps",
    "run_hysteresis_ablation",
    "run_latency",
    "run_pedestrian_pipeline",
    "run_table1",
    "run_table2",
    "run_threshold_ablation",
    "run_throughput",
    "run_training_flow",
    "trained_dark_detector",
]
