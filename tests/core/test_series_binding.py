"""Per-frame metric series are bound once per drive, on first use.

``run_drive`` and ``ZynqSoC.submit_frame`` look a series up in the
registry the first time a frame reaches it and reuse the handle after
that, so a series is created exactly where it was when every frame looked
it up by name and labels, and a drive asks the registry a few dozen times
instead of about 2,100.
"""

from __future__ import annotations

import pytest

from repro.core.spec import DriveSpec
from repro.core.system import run_drive_spec
from repro.fleet.worker import execute_spec
from repro.quality.observer import ModelQualityObserver, QualityModelConfig
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.session import Telemetry

#: A 6-s urban drive that drops two vehicle frames: every series of its
#: metrics snapshot but the wall-clock-only ``frame_deadline_misses_total``,
#: in the order a lookup per frame created them.
DROPPING = DriveSpec(name="binding", trace="urban", duration_s=6.0, seed=13)
DROPPING_SERIES = [
    "condition_changes",
    "model_swaps",
    "drive_frames",
    "quality_frames_scored_total",
    "quality_tp_total{condition=dusk}",
    "quality_fp_total{condition=dusk}",
    "quality_fn_total{condition=dusk}",
    "detection_iou",
    "frame_wall_ms",
    "frames_processed{detector=vehicle}",
    "frames_processed{detector=pedestrian}",
    "quality_tp_total{condition=dark}",
    "quality_fp_total{condition=dark}",
    "quality_fn_total{condition=dark}",
    "frames_dropped{detector=vehicle}",
    "drive_vehicle_dropped",
    "reconfig_ms",
    "pr_throughput_mbs{controller=paper-pr}",
    "reconfigurations_total",
    "drops_per_reconfiguration",
    "link_bytes_moved{link=hp0}",
    "link_busy_s{link=hp0}",
    "link_bytes_moved{link=hp1}",
    "link_busy_s{link=hp1}",
    "link_bytes_moved{link=hp2}",
    "link_busy_s{link=hp2}",
    "dma_bytes_transferred{engine=dma-ped-mm2s}",
    "dma_bytes_transferred{engine=dma-ped-s2mm}",
    "dma_bytes_transferred{engine=dma-veh-mm2s}",
    "dma_bytes_transferred{engine=dma-veh-s2mm}",
    "irq_delivered{line=dma-ped-mm2s.done}",
    "irq_delivered{line=dma-ped-s2mm.done}",
    "irq_delivered{line=dma-veh-mm2s.done}",
    "irq_delivered{line=dma-veh-s2mm.done}",
    "irq_delivered{line=paper-pr.reconfig_done}",
    "irq_delivered{line=paper-pr.reconfig_error}",
    "health_state",
    "monitor_incidents",
]


def series_names(snapshot: list[dict]) -> list[str]:
    names = []
    for series in snapshot:
        if series["name"] == "frame_deadline_misses_total":
            continue
        labels = ",".join(f"{k}={v}" for k, v in sorted(series["labels"].items()))
        names.append(f"{series['name']}{{{labels}}}" if labels else series["name"])
    return names


def test_a_dropping_drive_creates_its_series_in_first_use_order():
    outcome = execute_spec(DROPPING, quality=True)
    assert outcome.summary["vehicle_dropped"] == 2
    assert series_names(outcome.metrics) == DROPPING_SERIES


def test_frames_that_never_match_create_no_iou_series():
    blind = QualityModelConfig(
        recall_day=0.0,
        recall_dusk=0.0,
        recall_dark=0.0,
        recall_mismatched=0.0,
        fp_rate=0.0,
        fp_rate_dark=0.0,
        fp_rate_mismatched=0.0,
    )
    telemetry = Telemetry.metrics_only()
    observer = ModelQualityObserver.for_spec(DROPPING, blind)
    run_drive_spec(DROPPING, telemetry=telemetry, quality=observer)
    names = series_names(telemetry.metrics.snapshot())
    assert "quality_frames_scored_total" in names
    assert not any(record.matched_ious for record in observer.records)
    assert "detection_iou" not in names


@pytest.mark.parametrize("trace", ["sunset", "urban", "tunnel"])
def test_a_scored_drive_asks_for_counters_a_few_dozen_times(monkeypatch, trace):
    real = MetricsRegistry.counter
    calls: list[str] = []

    def spy(self, name, **labels):
        calls.append(name)
        return real(self, name, **labels)

    monkeypatch.setattr(MetricsRegistry, "counter", spy)
    spec = DriveSpec(name="calls", trace=trace, duration_s=6.0, seed=11)
    outcome = execute_spec(spec, quality=True)
    assert outcome.quality["sampled_frames"] == 300
    # A lookup per frame made about 2,100 calls here.
    assert len(calls) <= 40
