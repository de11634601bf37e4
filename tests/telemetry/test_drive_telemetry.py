"""End-to-end telemetry: drives, SoC spans, non-perturbation, paper numbers."""

from __future__ import annotations

import pytest

from repro.adaptive.sensor import sunset_trace, urban_evening_trace
from repro.core.system import AdaptiveDetectionSystem
from repro.experiments.reconfig import PAPER_THROUGHPUT_MB_S, run_latency, run_throughput
from repro.faults.plan import FaultPlan, FaultSite, FaultSpec
from repro.telemetry.metrics import snapshot_values
from repro.telemetry.session import Telemetry
from repro.zynq.soc import ZynqSoC

pytestmark = pytest.mark.telemetry


def _drive(telemetry=None, fault_plan=None, duration_s: float = 20.0):
    system = AdaptiveDetectionSystem(fault_plan=fault_plan, telemetry=telemetry)
    report = system.run_drive(sunset_trace(duration_s=duration_s))
    return report


class TestNonPerturbation:
    def test_summary_identical_with_and_without_telemetry(self):
        """The acceptance criterion: recording must not change the drive."""
        baseline = _drive(telemetry=None).summary()
        recorded = _drive(telemetry=Telemetry.recording()).summary()
        assert recorded == baseline

    def test_summary_identical_under_faults(self):
        def plan():
            return FaultPlan(
                [
                    FaultSpec(site=FaultSite.DMA_ERROR, start_s=2.0, end_s=2.1, max_firings=1),
                    FaultSpec(site=FaultSite.PR_STALL, start_s=8.0, end_s=12.0, magnitude=0.05),
                ]
            )

        baseline = _drive(fault_plan=plan()).summary()
        recorded = _drive(fault_plan=plan(), telemetry=Telemetry.recording()).summary()
        assert recorded == baseline

    def test_summary_opt_in_addendum(self):
        telemetry = Telemetry.recording()
        report = _drive(telemetry=telemetry)
        plain = report.summary()
        assert "telemetry" not in plain
        extended = report.summary(include_telemetry=True)
        assert extended["telemetry"]["spans"] == len(telemetry.tracer.spans)
        assert extended["telemetry"]["metric_series"] == len(telemetry.metrics)
        # Everything else is untouched.
        extended.pop("telemetry")
        assert extended == plain


class TestDriveSpans:
    def test_per_frame_spans_join_frame_records(self):
        telemetry = Telemetry.recording()
        report = _drive(telemetry=telemetry, duration_s=10.0)
        frames = telemetry.tracer.finished_spans("drive.frame")
        assert len(frames) == len(report.frames) == 500
        by_id = {span.span_id: span for span in frames}
        for record in report.frames:
            span = by_id[record.span_id]
            assert span.attrs["index"] == record.index
            assert span.attrs["condition"] == record.condition.value
        assert telemetry.metrics.value("drive_frames") == 500

    def test_without_telemetry_no_span_ids(self):
        report = _drive(telemetry=None, duration_s=5.0)
        assert all(record.span_id is None for record in report.frames)

    def test_reconfiguration_span_nested_under_a_frame(self):
        telemetry = Telemetry.recording()
        _drive(telemetry=telemetry, duration_s=20.0)
        (pr_span,) = telemetry.tracer.finished_spans("pr.reconfigure")
        assert pr_span.attrs["controller"] == "paper-pr"
        assert pr_span.attrs["outcome"] == "ok"
        assert pr_span.duration_s * 1e3 == pytest.approx(20.5, abs=0.5)
        frame_ids = {s.span_id for s in telemetry.tracer.finished_spans("drive.frame")}
        assert pr_span.parent_id in frame_ids

    def test_faults_tag_enclosing_frame_span(self):
        plan = FaultPlan(
            [FaultSpec(site=FaultSite.DMA_ERROR, start_s=2.0, end_s=2.5, max_firings=1)]
        )
        telemetry = Telemetry.recording()
        _drive(telemetry=telemetry, fault_plan=plan, duration_s=5.0)
        tagged = [
            span
            for span in telemetry.tracer.finished_spans("drive.frame")
            if any(e.name == "fault" for e in span.events)
        ]
        assert tagged, "fault event should land on a frame span"
        assert telemetry.metrics.value("faults_total", site="dma-error") == 1


class TestSocMetrics:
    def test_record_telemetry_publishes_link_and_dma_series(self):
        telemetry = Telemetry.recording()
        _drive(telemetry=telemetry, duration_s=5.0)
        values = snapshot_values(telemetry.metrics.snapshot())
        assert values["link_bytes_moved"][(("link", "hp0"),)] > 0
        assert any(v > 0 for v in values["dma_bytes_transferred"].values())
        assert values["frames_processed"][(("detector", "pedestrian"),)] == 250


class TestPaperNumbersFromMetrics:
    def test_rt_throughput_ranking_reproducible_from_metrics(self):
        """Section IV-A: the MB/s ranking re-derived from the gauges alone."""
        telemetry = Telemetry.recording()
        run_throughput(telemetry=telemetry)
        values = snapshot_values(telemetry.metrics.snapshot())["pr_throughput_mbs"]
        rates = {labels[0][1]: value for labels, value in values.items()}
        assert rates["paper-pr"] > rates["zycap"] > rates["pcap"] > rates["hwicap"]
        for name, paper in PAPER_THROUGHPUT_MB_S.items():
            assert rates[name] == pytest.approx(paper, rel=0.05)

    def test_rl_latency_numbers_reproducible_from_metrics(self):
        """Section IV-B: ~20 ms reconfig = one dropped frame, from metrics."""
        telemetry = Telemetry.recording()
        run_latency(
            trace=urban_evening_trace(duration_s=120.0), telemetry=telemetry
        )
        reconfig = telemetry.metrics.histogram("reconfig_ms")
        assert reconfig.count >= 1
        assert 18.0 <= reconfig.mean <= 23.0
        assert telemetry.metrics.value("drops_per_reconfiguration") == pytest.approx(1.0)
        assert telemetry.metrics.value("frames_dropped", detector="pedestrian") is None


class TestZynqTelemetry:
    def test_soc_dma_transfer_spans(self):
        telemetry = Telemetry.recording()
        soc = ZynqSoC(telemetry=telemetry)
        soc.submit_frame("vehicle")
        soc.sim.run()
        transfers = telemetry.tracer.finished_spans("dma.transfer")
        assert transfers, "frame path should produce DMA transfer spans"
        for span in transfers:
            assert span.attrs["outcome"] == "ok"
            assert span.attrs["bytes"] > 0
            assert span.duration_s > 0

    def test_degradation_events_and_counters(self):
        plan = FaultPlan(
            [FaultSpec(site=FaultSite.DMA_ERROR, start_s=0.0, end_s=1.0, max_firings=1)]
        )
        telemetry = Telemetry.recording()
        soc = ZynqSoC(faults=plan, telemetry=telemetry)
        soc.submit_frame("vehicle")
        soc.sim.run()
        assert telemetry.metrics.value("degradations_total", kind="dma-reset") == 1
