"""Telemetry loader over incident bundles + span window filtering."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.monitor.bundle import write_bundle
from repro.monitor.recorder import FrameSnapshot, TriggerEvent
from repro.telemetry.exporters import filter_spans, load_dump, render_report
from repro.telemetry.spans import Span

pytestmark = pytest.mark.telemetry


def span(span_id: int, start: float, end: float | None, name: str = "drive.frame") -> Span:
    return Span(span_id=span_id, name=name, start_s=start, end_s=end)


@pytest.fixture()
def bundle_dir(tmp_path):
    snapshots = [
        FrameSnapshot(record={"index": i, "time_s": i * 0.02}) for i in range(3)
    ]
    triggers = [TriggerEvent(kind="fault", time_s=0.02, frame_index=1, detail="dma")]
    return write_bundle(
        tmp_path / "incident-000-fault",
        {"incident_id": "incident-000-fault", "trigger": triggers[0].to_dict()},
        snapshots,
        triggers,
        violations=[{"time_s": 0.02, "slo": "frame-deadline", "severity": "degraded"}],
        spans=[span(1, 0.0, 0.04).to_dict(), span(2, 0.02, None).to_dict()],
        metrics=[{"kind": "counter", "name": "drive_frames", "labels": {}, "value": 3.0}],
    )


class TestBundleLoading:
    def test_load_dump_recognizes_a_bundle_directory(self, bundle_dir):
        dump = load_dump(bundle_dir)
        assert dump.meta["source"] == "incident-bundle"
        assert dump.meta["incident_id"] == "incident-000-fault"
        assert dump.meta["trigger"] == "fault"
        assert dump.meta["frame_records"] == 3
        assert dump.meta["violation_records"] == 1
        assert [s.span_id for s in dump.spans] == [1, 2]
        assert dump.metrics[0]["name"] == "drive_frames"

    def test_load_dump_accepts_the_manifest_path(self, bundle_dir):
        dump = load_dump(bundle_dir / "manifest.json")
        assert dump.meta["source"] == "incident-bundle"

    def test_loaded_bundle_renders_a_report(self, bundle_dir):
        dump = load_dump(bundle_dir)
        report = render_report(dump.spans, dump.metrics, dump.meta)
        assert "incident-bundle" in report
        assert "drive.frame" in report


class TestFilterSpans:
    def test_overlap_semantics(self):
        spans = [span(1, 0.0, 1.0), span(2, 2.0, 3.0), span(3, 4.0, 5.0)]
        assert [s.span_id for s in filter_spans(spans, since_s=1.5, until_s=3.5)] == [2]
        # Boundary touches count as overlap.
        assert [s.span_id for s in filter_spans(spans, since_s=1.0, until_s=2.0)] == [1, 2]

    def test_open_bounds(self):
        spans = [span(1, 0.0, 1.0), span(2, 2.0, 3.0)]
        assert [s.span_id for s in filter_spans(spans)] == [1, 2]
        assert [s.span_id for s in filter_spans(spans, since_s=1.5)] == [2]
        assert [s.span_id for s in filter_spans(spans, until_s=1.5)] == [1]

    def test_open_span_counts_at_its_start(self):
        spans = [span(1, 2.0, None)]
        assert filter_spans(spans, since_s=0.0, until_s=1.0) == []
        assert [s.span_id for s in filter_spans(spans, since_s=1.0, until_s=3.0)] == [1]

    def test_empty_window_is_rejected(self):
        with pytest.raises(ConfigurationError, match="empty span window"):
            filter_spans([], since_s=2.0, until_s=1.0)
