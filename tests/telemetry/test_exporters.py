"""Tests for repro.telemetry.exporters: JSONL / Chrome / text round trips."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError
from repro.telemetry.exporters import export, load_dump, render_report, summarize_file
from repro.telemetry.session import Telemetry

pytestmark = pytest.mark.telemetry


@pytest.fixture()
def session() -> Telemetry:
    """A small recorded session with nested spans, events, and metrics."""
    clock = {"now": 0.0}
    telemetry = Telemetry.recording(
        clock=lambda: clock["now"], meta={"artefact": "unit", "duration_s": 1.0}
    )
    with telemetry.span("drive.frame", index=0) as frame:
        clock["now"] = 0.005
        telemetry.event("fault", site="dma-error", target="dma-veh-mm2s")
        span = telemetry.tracer.begin("dma.transfer", engine="veh")
        clock["now"] = 0.012
        telemetry.tracer.end(span, outcome="ok")
        clock["now"] = 0.020
    assert frame.finished
    telemetry.counter("frames").inc()
    telemetry.gauge("pr_throughput_mbs", controller="paper-pr").set(390.0)
    telemetry.histogram("reconfig_ms").observe(20.5)
    return telemetry


class TestJsonl:
    def test_round_trip(self, session, tmp_path):
        path = str(tmp_path / "dump.jsonl")
        export(session, path, "jsonl")
        dump = load_dump(path)
        assert dump.meta["artefact"] == "unit"
        assert {s.name for s in dump.spans} == {"drive.frame", "dma.transfer"}
        frame = next(s for s in dump.spans if s.name == "drive.frame")
        child = next(s for s in dump.spans if s.name == "dma.transfer")
        assert child.parent_id == frame.span_id
        assert [e.name for e in frame.events] == ["fault"]
        assert {m["name"] for m in dump.metrics} == {
            "frames",
            "pr_throughput_mbs",
            "reconfig_ms",
        }

    def test_bad_jsonl_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "meta"}\nnot json\n')
        with pytest.raises(ConfigurationError, match=":2:"):
            load_dump(str(path))

    def test_unknown_record_type_rejected(self, tmp_path):
        path = tmp_path / "weird.jsonl"
        path.write_text('{"type": "mystery"}\n')
        with pytest.raises(ConfigurationError, match="mystery"):
            load_dump(str(path))


class TestChrome:
    def test_document_shape(self, session, tmp_path):
        path = str(tmp_path / "trace.json")
        export(session, path, "chrome")
        with open(path) as fh:
            document = json.load(fh)
        events = document["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]
        metadata = [e for e in events if e["ph"] == "M"]
        assert {e["name"] for e in complete} == {"drive.frame", "dma.transfer"}
        frame = next(e for e in complete if e["name"] == "drive.frame")
        # Sim seconds map to trace microseconds: the 20 ms frame reads 20 000 µs.
        assert frame["dur"] == pytest.approx(20_000.0)
        assert [e["name"] for e in instants] == ["fault"]
        assert {e["args"]["name"] for e in metadata} == {"drive", "dma"}
        assert document["otherData"]["meta"]["artefact"] == "unit"

    def test_round_trip_preserves_structure_and_metrics(self, session, tmp_path):
        path = str(tmp_path / "trace.json")
        export(session, path, "chrome")
        dump = load_dump(path)  # format sniffed from content
        frame = next(s for s in dump.spans if s.name == "drive.frame")
        child = next(s for s in dump.spans if s.name == "dma.transfer")
        assert child.parent_id == frame.span_id
        assert frame.duration_s == pytest.approx(0.020)
        assert [e.name for e in frame.events] == ["fault"]
        assert frame.events[0].attrs["site"] == "dma-error"
        table = {m["name"]: m for m in dump.metrics}
        assert table["pr_throughput_mbs"]["value"] == 390.0
        assert table["reconfig_ms"]["count"] == 1


class TestTextAndErrors:
    def test_text_report_contains_aggregates(self, session, tmp_path):
        path = str(tmp_path / "report.txt")
        export(session, path, "text")
        content = open(path).read()
        assert "telemetry report" in content
        assert "drive.frame" in content
        assert "pr_throughput_mbs{controller=paper-pr}: 390" in content

    def test_summarize_file_matches_render_report(self, session, tmp_path):
        path = str(tmp_path / "dump.jsonl")
        export(session, path, "jsonl")
        summary = summarize_file(path)
        dump = load_dump(path)
        assert summary == render_report(dump.spans, dump.metrics, dump.meta)

    def test_unknown_format_rejected(self, session, tmp_path):
        with pytest.raises(ConfigurationError, match="unknown telemetry format"):
            export(session, str(tmp_path / "x"), "xml")

    def test_empty_dump_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ConfigurationError, match="empty"):
            load_dump(str(path))
