"""Tests for repro.telemetry.session: the Telemetry bundle and null path."""

from __future__ import annotations

import pytest

from repro.telemetry.session import NULL_TELEMETRY, Telemetry
from repro.telemetry.spans import NULL_SPAN

pytestmark = pytest.mark.telemetry


class TestNullTelemetry:
    def test_disabled_and_inert(self):
        assert not NULL_TELEMETRY.enabled
        NULL_TELEMETRY.counter("c", any_label="x").inc()
        NULL_TELEMETRY.gauge("g").set(5)
        NULL_TELEMETRY.histogram("h").observe(1.0)
        NULL_TELEMETRY.event("e", time_s=0.0)
        assert len(NULL_TELEMETRY.metrics) == 0
        assert NULL_TELEMETRY.metrics.snapshot() == []
        assert NULL_TELEMETRY.metrics.value("c") is None

    def test_stage_returns_the_shared_null_span(self):
        with NULL_TELEMETRY.stage("dark.preprocess") as span:
            pass
        assert span is NULL_SPAN

    def test_bind_clock_is_a_noop_when_disabled(self):
        NULL_TELEMETRY.bind_clock(lambda: 42.0)  # must not raise or record
        assert not NULL_TELEMETRY.enabled

    def test_default_constructor_is_disabled(self):
        assert not Telemetry().enabled


class TestMetricsOnlySession:
    def test_records_metrics_and_no_spans(self):
        telemetry = Telemetry.metrics_only()
        assert telemetry.enabled
        assert not telemetry.tracer.enabled
        telemetry.counter("c").inc(2)
        with telemetry.span("op"):
            telemetry.event("e", time_s=0.0)
        assert telemetry.metrics.value("c") == 2
        assert telemetry.tracer.spans == ()

    def test_stage_is_neither_spanned_nor_timed(self):
        telemetry = Telemetry.metrics_only()
        with telemetry.stage("dark.preprocess") as span:
            pass
        assert span is NULL_SPAN
        assert telemetry.metrics.snapshot() == []

    def test_bind_clock_leaves_the_null_tracer_alone(self):
        telemetry = Telemetry.metrics_only()
        telemetry.bind_clock(lambda: 42.0)
        assert not hasattr(telemetry.tracer, "clock")


class TestRecordingSession:
    def test_stage_spans_and_histograms_wall_time(self):
        wall = {"now": 0.0}
        telemetry = Telemetry.recording(wall_clock=lambda: wall["now"])
        with telemetry.stage("dark.dbn_grid") as span:
            wall["now"] = 0.004
        assert span.finished
        assert telemetry.tracer.finished_spans("dark.dbn_grid") == [span]
        hist = telemetry.metrics.histogram("stage_wall_ms", stage="dark.dbn_grid")
        assert hist.count == 1
        assert hist.mean == pytest.approx(4.0)

    def test_bind_clock_redirects_sim_time(self):
        telemetry = Telemetry.recording()
        telemetry.bind_clock(lambda: 7.0)
        with telemetry.span("op") as span:
            pass
        assert span.start_s == 7.0

    def test_meta_is_copied(self):
        meta = {"artefact": "drive"}
        telemetry = Telemetry.recording(meta=meta)
        meta["artefact"] = "mutated"
        assert telemetry.meta["artefact"] == "drive"
