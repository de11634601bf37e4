"""Acceptance: post-hoc profiling cannot change what the drive reports."""

from __future__ import annotations

import pytest

from repro.adaptive.sensor import sunset_trace
from repro.core.system import AdaptiveDetectionSystem
from repro.telemetry.profile import profile_tracer
from repro.telemetry.session import Telemetry

pytestmark = pytest.mark.telemetry

DURATION_S = 10.0


def _drive(telemetry=None):
    system = AdaptiveDetectionSystem(telemetry=telemetry)
    return system.run_drive(sunset_trace(duration_s=DURATION_S))


class TestProfilerNonPerturbation:
    def test_profiled_drive_summary_identical_to_unprofiled(self):
        baseline = _drive().summary()
        telemetry = Telemetry.recording()
        report = _drive(telemetry=telemetry)
        # Analyse the recording every way the profiler offers...
        profile = profile_tracer(telemetry.tracer)
        profile.hot_spans(10)
        profile.frame_percentiles()
        profile.collapsed_stacks()
        profile.render_top(5)
        profile.to_dict()
        # ... and the drive's report is still byte-identical.
        assert report.summary() == baseline
        assert repr(report.summary()) == repr(baseline)

    def test_profiler_reads_do_not_mutate_the_trace(self):
        telemetry = Telemetry.recording()
        _drive(telemetry=telemetry)
        spans_before = [s.to_dict() for s in telemetry.tracer.spans]
        profile = profile_tracer(telemetry.tracer)
        profile.collapsed_stacks()
        profile.render_top(10)
        assert [s.to_dict() for s in telemetry.tracer.spans] == spans_before
        # The profile actually saw the drive: frames rolled up with time.
        assert profile.rollups["drive.frame"].count > 0
        assert profile.n_spans == len(spans_before)
