"""The non-perturbation contract: scoring a drive changes no frame byte.

The quality plane is observation only.  These tests pin that at every
level: a single drive's frame digest, a 64-drive fleet's deterministic
views (quality off / quality on / sharded), and the status plane's
quality section.
"""

from __future__ import annotations

import json

import pytest

from repro.core.spec import PLANE_KEYS, DriveSpec, frames_digest
from repro.core.system import run_drive_spec
from repro.fleet.outcome import (
    DriveOutcome,
    deterministic_metrics,
    deterministic_outcome_dict,
)
from repro.fleet.rollup import deterministic_view, validate_rollup
from repro.fleet.scheduler import FleetConfig, run_fleet
from repro.fleet.specs import sweep_specs
from repro.fleet.status import StatusBoard, render_status, status_metrics_snapshot
from repro.quality.observer import ModelQualityObserver
from repro.telemetry.session import Telemetry

pytestmark = [pytest.mark.quality, pytest.mark.fleet]


class TestDriveLevel:
    def test_scored_drive_is_byte_identical_to_unscored(self):
        spec = DriveSpec(
            name="nonperturb", trace="sunset", duration_s=4.0, seed=123
        )
        plain = run_drive_spec(spec)
        observer = ModelQualityObserver.for_spec(spec)
        scored = run_drive_spec(spec, quality=observer)
        assert frames_digest(plain.frames) == frames_digest(scored.frames)
        assert observer.records, "the observer did score the drive"
        assert plain.quality is None
        assert scored.quality is observer

    def test_quality_metrics_are_emitted_and_stripped(self):
        spec = DriveSpec(name="metrics", trace="sunset", duration_s=2.0, seed=3)
        telemetry = Telemetry.recording()
        run_drive_spec(
            spec, telemetry=telemetry, quality=ModelQualityObserver.for_spec(spec)
        )
        names = {series["name"] for series in telemetry.metrics.snapshot()}
        assert "quality_frames_scored_total" in names
        assert "detection_iou" in names
        kept = {
            series["name"]
            for series in deterministic_metrics(telemetry.metrics.snapshot())
        }
        assert not (kept & PLANE_KEYS)


class TestFleetLevel:
    @pytest.fixture(scope="class")
    def runs(self):
        specs = sweep_specs(64, fleet_seed=11, duration_s=1.0)
        inline_off = run_fleet(specs, FleetConfig(workers=0, streaming=False))
        inline_on = run_fleet(
            specs, FleetConfig(workers=0, streaming=False, quality=True)
        )
        sharded_on = run_fleet(
            specs, FleetConfig(workers=2, streaming=False, quality=True)
        )
        return inline_off, inline_on, sharded_on

    def test_rollups_validate(self, runs):
        for rollup in runs:
            validate_rollup(rollup)

    def test_deterministic_views_are_byte_identical(self, runs):
        views = [json.dumps(deterministic_view(r), sort_keys=True) for r in runs]
        assert views[0] == views[1] == views[2]

    def test_quality_sections_agree_between_inline_and_sharded(self, runs):
        _, inline_on, sharded_on = runs
        assert json.dumps(inline_on["quality"], sort_keys=True) == json.dumps(
            sharded_on["quality"], sort_keys=True
        )
        assert inline_on["quality"]["scored_drives"] == 64

    def test_unscored_fleet_has_zeroed_quality_section(self, runs):
        inline_off, _, _ = runs
        assert inline_off["quality"]["scored_drives"] == 0

    def test_outcome_strip_removes_quality(self, runs):
        _, inline_on, _ = runs
        for outcome in inline_on["outcomes"]:
            assert outcome["quality"]["sampled_frames"] > 0
            stripped = deterministic_outcome_dict(outcome)
            assert "quality" not in stripped


class TestStatusPlane:
    def _outcome(self, name="drive", quality=None):
        return DriveOutcome(
            spec={"name": name},
            status="ok",
            summary={"frames": 10},
            quality=quality or {},
        )

    def _scored_summary(self):
        from repro.quality.records import QualityRecord, fold_records

        return fold_records(
            [
                QualityRecord(
                    index=0,
                    time_s=0.0,
                    condition="day",
                    true_condition="day",
                    configuration="day_dusk",
                    matched=True,
                    tp=3,
                    fp=1,
                    fn=1,
                    matched_ious=(0.8, 0.7, 0.9),
                    truths=4,
                    detections=4,
                )
            ]
        )

    def test_snapshot_quality_section(self):
        board = StatusBoard(now_s=0.0)
        board.record_outcome(self._outcome(), now_s=1.0)
        snapshot = board.snapshot(now_s=2.0)
        assert snapshot["quality"] is None
        board.record_outcome(
            self._outcome("scored", quality=self._scored_summary()), now_s=3.0
        )
        snapshot = board.snapshot(now_s=4.0)
        assert snapshot["quality"]["scored_drives"] == 1
        assert snapshot["quality"]["overall"]["tp"] == 3

    def test_quality_gauges_in_metrics_exposition(self):
        board = StatusBoard(now_s=0.0)
        board.record_outcome(
            self._outcome("scored", quality=self._scored_summary()), now_s=1.0
        )
        series = status_metrics_snapshot(board.snapshot(now_s=2.0))
        by_name = {}
        for s in series:
            by_name.setdefault(s["name"], []).append(s)
        assert by_name["fleet_quality_scored_drives"][0]["value"] == 1.0
        assert by_name["fleet_quality_recall"][0]["value"] == pytest.approx(0.75)
        conditions = {
            s["labels"].get("condition")
            for s in by_name["fleet_quality_recall"]
            if s["labels"]
        }
        assert "day" in conditions

    def test_render_status_quality_line(self):
        board = StatusBoard(now_s=0.0)
        board.record_outcome(
            self._outcome("scored", quality=self._scored_summary()), now_s=1.0
        )
        text = render_status(board.snapshot(now_s=2.0))
        assert "quality (1 scored)" in text
        assert "recall=0.750" in text
