"""OpenMetrics exposition: render/parse round trip against a hand fixture."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.telemetry.exporters import export
from repro.telemetry.openmetrics import (
    metric_name,
    parse_openmetrics,
    render_openmetrics,
    write_exposition,
)
from repro.telemetry.session import Telemetry

pytestmark = pytest.mark.telemetry

# Hand-written canonical exposition: one counter, one labelled gauge, one
# histogram.  render_openmetrics must reproduce this text byte for byte
# from the snapshot below, and parse_openmetrics must invert it.
FIXTURE = """\
# TYPE drive_frames counter
drive_frames_total 250.0
# TYPE queue_depth gauge
queue_depth{queue="status"} 3.0
# TYPE frame_wall_ms histogram
frame_wall_ms_bucket{le="1.0"} 2
frame_wall_ms_bucket{le="5.0"} 5
frame_wall_ms_bucket{le="+Inf"} 6
frame_wall_ms_sum 14.5
frame_wall_ms_count 6
# EOF
"""

SNAPSHOT = [
    {"kind": "counter", "name": "drive_frames", "labels": {}, "value": 250.0},
    {"kind": "gauge", "name": "queue_depth", "labels": {"queue": "status"}, "value": 3.0},
    {
        "kind": "histogram",
        "name": "frame_wall_ms",
        "labels": {},
        "bounds": [1.0, 5.0],
        "bucket_counts": [2, 3, 1],
        "count": 6,
        "sum": 14.5,
    },
]


class TestRender:
    def test_fixture_is_reproduced_byte_for_byte(self):
        assert render_openmetrics(SNAPSHOT) == FIXTURE

    def test_counter_named_total_is_not_doubled(self):
        text = render_openmetrics(
            [{"kind": "counter", "name": "faults_total", "labels": {}, "value": 1.0}]
        )
        assert "# TYPE faults counter" in text
        assert "faults_total 1.0" in text
        assert "faults_total_total" not in text

    def test_unknown_kind_is_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown metric kind"):
            render_openmetrics([{"kind": "summary", "name": "x", "value": 1.0}])

    def test_conflicting_family_kinds_are_rejected(self):
        with pytest.raises(ConfigurationError, match="both"):
            render_openmetrics(
                [
                    {"kind": "gauge", "name": "x", "labels": {}, "value": 1.0},
                    {"kind": "counter", "name": "x", "labels": {}, "value": 1.0},
                ]
            )

    def test_histogram_shape_mismatch_is_rejected(self):
        with pytest.raises(ConfigurationError, match="bucket counts"):
            render_openmetrics(
                [
                    {
                        "kind": "histogram",
                        "name": "h",
                        "labels": {},
                        "bounds": [1.0, 2.0],
                        "bucket_counts": [1, 2],  # needs len(bounds) + 1
                        "count": 3,
                        "sum": 0.0,
                    }
                ]
            )

    def test_names_are_sanitized(self):
        assert metric_name("fleet.drives/s") == "fleet_drives_s"
        text = render_openmetrics(
            [{"kind": "gauge", "name": "fleet.drives/s", "labels": {}, "value": 2.0}]
        )
        assert "fleet_drives_s 2.0" in text


class TestParse:
    def test_round_trip_through_parse_is_identity(self):
        # render ∘ parse is the identity on canonical expositions.
        assert render_openmetrics(parse_openmetrics(FIXTURE)) == FIXTURE

    def test_histogram_buckets_are_decumulated(self):
        series = {s["name"]: s for s in parse_openmetrics(FIXTURE)}
        histogram = series["frame_wall_ms"]
        assert histogram["bounds"] == [1.0, 5.0]
        assert histogram["bucket_counts"] == [2, 3, 1]
        assert histogram["count"] == 6
        assert histogram["sum"] == 14.5
        # min/max are not part of the exposition format
        assert histogram["min"] is None and histogram["max"] is None

    def test_missing_eof_is_rejected(self):
        with pytest.raises(ConfigurationError, match="EOF"):
            parse_openmetrics("# TYPE x gauge\nx 1.0\n")

    def test_sample_without_type_is_rejected(self):
        with pytest.raises(ConfigurationError, match="no preceding TYPE"):
            parse_openmetrics("mystery 1.0\n# EOF\n")

    def test_malformed_sample_is_rejected(self):
        with pytest.raises(ConfigurationError, match="not a sample line"):
            parse_openmetrics("# TYPE x gauge\nx 1.0 trailing junk\n# EOF\n")

    def test_label_escaping_round_trips(self):
        snapshot = [
            {
                "kind": "gauge",
                "name": "g",
                "labels": {"path": 'a"b\\c'},
                "value": 1.0,
            }
        ]
        text = render_openmetrics(snapshot)
        (parsed,) = parse_openmetrics(text)
        assert parsed["labels"] == {"path": 'a"b\\c'}


class TestExportIntegration:
    def test_telemetry_export_openmetrics_format(self, tmp_path):
        telemetry = Telemetry.recording()
        telemetry.metrics.counter("drive_frames").inc(7)
        telemetry.metrics.histogram("frame_wall_ms").observe(2.5)
        path = tmp_path / "metrics.om"
        export(telemetry, str(path), "openmetrics")
        text = path.read_text()
        assert text.endswith("# EOF\n")
        names = {s["name"] for s in parse_openmetrics(text)}
        assert "drive_frames_total" in names
        assert "frame_wall_ms" in names

    def test_write_exposition_rewrites_whole_document(self, tmp_path):
        path = tmp_path / "metrics.om"
        write_exposition(SNAPSHOT, str(path))
        write_exposition(SNAPSHOT, str(path))  # second scrape overwrites
        assert path.read_text() == FIXTURE
