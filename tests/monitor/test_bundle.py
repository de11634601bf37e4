"""Incident bundles: schema-versioned round trips and validation."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError
from repro.monitor.bundle import (
    BUNDLE_SCHEMA_VERSION,
    is_bundle,
    list_bundles,
    load_bundle,
    write_bundle,
)
from repro.monitor.recorder import FrameSnapshot, TriggerEvent

pytestmark = pytest.mark.monitor


def make_snapshot(i: int) -> FrameSnapshot:
    return FrameSnapshot(
        record={"index": i, "time_s": i * 0.02, "lux": 100.0 - i},
        wall_ms=0.5,
        health="degraded",
        violations=(f"slo:frame-deadline#{i}",),
        zynq_events=({"time_s": i * 0.02, "source": "dma", "kind": "dma.error"},),
        metric_deltas={"drive_frames": 1.0},
    )


@pytest.fixture()
def bundle_dir(tmp_path):
    return write_bundle(
        tmp_path / "incident-000-fault",
        {"incident_id": "incident-000-fault", "drive": {"duration_s": 1.0}},
        [make_snapshot(i) for i in (5, 3, 4)],  # deliberately unsorted
        [TriggerEvent(kind="fault", time_s=0.08, frame_index=4, detail="dma-error")],
        violations=[{"time_s": 0.08, "slo": "frame-deadline", "severity": "degraded"}],
        transitions=[{"time_s": 0.08, "previous": "ok", "new": "degraded"}],
        spans=[{"name": "drive.frame", "span_id": 1, "start_s": 0.06, "end_s": 0.08}],
        metrics=[{"kind": "counter", "name": "drive_frames", "labels": {}, "value": 3.0}],
    )


class TestRoundTrip:
    def test_write_then_load_preserves_everything(self, bundle_dir):
        bundle = load_bundle(bundle_dir)
        assert bundle.incident_id == "incident-000-fault"
        assert bundle.manifest["schema_version"] == BUNDLE_SCHEMA_VERSION
        assert [s.index for s in bundle.frames] == [3, 4, 5]  # sorted on load
        assert bundle.frames[0].metric_deltas == {"drive_frames": 1.0}
        assert bundle.frames[0].zynq_events[0]["kind"] == "dma.error"
        assert [t.detail for t in bundle.triggers] == ["dma-error"]
        assert bundle.violations[0]["slo"] == "frame-deadline"
        assert bundle.transitions[0]["new"] == "degraded"
        assert bundle.spans[0]["name"] == "drive.frame"
        assert bundle.metrics[0]["value"] == 3.0

    def test_window_bounds_stamped_from_snapshots(self, bundle_dir):
        bundle = load_bundle(bundle_dir)
        # write_bundle stamps the window from the snapshot list as given.
        assert bundle.manifest["window"]["start_index"] == 5
        assert bundle.manifest["window"]["end_index"] == 4
        assert bundle.summary()["triggers"] == 1

    def test_loading_the_manifest_path_works_too(self, bundle_dir):
        bundle = load_bundle(bundle_dir / "manifest.json")
        assert bundle.incident_id == "incident-000-fault"


class TestValidation:
    def test_wrong_schema_version_is_rejected(self, bundle_dir):
        manifest = json.loads((bundle_dir / "manifest.json").read_text())
        manifest["schema_version"] = BUNDLE_SCHEMA_VERSION + 1
        (bundle_dir / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ConfigurationError, match="schema version"):
            load_bundle(bundle_dir)

    def test_v1_bundle_is_rejected(self, bundle_dir):
        # Version 1 manifests spelled each config out field by field; they
        # must fail loudly rather than replay with defaults filled in.
        manifest = json.loads((bundle_dir / "manifest.json").read_text())
        manifest["schema_version"] = 1
        (bundle_dir / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ConfigurationError, match="schema version 1"):
            load_bundle(bundle_dir)

    def test_unknown_record_type_is_rejected(self, bundle_dir):
        with open(bundle_dir / "records.jsonl", "a", encoding="utf-8") as fh:
            fh.write('{"type": "mystery"}\n')
        with pytest.raises(ConfigurationError, match="unknown record type"):
            load_bundle(bundle_dir)

    def test_non_bundle_directory_is_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="not an incident bundle"):
            load_bundle(tmp_path)

    def test_corrupt_jsonl_is_rejected(self, bundle_dir):
        with open(bundle_dir / "records.jsonl", "a", encoding="utf-8") as fh:
            fh.write("{not json\n")
        with pytest.raises(ConfigurationError, match="JSONL"):
            load_bundle(bundle_dir)


class TestDiscovery:
    def test_is_bundle_and_list_bundles(self, bundle_dir, tmp_path):
        assert is_bundle(bundle_dir)
        assert is_bundle(bundle_dir / "manifest.json")
        assert not is_bundle(tmp_path)
        (tmp_path / "not-a-bundle").mkdir()
        assert list_bundles(tmp_path) == [bundle_dir]
        assert list_bundles(tmp_path / "missing") == []
