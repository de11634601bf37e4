"""Replay provenance is built when a bundle needs it, not per drive.

``Monitor.begin_drive`` captures the drive's static replay inputs; the
provenance dict (every bundle's manifest body) is built from them on the
first read, which is the first bundle written.  A monitored drive that
writes no bundle never builds it, and the manifests stay byte-identical
to ones built when the drive began.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.core.spec import DriveSpec
from repro.fleet.worker import execute_spec
from repro.monitor.session import Monitor

pytestmark = pytest.mark.monitor

WORST_CASE = DriveSpec(
    name="bundled", trace="sunset", duration_s=12.0, seed=15, fault_scenario="worst_case"
)

#: SHA-256 of the drive's four bundle manifests (``git_revision`` aside),
#: captured while the provenance was still built at ``begin_drive``.
WORST_CASE_MANIFESTS = "8d03c94f3d893ca83df68a6e879666f5be1935a190d1035ca924cbac0f06c5d5"


@pytest.fixture
def builds(monkeypatch) -> list[dict]:
    real = Monitor._build_provenance
    built: list[dict] = []

    def spy(*inputs):
        built.append(real(*inputs))
        return built[-1]

    monkeypatch.setattr(Monitor, "_build_provenance", staticmethod(spy))
    return built


def test_a_drive_without_bundles_never_builds_provenance(builds):
    outcome = execute_spec(DriveSpec(name="quiet", duration_s=6.0, seed=11), quality=True)
    assert outcome.incidents == []
    assert builds == []


def test_incidents_without_a_bundle_directory_build_nothing(builds):
    outcome = execute_spec(WORST_CASE, quality=True)
    assert outcome.verdict["incidents"] > 0
    assert builds == []


def test_bundles_share_one_provenance_and_keep_their_bytes(tmp_path, builds):
    outcome = execute_spec(WORST_CASE, incidents_dir=tmp_path, quality=True)
    assert len(outcome.incidents) == 4
    assert len(builds) == 1
    digest = hashlib.sha256()
    for path in sorted(outcome.incidents):
        manifest = json.loads((Path(path) / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["git_revision"] == manifest.pop("git_revision")
        assert {key: manifest[key] for key in builds[0]} == builds[0]
        digest.update(json.dumps(manifest, sort_keys=True, indent=2).encode())
    assert digest.hexdigest() == WORST_CASE_MANIFESTS


def test_provenance_is_empty_before_any_drive():
    assert Monitor().provenance == {}
