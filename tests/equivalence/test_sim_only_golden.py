"""Golden pin of a sim-only drive's whole output surface.

A sim-only drive is ``run_drive_spec`` with the telemetry, monitor and
quality planes attached, as ``fleet.worker.execute_spec`` runs it for
``repro fleet run`` and the ``fleet_sim`` benchmark.  Five drives (one per
fleet trace, plus one under the ``worst_case`` fault scenario) are reduced
to SHA-256 values of every deterministic thing they produce:

* ``frames_digest``, ``DriveReport.summary()``, the monitor verdict and the
  quality summary with its per-frame records;
* the metrics snapshot in creation order, minus the wall-clock series;
* the SoC trace records, through a log subscribed before the drive;
* the span tree with its events, on the sim clock only;
* the monitor events and the flight recorder's snapshots (ring and
  incident windows), minus wall times and wall-derived counter deltas.

The values were captured before the event kernel, the span and metric
types and the quality model were made cheaper; any change to event order,
series creation order, a float's bits or a record's fields shows here.

The pins are of the traced drive.  A drive nothing reads spans from
records metrics only, and must equal the traced one on every other section.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.spec import WALL_KEYS, DriveSpec, frames_digest
from repro.core.system import AdaptiveDetectionSystem
from repro.monitor.session import Monitor, MonitorConfig
from repro.monitor.slo import SloBudgets
from repro.quality.observer import ModelQualityObserver
from repro.telemetry.session import Telemetry

pytestmark = pytest.mark.equivalence

SPECS = (
    DriveSpec(name="golden-sunset", trace="sunset", duration_s=6.0, seed=11),
    DriveSpec(name="golden-tunnel", trace="tunnel", duration_s=6.0, seed=12),
    DriveSpec(name="golden-urban", trace="urban", duration_s=6.0, seed=13),
    DriveSpec(name="golden-flicker", trace="flicker", duration_s=6.0, seed=14),
    DriveSpec(
        name="golden-worst-case",
        trace="sunset",
        duration_s=12.0,
        seed=15,
        fault_scenario="worst_case",
    ),
)

GOLDEN = {
    "golden-sunset": {
        "frames_digest": "7d292c822276baa939dd050778cd12e5b3416c521b893e7541639804f9dfac11",
        "summary": "6c96913a6a7b7e6157e66f1809802804c8f4f0128ff856f90506f18b49b412ff",
        "verdict": "7b1ac86f053194001c44d0a4a43c0937398a1755b187e780be040ad12ae108d2",
        "quality": "ba9924e5201549f7b3c912e05d6323fcf2815f3c3aaa7c73db6f959671cd113e",
        "metrics": "09f1c09f7b4ed24c242eb9dd9c987b3af695046da1f55babb846db1eaf9ea0a7",
        "soc_trace": "c0685d71196755217120b36155b208ba524891600bb75dde734e1d5285fba707",
        "spans": "e59b2e9705e3c761b439d86a20636091a23dc510813ab40cedf9b9fb9345500e",
        "monitor": "a949da49ef2aeb154c071cf8bf258ae6b6786cfaf92a48438e52166e7a45f701",
    },
    "golden-tunnel": {
        "frames_digest": "a06dfaa375af9d831eb94800f78662de6943b79579754d6bf88d5899358051bf",
        "summary": "8eea025de02923e864f6ad2f47300de8643623642c0f56328ba0f592e443b5e1",
        "verdict": "7b1ac86f053194001c44d0a4a43c0937398a1755b187e780be040ad12ae108d2",
        "quality": "fa3919651805e639dabf74b6645cc477c9a338c3202e395ffbf7dde99f74a5a4",
        "metrics": "93db90bf6841dc98efcfc62e2b68cb396772833c68462b94e9b13aeed81b43f7",
        "soc_trace": "cc0d8b1990c8558362c068f23f86dcf291f92250b67fb804fa37443da93dc964",
        "spans": "613cd0e9128734633522823fb6b273b50050e3df12b7f544e9728f51c58e0263",
        "monitor": "661c4ca850ad97f8ac7af5c5a7c11fb390f59d5ea1e360a251daa93ba0fd39d3",
    },
    "golden-urban": {
        "frames_digest": "6078da76f6a193de51b35be20ee1c4af87307c97c20816ac6e7900b47aae2d64",
        "summary": "10b49dac5608a0e598d83ed7c00f35b31f9e808eaf4935a97ec76ee94ca4339d",
        "verdict": "7b1ac86f053194001c44d0a4a43c0937398a1755b187e780be040ad12ae108d2",
        "quality": "ba5fa48e8ede25b8d6a217b9fc08d167a7312df600776c9b27a71867a69f60a1",
        "metrics": "0e8711d3725af33fe4c78e764de2eb6ff82f501540b017b12b2eec297874a674",
        "soc_trace": "0f45d1ec4bf4af96216ad4d5df7343a7ac5fd7f527065d25edb8609cf6ff48e4",
        "spans": "3c7d3bc4ede3aa69b0d008a95c55d22f498073d393826eadb16572bdffe0ec9c",
        "monitor": "fc7fd33eaa4b1be1e7922c9d5e376ef946688be410ab0bd35deb482288c975ca",
    },
    "golden-flicker": {
        "frames_digest": "90c672980f81e287a2b4375cb1d8024fb7cb9a4cf77fd71a1c04d282b5562a0e",
        "summary": "91e01ca1f17631eafda2db0cb98728b3435ccff567997ea9ea3d9100275d2643",
        "verdict": "7b1ac86f053194001c44d0a4a43c0937398a1755b187e780be040ad12ae108d2",
        "quality": "4633c2a4b71fdbc6df17aedf106d22c42bb135971cd4ca3ba3bcc03feef6be13",
        "metrics": "7794b4003579b10d5df66e39c8637a08a6429d070cdcb97f6c6448a463dd74c3",
        "soc_trace": "0ed40084529e02af90a2edb6c506651aec27d490fcc9a112e68fd243d5618462",
        "spans": "a97bcdde48552c462bfe8ad561961369ea5883402ff41172029fa28be0d99724",
        "monitor": "e64d6383173bffb4b9513a10671103bbe3d20b9ed1a4f1789fbf1629f8bfe675",
    },
    "golden-worst-case": {
        "frames_digest": "834ad0a5c42ec69b101b0a5a29e3bff31dedd4bd656b4b37f6a710723a3a8f39",
        "summary": "3a9364f202ae96cb5358203fad935e00ca4a8fdcc5fba119dabfa699135f6e43",
        "verdict": "75a68fc5986b77b0771e029d74357cbeb6705169bf5cb55dee4d97b26f21e9d5",
        "quality": "8f12074c5c82d2d26f6897b708752946893c725ce8e697304aa8718f2740cd2e",
        "metrics": "546af20f8778ecc4eabea620d1761e50bd8f6caeb6e6ec245212691a2f5e27f3",
        "soc_trace": "842da98a65d0d3d7e4f193786d9e6f85f8beba11a0f2ff21b177352418319bca",
        "spans": "7fc3d2c094a60d1cae2d2854ca2b6d43655d36718a5845c650afc5234da147c8",
        "monitor": "68490c941402e650695f55b0d6f014020dacc0f39c00a05a1ef04bd54dfaeba8",
    },
}


def _sha(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode("utf-8")).hexdigest()


def _sim_only_drive(spec: DriveSpec, telemetry: Telemetry | None = None):
    """The drive ``execute_spec(..., quality=True, trace_path=...)`` runs.

    Without ``trace_path`` or ``incidents_dir``, ``execute_spec`` records
    metrics only: pass ``Telemetry.metrics_only()`` for that drive.
    """
    if telemetry is None:
        telemetry = Telemetry.recording()
    monitor = Monitor(
        MonitorConfig(
            budgets=SloBudgets.for_fps(spec.fps),
            wall_clock_slos=False,
            quality_slos=False,
            trigger_on_quality=False,
        ),
        telemetry=telemetry,
    )
    observer = ModelQualityObserver.for_spec(spec)
    system = AdaptiveDetectionSystem.from_spec(
        spec, telemetry=telemetry, monitor=monitor, quality=observer
    )
    soc_log = system.soc.trace.record()
    trace = spec.build_trace()
    sensor = spec.build_sensor(trace, system.fault_plan)
    report = system.run_drive(trace, duration_s=spec.duration_s, sensor=sensor)
    return soc_log, report, telemetry, monitor, observer


def _snapshot_view(snapshot) -> dict:
    data = snapshot.to_dict()
    del data["wall_ms"]
    data["metric_deltas"] = {
        key: value
        for key, value in data["metric_deltas"].items()
        if key.split("{", 1)[0] not in WALL_KEYS
    }
    return data


def _span_view(span) -> dict:
    return {
        "name": span.name,
        "span_id": span.span_id,
        "parent_id": span.parent_id,
        "start_s": span.start_s,
        "end_s": span.end_s,
        "attrs": dict(span.attrs),
        "events": [event.to_dict() for event in span.events],
    }


def sections(spec: DriveSpec, telemetry: Telemetry | None = None) -> dict:
    """Each section of one sim-only drive's output, unhashed."""
    soc_log, report, telemetry, monitor, observer = _sim_only_drive(spec, telemetry)
    return {
        "frames_digest": frames_digest(report.frames),
        "summary": report.summary(),
        "verdict": monitor.verdict(),
        "quality": {
            "summary": observer.summary(),
            "records": [r.to_dict() for r in observer.records],
            "events": observer.events,
        },
        "metrics": [s for s in telemetry.metrics.snapshot() if s["name"] not in WALL_KEYS],
        "soc_trace": [[r.time, r.source, r.message] for r in soc_log],
        "spans": [_span_view(span) for span in telemetry.tracer.spans],
        "monitor": {
            "events": monitor.events,
            "triggers": [t.to_dict() for t in monitor.triggers],
            "ring": [_snapshot_view(s) for s in monitor.recorder.ring],
            "incidents": [
                {
                    "snapshots": [_snapshot_view(s) for s in window.snapshots],
                    "triggers": [t.to_dict() for t in window.triggers],
                }
                for window in monitor.recorder.incidents
            ],
        },
        "span_ids": [frame.span_id for frame in report.frames],
    }


def surface(spec: DriveSpec) -> dict[str, str]:
    """SHA-256 of each section of one traced sim-only drive's output."""
    views = sections(spec)
    del views["span_ids"]
    digest = views.pop("frames_digest")
    return {"frames_digest": digest, **{name: _sha(view) for name, view in views.items()}}


@pytest.mark.parametrize("spec", SPECS, ids=[spec.name for spec in SPECS])
def test_sim_only_drive_matches_golden(spec):
    assert surface(spec) == GOLDEN[spec.name]


@pytest.mark.parametrize("spec", SPECS, ids=[spec.name for spec in SPECS])
def test_metrics_only_drive_equals_the_traced_drive(spec):
    traced = sections(spec)
    metrics_only = sections(spec, Telemetry.metrics_only())
    assert traced["spans"] and all(span_id is not None for span_id in traced["span_ids"])
    assert metrics_only.pop("spans") == []
    assert set(metrics_only.pop("span_ids")) == {None}
    del traced["spans"], traced["span_ids"]
    for name, view in traced.items():
        assert metrics_only[name] == view, name


def test_fault_drive_exercises_every_section():
    """The fault drive's pin covers retries, stalls, incidents and flushes."""
    _, report, telemetry, monitor, observer = _sim_only_drive(SPECS[-1])
    assert report.failed_reconfigurations >= 1
    assert monitor.recorder.incidents
    assert any(event.name == "dma.stall" for span in telemetry.tracer.spans for event in span.events)
    assert any("detector-flush" in label for frame in report.frames for label in frame.faults)
    assert any(record.matched_ious for record in observer.records)
