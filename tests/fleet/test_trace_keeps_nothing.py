"""A drive that no log subscribes to builds no trace record and no wording.

``zynq.events.Trace`` only fans events out to the tracer and its
listeners; the human-readable log exists for a reader that subscribed
``Trace.record()`` before the run.  A sim-only fleet drive has no such
reader, so it must build neither a ``TraceRecord`` nor a message string.
When the trace kept every record itself, a 6-s drive built about 2,400 of
each.
"""

from __future__ import annotations

import pytest

from repro.core.spec import TRACE_FACTORIES, DriveSpec
from repro.fleet.worker import execute_spec
from repro.zynq import events
from repro.zynq.soc import ZynqSoC

pytestmark = pytest.mark.fleet


@pytest.fixture()
def built(monkeypatch) -> dict[str, int]:
    """Counts of ``TraceRecord`` and wording-table calls from here on."""
    counts = {"records": 0, "wordings": 0}
    real_record = events.TraceRecord

    def record(*args):
        counts["records"] += 1
        return real_record(*args)

    monkeypatch.setattr(events, "TraceRecord", record)
    for kind, wording in list(events.EVENT_WORDING.items()):

        def counted(attrs, wording=wording):
            counts["wordings"] += 1
            return wording(attrs)

        monkeypatch.setitem(events.EVENT_WORDING, kind, counted)
    return counts


@pytest.mark.parametrize("trace", sorted(TRACE_FACTORIES))
def test_monitored_scored_drive_builds_no_trace_record(built, trace):
    spec = DriveSpec(name="quiet", trace=trace, duration_s=6.0, seed=1)
    outcome = execute_spec(spec, monitored=True, quality=True)
    assert outcome.status == "ok", outcome.error
    assert outcome.summary["frames"] == 300 and outcome.quality
    assert built == {"records": 0, "wordings": 0}


def test_a_subscribed_log_is_what_builds_them(built):
    soc = ZynqSoC()
    log = soc.trace.record()
    soc.reconfigure_vehicle("dark")
    soc.sim.run()
    assert len(log) == 4
    assert built == {"records": 4, "wordings": 4}
