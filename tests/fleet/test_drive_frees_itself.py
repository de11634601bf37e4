"""A finished drive is freed by reference counting alone.

The SoC model, its DMA engines, the PR controller and every plane hanging
off a drive (spans, trace records, frame snapshots, quality records) form
one object graph.  A reference cycle anywhere in it leaves the whole drive
to the cyclic garbage collector; these tests pin the graph acyclic by
running each drive with the collector off and asking it afterwards.
"""

from __future__ import annotations

import gc

import pytest

from repro.core.spec import TRACE_FACTORIES, DriveSpec
from repro.faults.scenarios import SCENARIOS
from repro.fleet.worker import execute_spec

pytestmark = pytest.mark.fleet


@pytest.mark.parametrize("planes", ["planes", "bare", "traced"])
@pytest.mark.parametrize("scenario", [None, *sorted(SCENARIOS)])
@pytest.mark.parametrize("trace", sorted(TRACE_FACTORIES))
def test_execute_spec_leaves_no_cyclic_garbage(trace, scenario, planes, tmp_path):
    """``planes`` records metrics only; ``traced`` also records spans for a dump."""
    spec = DriveSpec(name="gc", trace=trace, duration_s=2.0, seed=11, fault_scenario=scenario)
    on = planes != "bare"
    trace_path = tmp_path / "drive.jsonl" if planes == "traced" else None
    gc.collect()
    gc.disable()
    try:
        outcome = execute_spec(
            spec, monitored=on, record_latency=on, quality=on, trace_path=trace_path
        )
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert outcome.status == "ok", outcome.error
    assert unreachable == 0, f"{unreachable} objects were only freed by the cyclic collector"
