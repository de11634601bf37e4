"""Inputs come from the seed: same seed, same frames; another seed, others."""

from __future__ import annotations

from bench.workloads import (
    WORKLOADS,
    fleet_input_digest,
    fleet_specs,
    frame_inputs,
    noise_fields,
    pixel_input_digest,
    render_pools,
)


def _pixel_digest(name: str, seed: int) -> str:
    workload = WORKLOADS[name]
    frames = frame_inputs(workload, seed, 30)
    return pixel_input_digest(frames, render_pools(workload, seed, frames), noise_fields(seed))


def test_same_seed_same_frames_and_other_seed_other_frames():
    first = _pixel_digest("night_traffic", 3)
    assert _pixel_digest("night_traffic", 3) == first
    assert _pixel_digest("night_traffic", 4) != first


def test_fleet_specs_follow_the_seed():
    assert fleet_input_digest(fleet_specs(3, 8)) == fleet_input_digest(fleet_specs(3, 8))
    assert fleet_input_digest(fleet_specs(3, 8)) != fleet_input_digest(fleet_specs(4, 8))


def test_every_fourth_drive_carries_a_fault_and_traces_cycle():
    specs = fleet_specs(0, 16)
    assert [s.fault_scenario is not None for s in specs] == [i % 4 == 3 for i in range(16)]
    assert {s.trace for s in specs} == {"sunset", "tunnel", "urban", "flicker"}
    assert len({s.trace for s in specs if s.fault_scenario}) > 1
