"""Batch-seeded quality streams vs a fresh generator per frame.

``repro.rng.start_states`` computes the PCG64 states ``make_rng`` starts
in for many seeds at once, and ``reset_rng`` restarts one generator at any
of them.  The quality observer seeds every sampled frame's
``derive_seed(seed, "frame:<index>")`` stream that way at ``begin_drive``.
These tests pin both to the per-frame ``make_rng`` oracle in
:mod:`tests.equivalence.references`: the start states, the draws, and the
observer's records.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.spec import DriveSpec
from repro.core.system import FrameRecord, run_drive_spec
from repro.datasets.lighting import LightingCondition
from repro.fleet.worker import execute_spec
from repro.quality.observer import ModelQualityObserver, QualityModelConfig
from repro.rng import make_rng, reset_rng, start_states
from tests.equivalence.references import frame_rng_reference, reference_frame_streams

pytestmark = pytest.mark.equivalence

#: Word-count boundaries of SeedSequence's entropy (1, 2, 3 and its whole
#: four-word pool) and the largest seed ``derive_seed`` returns.
EDGE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1, 2**64, 2**96, 2**128 - 1)

SPEC = DriveSpec(name="streams", trace="urban", duration_s=4.0, seed=21)


def start_of(seed: int) -> tuple[int, int]:
    state = make_rng(seed).bit_generator.state["state"]
    return state["state"], state["inc"]


def draws(rng: np.random.Generator) -> list:
    """The observer's draw kinds, plus 32-bit draws that leave PCG64's
    buffered half-word behind."""
    return [
        int(rng.integers(0, 4)),
        rng.uniform(0.25, 1.0, size=3).tolist(),
        int(rng.integers(3)),
        rng.random(),
        rng.normal(0.0, 2.5),
        rng.integers(0, 7, size=3, dtype=np.uint32).tolist(),
        float(rng.random(dtype=np.float32)),
    ]


@pytest.mark.parametrize("seed", EDGE_SEEDS)
def test_start_state_matches_make_rng_on_edge_seeds(seed):
    assert start_states([seed]) == [start_of(seed)]


def test_one_batch_of_mixed_widths_matches_make_rng():
    assert start_states(list(EDGE_SEEDS)) == [start_of(seed) for seed in EDGE_SEEDS]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**63 - 1), min_size=1, max_size=40))
def test_start_states_match_make_rng(seeds):
    assert start_states(seeds) == [start_of(seed) for seed in seeds]


def test_empty_batch_and_out_of_range_seeds():
    assert start_states([]) == []
    for seeds in ([3, -1], [3, 2**128]):
        with pytest.raises(ValueError):
            start_states(seeds)


def test_a_reset_generator_draws_what_make_rng_draws():
    rng = make_rng(5)
    draws(rng)
    for seed, state in zip(EDGE_SEEDS, start_states(list(EDGE_SEEDS))):
        assert draws(reset_rng(rng, state)) == draws(make_rng(seed))


def scored(sample_every: int, reference: bool) -> ModelQualityObserver:
    observer = ModelQualityObserver.for_spec(SPEC, QualityModelConfig(sample_every=sample_every))
    with reference_frame_streams() if reference else nullcontext():
        run_drive_spec(SPEC, quality=observer)
    return observer


@pytest.mark.parametrize("sample_every", [1, 3])
def test_observer_records_match_a_generator_per_frame(sample_every):
    fast, oracle = scored(sample_every, False), scored(sample_every, True)
    assert len(fast.records) == -(-200 // sample_every)
    assert sum(record.tp for record in fast.records) > 0
    assert fast.records == oracle.records
    assert fast.events == oracle.events


def test_one_observer_over_two_drives_in_turn():
    second = DriveSpec(name="streams-2", trace="tunnel", duration_s=3.0, seed=22)

    def two_drives(reference: bool) -> list:
        observer = ModelQualityObserver(seed=99)
        with reference_frame_streams() if reference else nullcontext():
            run_drive_spec(SPEC, quality=observer)
            run_drive_spec(second, quality=observer)
        return observer.records

    fast = two_drives(False)
    assert len(fast) == 350
    assert fast == two_drives(True)


def test_a_frame_past_the_announced_length_draws_its_own_stream():
    observer = ModelQualityObserver(seed=7)
    observer.begin_drive(SPEC.build_trace(), duration_s=0.1, n_frames=5)
    oracle = frame_rng_reference(7, 9)
    assert observer._frame_rng(9).bit_generator.state == oracle.bit_generator.state
    record = FrameRecord(
        index=9,
        time_s=0.18,
        condition=LightingCondition.DUSK,
        lux=100.0,
        vehicle_accepted=True,
        pedestrian_accepted=True,
        vehicle_configuration="day_dusk",
        reconfiguring=False,
    )
    fast = observer.observe_frame(record, "day_dusk")
    with reference_frame_streams():
        assert observer.observe_frame(record, "day_dusk") == fast


def test_a_scored_drive_builds_at_most_two_generators(monkeypatch):
    """One for the sensor, one for every quality frame (301 with a
    generator per frame)."""
    real = np.random.default_rng
    built: list[tuple] = []

    def spy(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", spy)
    spec = DriveSpec(name="spy", duration_s=6.0, seed=11)
    outcome = execute_spec(spec, quality=True)
    assert outcome.quality["sampled_frames"] == 300
    assert len(built) <= 2
    # The spy sees the per-frame oracle's generators.
    built.clear()
    with reference_frame_streams():
        assert execute_spec(spec, quality=True).quality == outcome.quality
    assert len(built) >= 300
