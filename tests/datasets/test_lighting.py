"""Tests for repro.datasets.lighting: conditions, presets, samplers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.lighting import (
    DARK_LIGHTING,
    DARK_LUX_UPPER,
    DAY_LIGHTING,
    DUSK_LIGHTING,
    DUSK_LUX_UPPER,
    LightingCondition,
    condition_for_lux,
    lighting_for_condition,
    sample_dark_lighting,
    sample_day_lighting,
    sample_dusk_lighting,
    sample_lighting,
)
from repro.errors import DatasetError


class TestConditionMapping:
    def test_boundaries(self):
        assert condition_for_lux(DUSK_LUX_UPPER) is LightingCondition.DAY
        assert condition_for_lux(DUSK_LUX_UPPER - 1) is LightingCondition.DUSK
        assert condition_for_lux(DARK_LUX_UPPER) is LightingCondition.DUSK
        assert condition_for_lux(DARK_LUX_UPPER - 0.1) is LightingCondition.DARK

    def test_extremes(self):
        assert condition_for_lux(100_000) is LightingCondition.DAY
        assert condition_for_lux(0.0) is LightingCondition.DARK

    def test_rejects_negative(self):
        with pytest.raises(DatasetError):
            condition_for_lux(-1.0)


class TestPresets:
    def test_ambient_ordering(self):
        assert DAY_LIGHTING.ambient > DUSK_LIGHTING.ambient > DARK_LIGHTING.ambient

    def test_lights_off_during_day(self):
        assert not DAY_LIGHTING.taillights_on
        assert DUSK_LIGHTING.taillights_on and DARK_LIGHTING.taillights_on

    def test_noise_rises_in_darkness(self):
        assert DAY_LIGHTING.noise_sigma < DARK_LIGHTING.noise_sigma

    def test_preset_lookup(self):
        for condition in LightingCondition:
            assert lighting_for_condition(condition).condition is condition

    def test_model_validation(self):
        from repro.datasets.lighting import LightingModel

        with pytest.raises(DatasetError):
            LightingModel(
                condition=LightingCondition.DAY,
                ambient=-0.1,
                sky_brightness=0.5,
                headlights_on=False,
                taillights_on=False,
                taillight_intensity=0.0,
                road_lights=False,
                glow_scale=1.0,
                noise_sigma=0.01,
                contrast=1.0,
            )


class TestSamplers:
    def test_day_sampler_never_lights(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            model = sample_day_lighting(rng)
            assert not model.taillights_on
            assert model.condition is LightingCondition.DAY

    def test_dusk_sampler_spans_brightness(self):
        rng = np.random.default_rng(1)
        ambients = [sample_dusk_lighting(rng).ambient for _ in range(200)]
        assert max(ambients) - min(ambients) > 0.25

    def test_dusk_sampler_t_range(self):
        rng = np.random.default_rng(2)
        bright = [sample_dusk_lighting(rng, t_range=(0.9, 1.0)).ambient for _ in range(20)]
        dark = [sample_dusk_lighting(rng, t_range=(0.1, 0.2)).ambient for _ in range(20)]
        assert min(bright) > max(dark)

    def test_dusk_sampler_rejects_bad_range(self):
        rng = np.random.default_rng(3)
        with pytest.raises(DatasetError):
            sample_dusk_lighting(rng, t_range=(0.8, 0.2))

    def test_dark_sampler_is_dark(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            model = sample_dark_lighting(rng)
            assert model.ambient < 0.1
            assert model.taillights_on

    def test_sample_lighting_dispatch(self):
        rng = np.random.default_rng(5)
        for condition in LightingCondition:
            assert sample_lighting(condition, rng).condition is condition
