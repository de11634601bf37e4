"""Synthetic dataset substrate: procedural stand-ins for UPM / SYSU / iROADS.

The lighting definitions load with the package; the renderers and corpus
builders load on first use of one of their names, so code that only needs
:class:`LightingCondition` (the controller, the timing-only drive loop)
does not import the scene renderer.
"""

import importlib
from typing import TYPE_CHECKING, Any

from repro.datasets.lighting import (
    DARK_LIGHTING,
    DARK_LUX_UPPER,
    DAY_LIGHTING,
    DUSK_LIGHTING,
    DUSK_LUX_UPPER,
    LightingCondition,
    LightingModel,
    condition_for_lux,
    lighting_for_condition,
)

if TYPE_CHECKING:
    from repro.datasets.pedestrians import (
        PedestrianSpec,
        PedestrianSprite,
        random_pedestrian_spec,
        render_pedestrian,
    )
    from repro.datasets.samples import (
        ClassificationDataset,
        DetectionDataset,
        extract_window_samples,
    )
    from repro.datasets.scene import (
        SceneConfig,
        SceneFrame,
        SceneObject,
        apply_sensor_model,
        render_background,
        render_condition_scene,
        render_negative_crop,
        render_scene,
        render_vehicle_crop,
    )
    from repro.datasets.synthetic import (
        SYSU_TEST_NEG,
        SYSU_TEST_POS,
        SYSU_TEST_VERY_DARK_POS,
        TAILLIGHT_CLASS_LARGE,
        TAILLIGHT_CLASS_MEDIUM,
        TAILLIGHT_CLASS_NAMES,
        TAILLIGHT_CLASS_NONE,
        TAILLIGHT_CLASS_SMALL,
        UPM_TEST_NEG,
        UPM_TEST_POS,
        make_dark_crops,
        make_iroads_like,
        make_pedestrian_frames,
        make_sysu_like,
        make_taillight_windows,
        make_upm_like,
    )
    from repro.datasets.vehicles import (
        VehicleSpec,
        VehicleSprite,
        random_vehicle_spec,
        render_headlight_pair,
        render_vehicle,
    )

#: Name -> the submodule defining it, for the names loaded on first use.
_LAZY = {
    "PedestrianSpec": "pedestrians",
    "PedestrianSprite": "pedestrians",
    "random_pedestrian_spec": "pedestrians",
    "render_pedestrian": "pedestrians",
    "ClassificationDataset": "samples",
    "DetectionDataset": "samples",
    "extract_window_samples": "samples",
    "SceneConfig": "scene",
    "SceneFrame": "scene",
    "SceneObject": "scene",
    "apply_sensor_model": "scene",
    "render_background": "scene",
    "render_condition_scene": "scene",
    "render_negative_crop": "scene",
    "render_scene": "scene",
    "render_vehicle_crop": "scene",
    "SYSU_TEST_NEG": "synthetic",
    "SYSU_TEST_POS": "synthetic",
    "SYSU_TEST_VERY_DARK_POS": "synthetic",
    "TAILLIGHT_CLASS_LARGE": "synthetic",
    "TAILLIGHT_CLASS_MEDIUM": "synthetic",
    "TAILLIGHT_CLASS_NAMES": "synthetic",
    "TAILLIGHT_CLASS_NONE": "synthetic",
    "TAILLIGHT_CLASS_SMALL": "synthetic",
    "UPM_TEST_NEG": "synthetic",
    "UPM_TEST_POS": "synthetic",
    "make_dark_crops": "synthetic",
    "make_iroads_like": "synthetic",
    "make_pedestrian_frames": "synthetic",
    "make_sysu_like": "synthetic",
    "make_taillight_windows": "synthetic",
    "make_upm_like": "synthetic",
    "VehicleSpec": "vehicles",
    "VehicleSprite": "vehicles",
    "random_vehicle_spec": "vehicles",
    "render_headlight_pair": "vehicles",
    "render_vehicle": "vehicles",
}


def __getattr__(name: str) -> Any:
    submodule = _LAZY.get(name)
    if submodule is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{submodule}")
    return getattr(module, name)


__all__ = [
    "ClassificationDataset",
    "DARK_LIGHTING",
    "DARK_LUX_UPPER",
    "DAY_LIGHTING",
    "DUSK_LIGHTING",
    "DUSK_LUX_UPPER",
    "DetectionDataset",
    "LightingCondition",
    "LightingModel",
    "PedestrianSpec",
    "PedestrianSprite",
    "SYSU_TEST_NEG",
    "SYSU_TEST_POS",
    "SYSU_TEST_VERY_DARK_POS",
    "SceneConfig",
    "SceneFrame",
    "SceneObject",
    "TAILLIGHT_CLASS_LARGE",
    "TAILLIGHT_CLASS_MEDIUM",
    "TAILLIGHT_CLASS_NAMES",
    "TAILLIGHT_CLASS_NONE",
    "TAILLIGHT_CLASS_SMALL",
    "UPM_TEST_NEG",
    "UPM_TEST_POS",
    "VehicleSpec",
    "VehicleSprite",
    "apply_sensor_model",
    "condition_for_lux",
    "extract_window_samples",
    "lighting_for_condition",
    "make_dark_crops",
    "make_iroads_like",
    "make_pedestrian_frames",
    "make_sysu_like",
    "make_taillight_windows",
    "make_upm_like",
    "random_pedestrian_spec",
    "random_vehicle_spec",
    "render_background",
    "render_condition_scene",
    "render_headlight_pair",
    "render_negative_crop",
    "render_pedestrian",
    "render_scene",
    "render_vehicle",
    "render_vehicle_crop",
]
