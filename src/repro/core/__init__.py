"""System core: the adaptive detection system (paper Fig. 6 + control loop).

The pixel stage (:mod:`repro.core.functional`) loads on first use of one of
its names, so importing the timing-only system does not import the
detection pipelines, HOG features or classifiers.
"""

from typing import TYPE_CHECKING, Any

from repro.core.spec import (
    CHAOS_MODES,
    TRACE_FACTORIES,
    DriveSpec,
    derive_drive_seed,
    frame_core_bytes,
    frame_core_dict,
    frames_digest,
)
from repro.core.system import (
    MODEL_FOR_CONDITION,
    AdaptiveDetectionSystem,
    DegradationPolicy,
    DriveReport,
    FrameRecord,
    SystemConfig,
    run_drive_spec,
)

if TYPE_CHECKING:
    from repro.core.functional import (
        AdaptiveVehicleDetector,
        FrameResult,
        FunctionalConfig,
    )

_FUNCTIONAL = frozenset({"AdaptiveVehicleDetector", "FrameResult", "FunctionalConfig"})


def __getattr__(name: str) -> Any:
    if name in _FUNCTIONAL:
        from repro.core import functional

        return getattr(functional, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AdaptiveDetectionSystem",
    "AdaptiveVehicleDetector",
    "CHAOS_MODES",
    "DegradationPolicy",
    "DriveSpec",
    "FrameResult",
    "FunctionalConfig",
    "DriveReport",
    "FrameRecord",
    "MODEL_FOR_CONDITION",
    "SystemConfig",
    "TRACE_FACTORIES",
    "derive_drive_seed",
    "frame_core_bytes",
    "frame_core_dict",
    "frames_digest",
    "run_drive_spec",
]
