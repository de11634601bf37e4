"""Plain-data drive specifications: the picklable unit of fleet work.

A :class:`DriveSpec` names everything one simulated drive needs — a lux
trace, a duration, a fault scenario, a frame clock, sensor noise — as
*plain data* (strings, numbers, ``None``).  No live sensor, controller, or
SoC object is required up front: the spec crosses process boundaries as a
dict and the receiving side materialises the simulation from it.  All
randomness in the resulting drive flows from :attr:`DriveSpec.seed`
through :func:`repro.rng.derive_seed`, so two executions of the same spec
— in-process, in another process, on another day — produce byte-identical
frame cores (pinned by the fleet non-perturbation tests).

The module also owns the canonical *frame core* encoding: the
deterministic subset of a :class:`~repro.core.system.FrameRecord` (no
telemetry span ids, no wall-clock values) serialised as sorted-key JSON,
and :func:`frames_digest`, the SHA-256 chain over a drive's frame cores
that the fleet uses to byte-compare drives without shipping every frame.
It also declares, once, the field names no byte comparison may see
(:data:`WALL_KEYS` and :data:`PLANE_KEYS`): the fleet's deterministic
views strip them and the determinism-taint lint rule launders them.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Any, Iterable, Mapping

from repro.adaptive.sensor import (
    LightSensor,
    LuxTrace,
    flicker_trace,
    sunset_trace,
    tunnel_trace,
    urban_evening_trace,
)
from repro.datasets.lighting import LightingCondition
from repro.errors import ConfigurationError
from repro.faults.plan import FaultPlan
from repro.rng import derive_seed

if TYPE_CHECKING:
    from repro.core.system import FrameRecord

#: Named lux-trace factories a spec may reference (all take ``duration_s``).
TRACE_FACTORIES = {
    "sunset": sunset_trace,
    "tunnel": tunnel_trace,
    "urban": urban_evening_trace,
    "flicker": flicker_trace,
}

#: Chaos hooks for worker-containment testing (see FLEET.md).  ``crash``
#: hard-exits the executing worker process; ``hang`` goes fully silent —
#: heartbeats stop, then the worker sleeps past any drive timeout;
#: ``slow`` keeps heartbeating while sleeping past the deadline, so the
#: scheduler can tell a wedged worker from a merely overloaded one.  All
#: are plain data, so a chaos drive is as shardable as a real one — the
#: scheduler must contain it, not crash with it.
CHAOS_MODES = ("crash", "hang", "slow")


def _scenario_names() -> tuple[str, ...]:
    from repro.faults.scenarios import SCENARIOS

    return tuple(sorted(SCENARIOS))


@dataclass(frozen=True)
class DriveSpec:
    """One deterministic drive, described entirely by plain picklable data.

    Attributes:
        name: Human-readable drive id (lands in outcomes and rollups).
        trace: Lux-trace name from :data:`TRACE_FACTORIES`.
        duration_s: Drive duration in simulated seconds.
        seed: Root seed; every stream in the drive derives from it via
            :func:`repro.rng.derive_seed` (the sensor uses the
            ``"sensor"`` label).
        fault_scenario: Canned scenario name from
            :data:`repro.faults.scenarios.SCENARIOS`, or ``None``.
        fps: Frame clock (the paper's 50 fps).
        initial_condition: Lighting condition at t=0 (enum value string).
        sensor_noise_rel: Relative sensor noise (the drive-loop default).
        sensor_dropout: Sensor sample dropout probability.
        chaos: ``None`` for a real drive, or one of :data:`CHAOS_MODES`
            for containment testing.
    """

    name: str = "drive"
    trace: str = "sunset"
    duration_s: float = 30.0
    seed: int = 0
    fault_scenario: str | None = None
    fps: float = 50.0
    initial_condition: str = LightingCondition.DAY.value
    sensor_noise_rel: float = 0.03
    sensor_dropout: float = 0.0
    chaos: str | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("drive spec needs a non-empty name")
        if self.trace not in TRACE_FACTORIES:
            raise ConfigurationError(
                f"unknown trace {self.trace!r} (known: {sorted(TRACE_FACTORIES)})"
            )
        if self.duration_s <= 0:
            raise ConfigurationError("drive duration_s must be positive")
        if self.fps <= 0:
            raise ConfigurationError("drive fps must be positive")
        if self.fault_scenario is not None and self.fault_scenario not in _scenario_names():
            raise ConfigurationError(
                f"unknown fault scenario {self.fault_scenario!r} "
                f"(canned: {list(_scenario_names())})"
            )
        values = [c.value for c in LightingCondition]
        if self.initial_condition not in values:
            raise ConfigurationError(
                f"unknown initial_condition {self.initial_condition!r} (one of {values})"
            )
        if self.sensor_noise_rel < 0:
            raise ConfigurationError("sensor_noise_rel must be >= 0")
        if not 0.0 <= self.sensor_dropout < 1.0:
            raise ConfigurationError("sensor_dropout must be in [0, 1)")
        if self.chaos is not None and self.chaos not in CHAOS_MODES:
            raise ConfigurationError(
                f"unknown chaos mode {self.chaos!r} (one of {CHAOS_MODES})"
            )

    # Derived streams ---------------------------------------------------------

    @property
    def sensor_seed(self) -> int:
        """The sensor's decorrelated stream seed (derived, never stored)."""
        return derive_seed(self.seed, "sensor")

    # Materialisation ---------------------------------------------------------

    def build_trace(self) -> LuxTrace:
        """The lux trace this spec names, at this spec's duration."""
        return TRACE_FACTORIES[self.trace](duration_s=self.duration_s)

    def build_fault_plan(self) -> FaultPlan | None:
        """A fresh (fully re-armed) fault plan, or ``None``."""
        if self.fault_scenario is None:
            return None
        from repro.faults.scenarios import get_scenario

        return get_scenario(self.fault_scenario, duration_s=self.duration_s)

    def build_sensor(self, trace: LuxTrace, fault_plan: FaultPlan | None) -> LightSensor:
        """The drive's light sensor, seeded from this spec's root seed."""
        return LightSensor(
            trace,
            noise_rel=self.sensor_noise_rel,
            dropout_probability=self.sensor_dropout,
            seed=self.sensor_seed,
            faults=fault_plan,
        )

    # Wire format -------------------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-dict form (the shape that crosses process boundaries)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "DriveSpec":
        """Rebuild a spec from :meth:`to_dict` output (extra keys rejected)."""
        fields = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - fields
        if unknown:
            raise ConfigurationError(
                f"unknown DriveSpec fields: {sorted(unknown)} (known: {sorted(fields)})"
            )
        return cls(**dict(data))


def derive_drive_seed(fleet_seed: int, index: int, prefix: str = "drive") -> int:
    """Per-drive root seed: fold the drive's fleet index into the fleet seed."""
    return derive_seed(fleet_seed, f"{prefix}:{index}")


# Canonical frame cores -------------------------------------------------------


def frame_core_dict(record: "FrameRecord") -> dict:
    """The deterministic core of one frame record.

    Everything sim-derived survives; the telemetry-only ``span_id`` (and
    anything wall-clock-valued) is excluded, so the core is identical for
    observed and unobserved drives — the same non-perturbation contract
    the telemetry and monitor layers pin.
    """
    return {
        "index": record.index,
        "time_s": record.time_s,
        "condition": record.condition.value,
        "lux": record.lux,
        "vehicle_accepted": record.vehicle_accepted,
        "pedestrian_accepted": record.pedestrian_accepted,
        "vehicle_configuration": record.vehicle_configuration,
        "reconfiguring": record.reconfiguring,
        "faults": list(record.faults),
        "degraded": record.degraded,
    }


def frame_core_bytes(record: "FrameRecord") -> bytes:
    """Canonical byte encoding of one frame core (sorted-key JSON)."""
    return json.dumps(frame_core_dict(record), sort_keys=True).encode("utf-8")


def frames_digest(frames: Iterable["FrameRecord"]) -> str:
    """SHA-256 over a drive's chained frame cores.

    The fleet's byte-identity comparator: two drives agree on every frame
    core if and only if their digests match, and the digest travels in a
    :class:`~repro.fleet.outcome.DriveOutcome` without shipping frames.
    """
    h = hashlib.sha256()
    for record in frames:
        h.update(frame_core_bytes(record))
        h.update(b"\n")
    return h.hexdigest()


# Non-deterministic fields ----------------------------------------------------

#: Names whose values are wall-clock or scheduling measurements: outcome
#: fields (``latency_ms``, ``wall_s``, ``worker_id`` and the liveness pair
#: ``hang_verdict``/``last_heartbeat_age_s``), the rollup's ``wall``
#: section, the wall-derived metric series, the status plane's fields and
#: the quality suite's ``suite_wall_s``.  Every deterministic view strips
#: them, and the determinism-taint lint rule launders a value stored
#: under one of them (``LintConfig.wall_strip_keys``).
WALL_KEYS = frozenset(
    {
        "latency_ms",
        "wall_s",
        "worker_id",
        "hang_verdict",
        "last_heartbeat_age_s",
        "wall",
        "frame_wall_ms",
        "stage_wall_ms",
        "frame_deadline_misses_total",
        "elapsed_s",
        "heartbeat_age_s",
        "drive_age_s",
        "drives_per_s",
        "beats",
        "suite_wall_s",
    }
)

#: Names that exist only when the quality plane is attached (its outcome
#: field, rollup section and metric series), or that record *how* a fleet
#: ran rather than what it computed (``config``, ``events_by_kind``).
#: Stripping them makes a view with the plane on byte-match the view with
#: it off — the non-perturbation contract.
PLANE_KEYS = frozenset(
    {
        "quality",
        "quality_frames_scored_total",
        "quality_tp_total",
        "quality_fp_total",
        "quality_fn_total",
        "detection_iou",
        "config",
        "events_by_kind",
    }
)

#: What ``deterministic_view``, ``deterministic_outcome_dict`` and
#: ``deterministic_metrics`` strip, at every level they inspect.
NONDETERMINISTIC_KEYS = WALL_KEYS | PLANE_KEYS
