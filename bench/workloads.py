"""The four workloads: the inputs they render, and the loops that time them.

Pixel workloads feed rendered frames through the two partitions, one frame
in flight: the vehicle side through ``AdaptiveVehicleDetector.process``
(controller, switch plan, blind window, active pipeline) and the static
side through ``PedestrianDetector.detect``.  ``fleet_sim`` runs sim-only
drives inline through ``execute_spec`` and folds them with
``build_rollup``.  Every input comes from the run's seed; generating it is
never timed.
"""

from __future__ import annotations

import hashlib
import math
import traceback
from dataclasses import dataclass
from typing import Callable

import numpy as np

from bench.layers import RESIDUAL, Tracing
from bench.speed import event_reference_s, frame_reference_s
from repro.adaptive.controller import ControllerConfig
from repro.adaptive.policy import SwitchKind, plan_switch
from repro.adaptive.sensor import LightSensor, LuxTrace, sunset_trace
from repro.core.functional import AdaptiveVehicleDetector, FunctionalConfig
from repro.core.spec import DriveSpec, derive_drive_seed, frames_digest
from repro.core.system import run_drive_spec
from repro.datasets.lighting import LightingCondition, condition_for_lux, sample_lighting
from repro.datasets.scene import SceneConfig, SceneFrame, render_scene
from repro.datasets.synthetic import make_pedestrian_frames
from repro.experiments.common import build_corpora
from repro.faults.scenarios import SCENARIOS
from repro.fleet.rollup import build_rollup, validate_rollup
from repro.fleet.worker import execute_spec
from repro.imaging.geometry import match_detections
from repro.pipelines.base import Detection
from repro.pipelines.dark import DarkVehicleDetector
from repro.pipelines.day_dusk import DayDuskConfig, train_condition_models
from repro.pipelines.pedestrian import PedestrianDetector
from repro.rng import derive_seed, make_rng

#: Frame size: a ninth of the paper's 1080x1920.
HEIGHT, WIDTH = 360, 640
#: The sim clock frames are stamped on (the paper's 50 fps).
FPS = 50.0
#: Leading frames (or drives) processed before timing starts.
WARMUP_ITEMS = 10
#: Measured items per block a traced run alternates between traced and
#: bare.  Four consecutive fleet drives from an aligned start hold each
#: trace once and one fault, so every fleet block does the same kind of work.
TRACE_BLOCK = 4
#: Seeded scenes rendered per lighting condition a workload uses.
POOL_SIZE = 12
#: Sensor-noise fields per run; each frame adds one, scaled by its own
#: seeded exposure gain, so no two frames are byte-identical.
NOISE_FIELDS = 8
NOISE_SIGMA = 0.01
#: Match IoU for recall and precision (as in experiments/adaptive_gain).
MATCH_IOU = 0.25
#: A pixel run whose vehicle recall falls below this floor is incorrect:
#: the detectors stopped finding vehicles at all.
RECALL_FLOOR = 0.2

#: Vehicle width as a fraction of the frame, (far, near).  adaptive_gain
#: renders 330 px wide frames; these fills give the same pixel sizes at 640.
VEHICLE_FILL = {
    LightingCondition.DAY: (0.26 * 330 / WIDTH, 0.31 * 330 / WIDTH),
    LightingCondition.DUSK: (0.26 * 330 / WIDTH, 0.31 * 330 / WIDTH),
    LightingCondition.DARK: (0.11 * 330 / WIDTH, 0.17 * 330 / WIDTH),
}

#: A compressed drive (a sunset in a few seconds) would otherwise hit the
#: controller's 2 s dwell between every switch; 0.5 s keeps the switch
#: sequence of the full-length drive.
CONTROLLER = ControllerConfig(min_dwell_s=0.5)

#: Fleet drives: 6 s of sim time (300 frames) each.
DRIVE_S = 6.0
FLEET_TRACES = ("sunset", "tunnel", "urban", "flicker")
#: Drives kept apart for the digest cross-check against run_drive_spec.
DIGEST_CHECKED_DRIVES = 2


@dataclass(frozen=True)
class FrameInput:
    """One frame of a pixel workload, before rendering."""

    time_s: float
    lux: float  # what the light sensor reports to the controller
    condition: LightingCondition  # ground truth, from the true lux
    scene: int  # index into the condition's scene pool
    noise: int  # index into the run's noise fields
    gain: float  # exposure gain jitter


@dataclass(frozen=True)
class Workload:
    """One named workload (BENCHMARK.json says why each exists).

    ``items_per_s`` sizes a run: a run of S seconds times
    ``round(items_per_s * S)`` items (frames or drives), chosen so a run
    takes about S seconds on a 2-core Xeon box.
    """

    name: str
    items_per_s: float
    #: Modules a cold start imports; timed as part of set-up.
    modules: tuple[str, ...]
    #: The reference kernel that gauges machine speed beside this workload.
    reference: Callable[[], float] = frame_reference_s
    initial: LightingCondition = LightingCondition.DAY
    #: (n_frames, seed, rng) -> [(time_s, sensor lux, true lux)]
    lux: Callable[[int, int, np.random.Generator], list[tuple[float, float, float]]] | None = None
    #: condition -> SceneConfig keyword arguments (seed excluded).
    scene: Callable[[LightingCondition, np.random.Generator], dict] | None = None

    @property
    def pixel(self) -> bool:
        return self.lux is not None

    def n_items(self, seconds: float) -> int:
        return max(1, round(self.items_per_s * seconds))


def _trace_lux(factory: Callable[..., LuxTrace]):
    def lux(n: int, seed: int, rng: np.random.Generator) -> list[tuple[float, float, float]]:
        trace = factory(duration_s=n / FPS)
        sensor = LightSensor(trace, noise_rel=0.03, seed=derive_seed(seed, "sensor"))
        return [(i / FPS, sensor.read(i / FPS), trace.lux_at(i / FPS)) for i in range(n)]

    return lux


def urban_switching_trace(duration_s: float) -> LuxTrace:
    """Dark side streets (0.8 lux) broken by two lit dusk stretches (25 lux).

    The levels are urban_evening_trace's.  About 62% of frames are dark,
    so the median frame is a dark one and the 90th percentile a dusk one,
    whatever the seed; an even split would put the median between the two
    pipelines' costs and make it jump from seed to seed.
    """
    knots = (
        (0.0, 0.8), (0.22, 0.8), (0.25, 25.0), (0.41, 25.0), (0.44, 0.8),
        (0.64, 0.8), (0.67, 25.0), (0.83, 25.0), (0.86, 0.8), (1.0, 0.8),
    )  # fmt: skip
    return LuxTrace(points=tuple((fraction * duration_s, lux) for fraction, lux in knots))


def _night_lux(n: int, seed: int, rng: np.random.Generator) -> list[tuple[float, float, float]]:
    out = []
    for i in range(n):
        lux = float(rng.uniform(0.6, 0.9))
        out.append((i / FPS, lux, lux))
    return out


def _road_scene(condition: LightingCondition, rng: np.random.Generator) -> dict:
    return {
        "n_vehicles": int(rng.integers(1, 3)),
        "n_pedestrians": 1,
        "n_oncoming": 0 if condition is LightingCondition.DAY else 1,
        "vehicle_fill": VEHICLE_FILL[condition],
    }


def _night_scene(condition: LightingCondition, rng: np.random.Generator) -> dict:
    return {
        "n_vehicles": int(rng.integers(2, 4)),
        "n_pedestrians": 1,
        "n_oncoming": 2,
        "vehicle_fill": VEHICLE_FILL[condition],
        "wet_road_probability": 1.0,
    }


_PIXEL_MODULES = (
    "repro.core.functional",
    "repro.pipelines.pedestrian",
    "repro.experiments.common",
    "repro.datasets.synthetic",
)

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "sunset_drive",
            items_per_s=12.0,
            modules=_PIXEL_MODULES,
            lux=_trace_lux(sunset_trace),
            scene=_road_scene,
        ),
        Workload(
            "night_traffic",
            items_per_s=24.0,
            modules=_PIXEL_MODULES,
            initial=LightingCondition.DARK,
            lux=_night_lux,
            scene=_night_scene,
        ),
        Workload(
            "urban_switching",
            items_per_s=15.0,
            modules=_PIXEL_MODULES,
            initial=LightingCondition.DARK,
            lux=_trace_lux(urban_switching_trace),
            scene=_road_scene,
        ),
        Workload(
            "fleet_sim",
            items_per_s=12.0,
            modules=(
                "repro.fleet.worker",
                "repro.fleet.rollup",
                "repro.quality.observer",
                "repro.core.system",
            ),
            reference=event_reference_s,
        ),
    )
}


@dataclass
class RunResult:
    """What one timed run of a workload produced."""

    item_s: list[float]  # wall time of every measured item
    reference_s: list[float]  # the reference kernel, run after every measured item
    extra_s: float  # measured time outside the items (the fleet rollup)
    setup_s: list[float]  # in-process set-up repetitions
    attempted: int
    failed: int
    checks: dict[str, bool]
    detections_digest: str
    input_digest: str
    stats: dict[str, float]


# Pixel workloads --------------------------------------------------------------


def frame_inputs(workload: Workload, seed: int, n: int) -> list[FrameInput]:
    """The frame schedule of a pixel run: lux, condition and rendering picks."""
    rng = make_rng(derive_seed(seed, f"{workload.name}:frames"))
    frames = []
    for time_s, lux, true_lux in workload.lux(n, seed, rng):  # type: ignore[misc]
        frames.append(
            FrameInput(
                time_s=time_s,
                lux=lux,
                condition=condition_for_lux(true_lux),
                scene=int(rng.integers(POOL_SIZE)),
                noise=int(rng.integers(NOISE_FIELDS)),
                gain=float(1.0 + rng.normal(0.0, 0.01)),
            )
        )
    return frames


def render_pools(workload: Workload, seed: int, frames: list[FrameInput]) -> dict:
    """POOL_SIZE seeded scenes for every condition the schedule visits."""
    rng = make_rng(derive_seed(seed, f"{workload.name}:scenes"))
    pools: dict[LightingCondition, list[SceneFrame]] = {}
    for condition in LightingCondition:
        if any(f.condition is condition for f in frames):
            pools[condition] = [
                render_scene(
                    SceneConfig(
                        height=HEIGHT,
                        width=WIDTH,
                        seed=int(rng.integers(0, 2**31)),
                        **workload.scene(condition, rng),  # type: ignore[misc]
                    ),
                    sample_lighting(condition, rng),
                )
                for _ in range(POOL_SIZE)
            ]
    return pools


def noise_fields(seed: int) -> list[np.ndarray]:
    rng = make_rng(derive_seed(seed, "sensor-noise"))
    return [rng.normal(0.0, NOISE_SIGMA, (HEIGHT, WIDTH, 3)) for _ in range(NOISE_FIELDS)]


def compose(frame: FrameInput, pools: dict, noise: list[np.ndarray]) -> tuple[SceneFrame, np.ndarray]:
    scene = pools[frame.condition][frame.scene]
    rgb = scene.rgb * frame.gain + noise[frame.noise]
    np.clip(rgb, 0.0, 1.0, out=rgb)
    return scene, rgb


def pixel_input_digest(frames: list[FrameInput], pools: dict, noise: list[np.ndarray]) -> str:
    """SHA-256 over everything a pixel run's frames are composed from."""
    digest = hashlib.sha256(repr(frames).encode())
    for array in [scene.rgb for pool in pools.values() for scene in pool] + noise:
        digest.update(array)
    return digest.hexdigest()


def build_detectors(initial: LightingCondition) -> tuple[AdaptiveVehicleDetector, PedestrianDetector]:
    """One cold set-up: what ``corpora_and_models(0.3, 0)`` and
    ``trained_dark_detector()`` do uncached, pedestrian training, and
    detector construction."""
    corpora = build_corpora(scale=0.3, seed=0)
    models = train_condition_models(corpora.day_train, corpora.dusk_train)
    dark = DarkVehicleDetector()
    dark.train(seed=11)
    pedestrian = PedestrianDetector()
    pedestrian.train_from_frames(
        make_pedestrian_frames(n_frames=8, height=180, width=320, seed=41), seed=42
    )
    vehicle = AdaptiveVehicleDetector(
        models,
        dark,
        config=FunctionalConfig(controller=CONTROLLER, multiscale=True),
        # Dense scanning wants a positive margin, as in adaptive_gain.
        day_dusk_config=DayDuskConfig(decision_threshold=1.0),
        initial=initial,
    )
    return vehicle, pedestrian


def detection_valid(detection: Detection) -> bool:
    """A finite score and a non-empty rect inside the frame."""
    r = detection.rect
    return (
        math.isfinite(detection.score)
        and r.w > 0
        and r.h > 0
        and r.x >= 0
        and r.y >= 0
        and r.x + r.w <= WIDTH
        and r.y + r.h <= HEIGHT
    )


class _Tally:
    """Greedy-IoU confusion counts of one detection kind."""

    def __init__(self) -> None:
        self.tp = self.fp = self.fn = 0

    def add(self, truths, detections: list[Detection]) -> None:
        matches, missed, spurious = match_detections(
            truths, [d.rect for d in detections], iou_threshold=MATCH_IOU
        )
        self.tp += len(matches)
        self.fn += len(missed)
        self.fp += len(spurious)

    @property
    def recall(self) -> float:
        return self.tp / (self.tp + self.fn) if self.tp + self.fn else 0.0

    @property
    def precision(self) -> float:
        return self.tp / (self.tp + self.fp) if self.tp + self.fp else 0.0


def _detections_key(index: int, result, pedestrians: list[Detection]) -> bytes:
    dets = [
        (d.kind, d.rect.x, d.rect.y, d.rect.w, d.rect.h, d.score)
        for d in list(result.detections) + pedestrians
    ]
    return repr((index, result.condition.value, result.reconfiguring, dets)).encode()


def run_pixel(
    workload: Workload, seed: int, seconds: float, setup_reps: int, tracing: Tracing
) -> RunResult:
    n = workload.n_items(seconds)
    frames = frame_inputs(workload, seed, WARMUP_ITEMS + n)
    pools = render_pools(workload, seed, frames)
    noise = noise_fields(seed)
    recorder = tracing.recorder

    setup_s = []
    for _ in range(setup_reps):
        tracing.begin("setup")
        recorder.enter("setup")
        vehicle, pedestrian = build_detectors(workload.initial)
        setup_s.append(recorder.exit())

    vehicles, walkers = _Tally(), _Tally()
    digest = hashlib.sha256()
    item_s: list[float] = []
    reference_s: list[float] = []
    failed = 0
    valid = True
    for index, frame in enumerate(frames):
        scene, rgb = compose(frame, pools, noise)
        measured = index >= WARMUP_ITEMS
        if measured:
            tracing.item(index - WARMUP_ITEMS)
        else:
            tracing.begin("warmup")
        recorder.enter("frame")
        try:
            result = vehicle.process(frame.time_s, frame.lux, rgb)
            pedestrians = pedestrian.detect(rgb)
        except Exception:  # noqa: BLE001 - a raising frame is counted, not fatal
            traceback.print_exc()
            result = None
        finally:
            elapsed = recorder.exit(RESIDUAL)
        recorder.phase = None
        if not measured:
            continue
        item_s.append(elapsed)
        reference_s.append(workload.reference())
        if result is None or result.degraded:
            failed += 1
            continue
        valid = valid and all(detection_valid(d) for d in list(result.detections) + pedestrians)
        vehicles.add(scene.vehicle_boxes, result.detections)
        walkers.add(scene.pedestrian_boxes, pedestrians)
        digest.update(_detections_key(index, result, pedestrians))

    partial = sum(
        1
        for change in vehicle.controller.history
        if plan_switch(change.previous, change.new).kind is SwitchKind.PARTIAL_RECONFIG
    )
    blind = sum(1 for r in vehicle.results if r.reconfiguring)
    return RunResult(
        item_s=item_s,
        reference_s=reference_s,
        extra_s=0.0,
        setup_s=setup_s,
        attempted=n,
        failed=failed,
        checks={
            "detections_finite_and_in_frame": valid,
            f"vehicle_recall_at_least_{RECALL_FLOOR}": vehicles.recall >= RECALL_FLOOR,
        },
        detections_digest=digest.hexdigest(),
        input_digest=pixel_input_digest(frames, pools, noise),
        stats={
            "quality.vehicle_recall": vehicles.recall,
            "quality.vehicle_precision": vehicles.precision,
            "quality.pedestrian_recall": walkers.recall,
            "adaptive.partial_reconfigs": float(partial),
            "adaptive.blind_frames_per_switch": blind / partial if partial else 0.0,
        },
    )


# Fleet workload ---------------------------------------------------------------


def fleet_specs(seed: int, n: int, prefix: str = "drive") -> list[DriveSpec]:
    """n sim-only drives: traces cycle, every 4th carries a canned fault."""
    scenarios = sorted(SCENARIOS)
    return [
        DriveSpec(
            name=f"{prefix}-{i:04d}",
            trace=FLEET_TRACES[(i + i // 4) % len(FLEET_TRACES)],
            duration_s=DRIVE_S,
            seed=derive_drive_seed(seed, i, prefix),
            fault_scenario=scenarios[(i // 4) % len(scenarios)] if i % 4 == 3 else None,
        )
        for i in range(n)
    ]


def fleet_input_digest(specs: list[DriveSpec]) -> str:
    return hashlib.sha256(repr([s.to_dict() for s in specs]).encode()).hexdigest()


def _execute(spec: DriveSpec):
    return execute_spec(spec, monitored=True, record_latency=True, quality=True)


def run_fleet(workload: Workload, seed: int, seconds: float, tracing: Tracing) -> RunResult:
    n = workload.n_items(seconds)
    specs = fleet_specs(seed, n)
    warmup = fleet_specs(seed, WARMUP_ITEMS, prefix="warmup")
    recorder = tracing.recorder

    tracing.begin("warmup")
    for spec in warmup:
        _execute(spec)
    outcomes = []
    item_s = []
    reference_s = []
    for index, spec in enumerate(specs):
        tracing.item(index)
        recorder.enter("drive")
        try:
            outcomes.append(_execute(spec))
        finally:
            item_s.append(recorder.exit(RESIDUAL))
        recorder.phase = None
        reference_s.append(workload.reference())
    tracing.begin("measure")
    recorder.enter("rollup")
    rollup = build_rollup(outcomes)
    extra_s = recorder.exit(RESIDUAL)
    recorder.phase = None

    validate_rollup(rollup)
    failed = sum(1 for o in outcomes if o.status != "ok")
    plain = [frames_digest(run_drive_spec(spec).frames) for spec in specs[:DIGEST_CHECKED_DRIVES]]
    expected_frames = round(DRIVE_S * specs[0].fps)
    digest = hashlib.sha256("\n".join(o.frames_digest or "" for o in outcomes).encode())
    quality = rollup["quality"]["overall"]
    reconfigs = sum(o.summary.get("reconfigurations", 0) for o in outcomes)
    clean = [o.summary for o, spec in zip(outcomes, specs) if spec.fault_scenario is None]
    clean_reconfigs = sum(s.get("reconfigurations", 0) for s in clean)
    clean_dropped = sum(s.get("vehicle_dropped", 0) for s in clean)
    return RunResult(
        item_s=item_s,
        reference_s=reference_s,
        extra_s=extra_s,
        setup_s=[],
        attempted=n,
        failed=failed,
        checks={
            "planes_on_digest_equals_plain_run_drive_spec": plain
            == [o.frames_digest for o in outcomes[:DIGEST_CHECKED_DRIVES]],
            "every_drive_ran_every_frame": all(
                o.summary.get("frames") == expected_frames for o in outcomes if o.status == "ok"
            ),
            "rollup_counts_every_drive": rollup["fleet"]["drives"] == n,
        },
        detections_digest=digest.hexdigest(),
        input_digest=fleet_input_digest(specs),
        stats={
            "quality.vehicle_recall": float(quality["recall"]),
            "quality.vehicle_precision": float(quality["precision"]),
            "quality.pedestrian_recall": 0.0,
            "adaptive.partial_reconfigs": float(reconfigs),
            # Fault-free drives only: injected faults drop frames too.
            "adaptive.blind_frames_per_switch": clean_dropped / clean_reconfigs
            if clean_reconfigs
            else 0.0,
        },
    )


def shape_checks(name: str, traced: dict) -> dict[str, bool]:
    """What the traced profile of each workload must look like.

    These check the benchmark's design (each workload stresses the layers
    it exists for), not the system's outputs, so they are not part of
    ``correct``.
    """
    layers, share = traced["per_layer"], traced["pipeline_share"]
    if name == "sunset_drive":
        return {
            "vehicle_hog_at_least_50%": share["pipelines.day_dusk"] >= 0.5,
            "dark_at_most_10%": share["pipelines.dark"] <= 0.10,
        }
    if name == "night_traffic":
        return {
            "no_detect_multiscale_calls": layers["pipelines.day_dusk.calls"] == 0,
            "dark_at_least_30%": share["pipelines.dark"] >= 0.30,
        }
    if name == "urban_switching":
        return {"at_least_3_partial_reconfigs": layers["adaptive.partial_reconfigs"] >= 3}
    return {
        "no_pixel_layer_calls": all(
            value == 0
            for key, value in layers.items()
            if key.split(".")[0] in ("features", "pipelines") and key.endswith(".calls")
        )
    }
