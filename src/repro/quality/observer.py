"""The quality observer: ground-truth scoring hooked into ``run_drive``.

The drive loop is a *hardware* model — it schedules DMA transfers and
partial reconfigurations, it never renders pixels — so runtime quality is
observed the same way the paper's Table I was measured: against a seeded
ground-truth scene model.  :class:`ModelQualityObserver` generates each
sampled frame's ground-truth vehicle boxes from a deterministic
scene-geometry model (the :mod:`repro.datasets.scene` placement math,
minus the pixels), synthesises what the *active* pipeline would detect —
conditioned on the frame's real state: a dropped frame or reconfiguring
partition detects nothing, a configuration serving the wrong lighting
condition detects at the paper's cross-condition recall, a matched
configuration at its Table-I recall — and scores the two box sets with
the real greedy IoU matcher (:func:`repro.imaging.geometry.match_detections`).

Every random draw flows from ``derive_seed(seed, "frame:<index>")``, so
records are a pure function of (seed, config, frame state): byte-stable
across runs, platforms, and fleet sharding.  A drive's streams are
seeded in one batch at ``begin_drive`` and replayed through one reused
generator, which draws exactly what a fresh ``make_rng`` per frame would.
Like ``NULL_TELEMETRY`` and ``NULL_MONITOR``, the default observer is
:data:`NULL_QUALITY` — a shared no-op behind one ``enabled`` attribute
check, so an unobserved drive is byte-identical to one built before the
quality plane existed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.adaptive.policy import CONFIG_FOR_CONDITION
from repro.datasets.lighting import condition_for_lux
from repro.errors import QualityError
from repro.imaging.geometry import Rect, match_detections
from repro.quality.events import check_quality_event_kind
from repro.quality.records import QualityRecord, fold_records
from repro.rng import derive_seed, make_rng, reset_rng, start_states

if TYPE_CHECKING:
    import numpy as np

    from repro.adaptive.sensor import LuxTrace
    from repro.core.spec import DriveSpec
    from repro.core.system import FrameRecord

#: IoU above which a modelled detection counts as localising its truth box.
MATCH_IOU_THRESHOLD = 0.5

#: Lateral lane offsets of a ground-truth vehicle, as a fraction of the
#: frame width at the near edge of the road.
LANES = (-0.13, 0.0, 0.13)

#: Buckets for the ``detection_iou`` histogram: all matched IoUs land in
#: [MATCH_IOU_THRESHOLD, 1], so the buckets resolve that band.
DETECTION_IOU_BUCKETS = (0.5, 0.6, 0.7, 0.8, 0.9, 0.95)


@dataclass(frozen=True)
class QualityModelConfig:
    """Knobs of the ground-truth scene/detector model.

    The recall/false-positive levels follow the paper's Table-I shape:
    high (0.95+) when the active configuration serves the scene's true
    condition, collapsed when it does not — the cross-condition rows the
    adaptation exists to avoid — with the dark pipeline slightly noisier
    than the day/dusk one.

    Attributes:
        sample_every: Score every Nth frame (1 = every frame).
        frame_w / frame_h: Modelled frame geometry (aspect only; boxes
            are matched in this space, never rendered).
        max_vehicles: Ground-truth vehicles per frame drawn from
            ``[0, max_vehicles]``.
        vehicle_fill: (far, near) vehicle width as a fraction of frame
            width — the :mod:`repro.datasets.scene` placement numbers.
        recall_day / recall_dusk / recall_dark: Per-true-condition detect
            probability with a matched configuration.
        recall_mismatched: Detect probability when the active
            configuration does not serve the true condition.
        fp_rate: Spurious-detection probability per candidate slot with a
            matched configuration.
        fp_rate_dark: Same, matched configuration in the dark (taillight
            reflections; see the scene model's distractors).
        fp_rate_mismatched: Same, mismatched configuration.
        jitter_rel: Localisation jitter of a hit, relative to box size.
    """

    sample_every: int = 1
    frame_w: float = 192.0
    frame_h: float = 108.0
    max_vehicles: int = 3
    vehicle_fill: tuple[float, float] = (0.08, 0.30)
    recall_day: float = 0.97
    recall_dusk: float = 0.95
    recall_dark: float = 0.94
    recall_mismatched: float = 0.22
    fp_rate: float = 0.02
    fp_rate_dark: float = 0.06
    fp_rate_mismatched: float = 0.25
    jitter_rel: float = 0.06

    def __post_init__(self) -> None:
        if self.sample_every < 1:
            raise QualityError(f"sample_every must be >= 1, got {self.sample_every}")
        if self.frame_w <= 0 or self.frame_h <= 0:
            raise QualityError("frame geometry must be positive")
        if self.max_vehicles < 0:
            raise QualityError(f"max_vehicles must be >= 0, got {self.max_vehicles}")
        far, near = self.vehicle_fill
        if not 0.0 < far <= near <= 0.5:
            raise QualityError(
                f"vehicle_fill must satisfy 0 < far <= near <= 0.5, got {self.vehicle_fill}"
            )
        rates = {
            "recall_day": self.recall_day,
            "recall_dusk": self.recall_dusk,
            "recall_dark": self.recall_dark,
            "recall_mismatched": self.recall_mismatched,
            "fp_rate": self.fp_rate,
            "fp_rate_dark": self.fp_rate_dark,
            "fp_rate_mismatched": self.fp_rate_mismatched,
        }
        for name, value in rates.items():
            if not 0.0 <= value <= 1.0:
                raise QualityError(f"{name} must be in [0, 1], got {value}")
        if self.jitter_rel < 0:
            raise QualityError(f"jitter_rel must be >= 0, got {self.jitter_rel}")

    def recall_for(self, true_condition: str, matched: bool) -> float:
        if not matched:
            return self.recall_mismatched
        return {
            "day": self.recall_day,
            "dusk": self.recall_dusk,
            "dark": self.recall_dark,
        }.get(true_condition, self.recall_mismatched)

    def fp_rate_for(self, true_condition: str, matched: bool) -> float:
        if not matched:
            return self.fp_rate_mismatched
        return self.fp_rate_dark if true_condition == "dark" else self.fp_rate

    def to_dict(self) -> dict:
        return {
            "sample_every": self.sample_every,
            "frame_w": self.frame_w,
            "frame_h": self.frame_h,
            "max_vehicles": self.max_vehicles,
            "vehicle_fill": list(self.vehicle_fill),
            "recall_day": self.recall_day,
            "recall_dusk": self.recall_dusk,
            "recall_dark": self.recall_dark,
            "recall_mismatched": self.recall_mismatched,
            "fp_rate": self.fp_rate,
            "fp_rate_dark": self.fp_rate_dark,
            "fp_rate_mismatched": self.fp_rate_mismatched,
            "jitter_rel": self.jitter_rel,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "QualityModelConfig":
        known = dict(data)
        fill = known.get("vehicle_fill")
        if fill is not None:
            known["vehicle_fill"] = tuple(fill)
        return cls(**known)


class NullQualityObserver:
    """The zero-cost default: a shared no-op with ``enabled = False``.

    The drive loop guards every quality call behind one attribute check,
    exactly like ``NULL_TELEMETRY`` and ``NULL_MONITOR`` — an unobserved
    drive allocates nothing and stays byte-identical to the pre-quality
    code (the non-perturbation contract pinned by the quality tests).
    """

    enabled = False

    def begin_drive(self, trace, duration_s, n_frames) -> None:
        pass

    def observe_frame(self, record, expected_configuration) -> None:
        return None

    def finish_drive(self) -> None:
        pass

    def summary(self) -> dict:
        return {}

    def provenance(self) -> dict:
        return {}


#: Module-level no-op observer shared by every unobserved drive.
NULL_QUALITY = NullQualityObserver()


class ModelQualityObserver:
    """Ground-truth-model quality scoring for one drive.

    A pure consumer of the drive: it reads each finished
    :class:`~repro.core.system.FrameRecord` (and the trace's true lux),
    never mutates simulation state, and draws from its own seeded RNG
    streams — attaching it cannot perturb a single frame core.
    """

    enabled = True

    def __init__(self, seed: int, config: QualityModelConfig | None = None):
        self.seed = seed
        self.config = config or QualityModelConfig()
        #: Per-frame records, in frame order (sampled frames only).
        self.records: list[QualityRecord] = []
        #: Typed quality events (vocabulary-checked at emit time).
        self.events: list[dict] = []
        self._trace: "LuxTrace | None" = None
        #: Frame index -> start state of its ``"frame:<index>"`` stream, for
        #: the attached drive's sampled frames.
        self._frame_states: dict[int, tuple[int, int]] = {}
        #: The one generator every frame's stream is replayed through.
        self._rng = make_rng(self.seed)
        #: :meth:`summary`'s fold of :attr:`records`; ``None`` once a record
        #: arrives after it was taken.
        self._summary: dict | None = None

    @classmethod
    def for_spec(
        cls, spec: "DriveSpec", config: QualityModelConfig | None = None
    ) -> "ModelQualityObserver":
        """The canonical observer for a drive spec: seed derived from the
        spec's seed under the ``"quality"`` label, so quality streams are
        decorrelated from the sensor/fault streams but equally reproducible."""
        return cls(derive_seed(spec.seed, "quality"), config=config)

    # Drive lifecycle ---------------------------------------------------------

    def begin_drive(self, trace: "LuxTrace", duration_s: float, n_frames: int) -> None:
        if self._trace is not None:
            raise QualityError(
                "quality observer is already attached to a drive; "
                "call finish_drive() first"
            )
        self._trace = trace
        self._summary = None
        frames = range(0, n_frames, self.config.sample_every)
        seeds = [derive_seed(self.seed, f"frame:{index}") for index in frames]
        self._frame_states = dict(zip(frames, start_states(seeds)))
        self.quality_event(
            "quality.drive.start",
            n_frames=n_frames,
            duration_s=duration_s,
            sample_every=self.config.sample_every,
        )

    def finish_drive(self) -> None:
        if self._trace is None:
            raise QualityError("finish_drive() before begin_drive()")
        self._trace = None
        summary = self.summary()
        self.quality_event(
            "quality.drive.summary",
            sampled_frames=summary["sampled_frames"],
            recall=summary["overall"]["recall"],
            precision=summary["overall"]["precision"],
        )

    # Scoring -----------------------------------------------------------------

    def observe_frame(
        self, record: "FrameRecord", expected_configuration: str
    ) -> QualityRecord | None:
        """Score one finished frame; returns ``None`` on unsampled frames."""
        if self._trace is None:
            raise QualityError("observe_frame() before begin_drive()")
        if record.index % self.config.sample_every:
            return None
        true_lux = self._trace.lux_at(record.time_s)
        true_condition = condition_for_lux(true_lux)
        required = CONFIG_FOR_CONDITION[true_condition].value
        matched = record.vehicle_configuration == required
        rng = self._frame_rng(record.index)
        truths = self._truth_boxes(rng)
        detections = self._detect(
            truths, rng, true_condition.value, matched, record
        )
        matches, unmatched_t, unmatched_d = match_detections(
            truths, detections, iou_threshold=MATCH_IOU_THRESHOLD
        )
        quality_record = QualityRecord(
            index=record.index,
            time_s=record.time_s,
            condition=record.condition.value,
            true_condition=true_condition.value,
            configuration=record.vehicle_configuration,
            matched=matched,
            tp=len(matches),
            fp=len(unmatched_d),
            fn=len(unmatched_t),
            matched_ious=tuple(
                _round6(truths[ti].iou(detections[di])) for ti, di in matches
            ),
            truths=len(truths),
            detections=len(detections),
        )
        self.records.append(quality_record)
        self._summary = None
        return quality_record

    def _frame_rng(self, index: int) -> "np.random.Generator":
        """The generator at the start of frame ``index``'s stream: what
        ``make_rng(derive_seed(seed, f"frame:{index}"))`` would return."""
        state = self._frame_states.get(index)
        if state is None:  # a frame past the drive's announced length
            state = start_states([derive_seed(self.seed, f"frame:{index}")])[0]
        return reset_rng(self._rng, state)

    def _truth_boxes(self, rng) -> list[Rect]:
        """Seeded ground-truth vehicle boxes (the scene placement model)."""
        cfg = self.config
        width, height = cfg.frame_w, cfg.frame_h
        horizon_y = height * 0.42
        fill_far, fill_near = cfg.vehicle_fill
        n_vehicles = int(rng.integers(0, cfg.max_vehicles + 1))
        boxes: list[Rect] = []
        for depth in sorted(rng.uniform(0.25, 1.0, size=n_vehicles).tolist()):
            vw = width * (fill_far + (fill_near - fill_far) * depth)
            vh = vw * 0.62
            road_y = horizon_y + (height - horizon_y) * (0.15 + 0.8 * depth)
            # The draw ``rng.choice(LANES)`` makes, without building an array.
            lane = LANES[int(rng.integers(len(LANES)))]
            center_x = width / 2.0 + lane * width * 2.2 * (1.0 - 0.5 * depth)
            boxes.append(Rect(center_x - vw / 2.0, road_y - vh, vw, vh))
        return boxes

    def _detect(
        self,
        truths: list[Rect],
        rng,
        true_condition: str,
        matched: bool,
        record: "FrameRecord",
    ) -> list[Rect]:
        """What the active pipeline would emit for this frame's state."""
        # A dropped or mid-reconfiguration frame produces no vehicle
        # detections at all: the partition's watchdog flushed the pipeline,
        # or the region is being reprogrammed.
        if not record.vehicle_accepted or record.reconfiguring:
            return []
        cfg = self.config
        recall = cfg.recall_for(true_condition, matched)
        fp_rate = cfg.fp_rate_for(true_condition, matched)
        detections: list[Rect] = []
        for truth in truths:
            if rng.random() >= recall:
                continue
            dx = rng.normal(0.0, cfg.jitter_rel * truth.w)
            dy = rng.normal(0.0, cfg.jitter_rel * truth.h)
            scale = max(0.5, 1.0 + rng.normal(0.0, cfg.jitter_rel))
            w = truth.w * scale
            h = truth.h * scale
            detections.append(
                Rect(truth.x + dx + (truth.w - w) / 2.0, truth.y + dy + (truth.h - h) / 2.0, w, h)
            )
        # Spurious candidates: taillight reflections, headlight glare —
        # two independent slots per frame, small boxes anywhere on the road.
        for _ in range(2):
            if rng.random() >= fp_rate:
                continue
            vw = cfg.frame_w * rng.uniform(*cfg.vehicle_fill)
            vh = vw * 0.62
            x = rng.uniform(0.0, cfg.frame_w - vw)
            y = rng.uniform(cfg.frame_h * 0.42, cfg.frame_h - vh)
            detections.append(Rect(x, y, vw, vh))
        return detections

    # Reporting ---------------------------------------------------------------

    def summary(self) -> dict:
        """The per-drive quality summary (a pure fold of the records).

        The fold is kept until the next record arrives, so the summary
        event of :meth:`finish_drive` and the caller reading the summary
        after it share one fold.  The dict is that shared fold: callers
        must not mutate it.
        """
        if self._summary is None:
            self._summary = fold_records(self.records)
        return self._summary

    def provenance(self) -> dict:
        """Everything needed to rebuild this observer for incident replay."""
        return {"kind": "model", "seed": self.seed, "config": self.config.to_dict()}

    def quality_event(self, kind: str, **attrs: Any) -> None:
        """One typed quality event; ``kind`` must be in the declared vocabulary.

        Mirrors ``Trace.emit`` / ``Monitor.emit_event``: runtime validation
        here, static validation by the ``event-vocabulary`` lint rule.
        """
        check_quality_event_kind(kind)
        self.events.append({"kind": kind, **attrs})


def _round6(value: float) -> float:
    """``value`` to six decimals the way numpy rounds: scale, round half to
    even, unscale.  Python's ``round(value, 6)`` rounds the exact decimal
    value instead and differs from it on near-ties."""
    return round(value * 1e6) / 1e6


def observer_from_provenance(data: dict) -> ModelQualityObserver:
    """Rebuild an observer from :meth:`ModelQualityObserver.provenance`.

    Used by incident replay: a bundle whose drive ran with the quality
    plane attached must reattach an identical observer, or the replayed
    health walk (and therefore the trigger window) would not reproduce.
    """
    kind = data.get("kind")
    if kind != "model":
        raise QualityError(f"unknown quality observer kind {kind!r} (want 'model')")
    return ModelQualityObserver(
        int(data["seed"]),
        config=QualityModelConfig.from_dict(dict(data.get("config", {}))),
    )
