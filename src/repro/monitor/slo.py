"""Runtime SLOs derived from the paper's numbers, folded into one health state.

The paper's guarantees are operational: a frame every 20 ms (50 fps), an
8 MB partial bitstream reconfiguring in ~20 ms at ~390 MB/s, and a static
pedestrian partition that never stops.  The :class:`HealthMonitor` watches
a running drive against those budgets with rolling-window evaluators and
folds every violation into a single :class:`HealthState`:

* **OK** — every budget held over the recovery window;
* **DEGRADED** — a budget was missed but the system is still adapting
  (slow frame, reconfig overrun, ICAP below its floor, condition-switch
  flapping, a detection-quality slide, or a fallback configuration in
  effect);
* **CRITICAL** — the adaptation machinery itself failed (a reconfiguration
  failed or was abandoned) and the vehicle side can no longer be trusted
  to match the lighting condition.

Recovery is hysteretic: the state steps *down one level at a time* after
``recovery_frames`` consecutive clean frames, so a flapping signal cannot
bounce the health state sample to sample.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass

from repro.errors import ConfigurationError

#: The paper's ICAP throughput for its PL-DDR controller (Section IV-A).
PAPER_ICAP_MBS = 390.0

#: The paper's frame budget: one HDTV frame every 20 ms at 50 fps.
PAPER_FRAME_BUDGET_MS = 20.0

#: The paper's nominal partial-reconfiguration time (8 MB / ~390 MB/s).
PAPER_RECONFIG_MS = 20.0


class HealthState(enum.Enum):
    """Folded system health, ordered by severity."""

    OK = "ok"
    DEGRADED = "degraded"
    CRITICAL = "critical"

    @property
    def severity(self) -> int:
        return _SEVERITY[self]


_SEVERITY = {HealthState.OK: 0, HealthState.DEGRADED: 1, HealthState.CRITICAL: 2}
_BY_SEVERITY = {v: k for k, v in _SEVERITY.items()}


@dataclass(frozen=True)
class SloBudgets:
    """Paper-derived service-level budgets for a running drive.

    Attributes:
        frame_budget_ms: Wall-clock budget for one frame of host work
            (the paper's 20 ms at 50 fps).
        reconfig_budget_ms: Nominal partial-reconfiguration duration.
        reconfig_margin_rel: Tolerated relative overrun before a reconfig
            counts as an SLO violation (0.25 -> violation above 25 ms).
        icap_floor_mbs: Minimum acceptable measured ICAP throughput
            (default: the paper's 390 MB/s minus 10 %).
        flap_window_s: Trailing window for condition-change flap detection.
        flap_max_changes: Condition changes tolerated inside the window
            before the controller counts as flapping.
        recovery_frames: Consecutive clean frames before the health state
            steps down one severity level.
        quality_window: Trailing scored-frame count for the windowed
            detection-quality evaluators (recall/FP-rate/drift).
        quality_min_samples: Scored frames required before the quality
            evaluators engage (cold-start guard).
        quality_recall_floor: Windowed recall below this marks the frame
            DEGRADED (``quality-recall``).
        quality_collapse_recall: Windowed recall below this marks the
            frame CRITICAL (``quality-collapse``) — the detector is no
            longer usably seeing vehicles.
        quality_fp_per_frame_max: Windowed false positives per scored
            frame above this marks the frame DEGRADED (``quality-fp-rate``).
        quality_drift_mad_k: Modified-z threshold (in MAD units) for the
            recall drift detector.
        quality_drift_floor: MAD floor for the drift detector; recall
            lives in [0, 1], so the flat-window fallback is a fine
            absolute one (a 0.05 floor with k=4 flags a 0.2+ absolute
            recall drop, ignores ±0.03 noise).
    """

    frame_budget_ms: float = PAPER_FRAME_BUDGET_MS
    reconfig_budget_ms: float = PAPER_RECONFIG_MS
    reconfig_margin_rel: float = 0.25
    icap_floor_mbs: float = PAPER_ICAP_MBS * 0.9
    flap_window_s: float = 30.0
    flap_max_changes: int = 3
    recovery_frames: int = 100
    quality_window: int = 64
    quality_min_samples: int = 16
    quality_recall_floor: float = 0.60
    quality_collapse_recall: float = 0.30
    quality_fp_per_frame_max: float = 1.0
    quality_drift_mad_k: float = 4.0
    quality_drift_floor: float = 0.05

    def __post_init__(self) -> None:
        if self.frame_budget_ms <= 0 or self.reconfig_budget_ms <= 0:
            raise ConfigurationError("SLO time budgets must be positive")
        if self.reconfig_margin_rel < 0:
            raise ConfigurationError("reconfig_margin_rel must be >= 0")
        if self.icap_floor_mbs <= 0:
            raise ConfigurationError("icap_floor_mbs must be positive")
        if self.flap_window_s <= 0 or self.flap_max_changes < 1:
            raise ConfigurationError("flap window must be positive, max changes >= 1")
        if self.recovery_frames < 1:
            raise ConfigurationError("recovery_frames must be >= 1")
        if self.quality_window < 2 or self.quality_min_samples < 2:
            raise ConfigurationError("quality windows must hold at least 2 samples")
        if not 0.0 <= self.quality_collapse_recall <= self.quality_recall_floor <= 1.0:
            raise ConfigurationError(
                "quality recall thresholds must satisfy "
                "0 <= collapse <= floor <= 1"
            )
        if self.quality_fp_per_frame_max <= 0:
            raise ConfigurationError("quality_fp_per_frame_max must be positive")
        if self.quality_drift_mad_k <= 0 or self.quality_drift_floor <= 0:
            raise ConfigurationError("quality drift parameters must be positive")

    @property
    def reconfig_limit_ms(self) -> float:
        """The hard overrun line: budget plus tolerated margin."""
        return self.reconfig_budget_ms * (1.0 + self.reconfig_margin_rel)

    @classmethod
    def for_fps(cls, fps: float, **overrides) -> "SloBudgets":
        """Budgets with the frame budget derived from a frame clock."""
        if fps <= 0:
            raise ConfigurationError(f"fps must be positive, got {fps}")
        overrides.setdefault("frame_budget_ms", 1e3 / fps)
        return cls(**overrides)


@dataclass(frozen=True)
class SloViolation:
    """One budget miss found by an evaluator."""

    time_s: float
    slo: str                 # "frame-deadline", "reconfig-overrun", ...
    severity: HealthState
    detail: str = ""
    frame_index: int | None = None

    def label(self) -> str:
        base = f"slo:{self.slo}"
        return f"{base}({self.detail})" if self.detail else base

    def to_dict(self) -> dict:
        return {
            "time_s": self.time_s,
            "slo": self.slo,
            "severity": self.severity.value,
            "detail": self.detail,
            "frame_index": self.frame_index,
        }


@dataclass(frozen=True)
class HealthTransition:
    """One folded-state level change."""

    time_s: float
    previous: HealthState
    new: HealthState
    reason: str
    frame_index: int | None = None

    def to_dict(self) -> dict:
        return {
            "time_s": self.time_s,
            "previous": self.previous.value,
            "new": self.new.value,
            "reason": self.reason,
            "frame_index": self.frame_index,
        }


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


class HealthMonitor:
    """Rolling-window SLO evaluators folded into one health state.

    Feed it observations (:meth:`observe_frame`, :meth:`observe_reconfig`,
    :meth:`observe_condition_change`, :meth:`observe_degradation`); read
    :attr:`state`, :attr:`transitions`, and :attr:`violations` back.  The
    monitor never touches the simulation — it is a pure consumer.
    """

    def __init__(self, budgets: SloBudgets | None = None):
        self.budgets = budgets or SloBudgets()
        self.state = HealthState.OK
        self.transitions: list[HealthTransition] = []
        self.violations: list[SloViolation] = []
        self.frames_observed = 0
        self._clean_streak = 0
        self._change_times: list[float] = []
        # Windowed detection-quality counts (scored frames only) and the
        # history of windowed recalls the drift detector compares against.
        self._quality_counts: list[tuple[int, int, int]] = []  # (tp, fp, fn)
        self._recall_history: list[float] = []
        # Violations observed between frames (reconfig reports, degradation
        # events) are folded into the *next* frame observation.
        self._pending: list[SloViolation] = []

    # Evaluators --------------------------------------------------------------

    def observe_reconfig(
        self, duration_ms: float, throughput_mbs: float, ok: bool, time_s: float, detail: str = ""
    ) -> list[SloViolation]:
        """One finished reconfiguration attempt against the PR budgets."""
        b = self.budgets
        found: list[SloViolation] = []
        if not ok:
            found.append(
                SloViolation(
                    time_s=time_s,
                    slo="reconfig-failed",
                    severity=HealthState.CRITICAL,
                    detail=detail or "reconfiguration attempt failed",
                )
            )
        if duration_ms > b.reconfig_limit_ms:
            found.append(
                SloViolation(
                    time_s=time_s,
                    slo="reconfig-overrun",
                    severity=HealthState.DEGRADED,
                    detail=f"{duration_ms:.1f} ms > {b.reconfig_limit_ms:.1f} ms limit",
                )
            )
        if ok and throughput_mbs < b.icap_floor_mbs:
            found.append(
                SloViolation(
                    time_s=time_s,
                    slo="icap-throughput",
                    severity=HealthState.DEGRADED,
                    detail=f"{throughput_mbs:.0f} MB/s < {b.icap_floor_mbs:.0f} MB/s floor",
                )
            )
        self._pending.extend(found)
        return found

    def observe_condition_change(self, time_s: float) -> list[SloViolation]:
        """One controller condition change; detects switch flapping."""
        b = self.budgets
        self._change_times.append(time_s)
        cutoff = time_s - b.flap_window_s
        self._change_times = [t for t in self._change_times if t >= cutoff]
        if len(self._change_times) > b.flap_max_changes:
            violation = SloViolation(
                time_s=time_s,
                slo="condition-flapping",
                severity=HealthState.DEGRADED,
                detail=(
                    f"{len(self._change_times)} changes in {b.flap_window_s:.0f} s "
                    f"(max {b.flap_max_changes})"
                ),
            )
            self._pending.append(violation)
            return [violation]
        return []

    def observe_degradation(self, kind: str, time_s: float, detail: str = "") -> list[SloViolation]:
        """One graceful-degradation action taken by the stack.

        ``reconfig-abandoned`` means the system gave up bringing the
        required image up — the paper's adaptivity claim is broken, so it
        is CRITICAL; every other recovery action marks the frame DEGRADED.
        """
        severity = (
            HealthState.CRITICAL if kind == "reconfig-abandoned" else HealthState.DEGRADED
        )
        violation = SloViolation(
            time_s=time_s,
            slo="degradation",
            severity=severity,
            detail=f"{kind}: {detail}" if detail else kind,
        )
        self._pending.append(violation)
        return [violation]

    def _frame_violations(
        self,
        index: int,
        time_s: float,
        wall_ms: float | None,
        degraded: bool,
    ) -> list[SloViolation]:
        b = self.budgets
        found: list[SloViolation] = []
        if wall_ms is not None and wall_ms > b.frame_budget_ms:
            found.append(
                SloViolation(
                    time_s=time_s,
                    slo="frame-deadline",
                    severity=HealthState.DEGRADED,
                    detail=f"{wall_ms:.1f} ms > {b.frame_budget_ms:.1f} ms budget",
                    frame_index=index,
                )
            )
        if degraded:
            found.append(
                SloViolation(
                    time_s=time_s,
                    slo="config-fallback",
                    severity=HealthState.DEGRADED,
                    detail="active configuration does not match the lighting condition",
                    frame_index=index,
                )
            )
        return found

    def _quality_violations(self, index: int, time_s: float, quality) -> list[SloViolation]:
        """Windowed quality SLOs over one scored frame's TP/FP/FN counts.

        ``quality`` is any object with integer ``tp``/``fp``/``fn``
        attributes (a :class:`repro.quality.records.QualityRecord`); the
        evaluator is duck-typed so this module never imports the quality
        plane.  Three detectors, mirroring the latency ones:

        * ``quality-recall`` / ``quality-collapse`` — windowed recall
          against absolute floors (DEGRADED / CRITICAL);
        * ``quality-fp-rate`` — windowed false positives per scored frame;
        * ``quality-drift`` — the current windowed recall against the MAD
          of its own history (catches a sustained slide long before the
          absolute floor is crossed).
        """
        b = self.budgets
        found: list[SloViolation] = []
        self._quality_counts.append((int(quality.tp), int(quality.fp), int(quality.fn)))
        if len(self._quality_counts) > b.quality_window:
            del self._quality_counts[: len(self._quality_counts) - b.quality_window]
        if len(self._quality_counts) < b.quality_min_samples:
            return found
        tp = sum(c[0] for c in self._quality_counts)
        fp = sum(c[1] for c in self._quality_counts)
        fn = sum(c[2] for c in self._quality_counts)
        fp_per_frame = fp / len(self._quality_counts)
        if fp_per_frame > b.quality_fp_per_frame_max:
            found.append(
                SloViolation(
                    time_s=time_s,
                    slo="quality-fp-rate",
                    severity=HealthState.DEGRADED,
                    detail=(
                        f"{fp_per_frame:.2f} FP/frame > "
                        f"{b.quality_fp_per_frame_max:.2f} ceiling"
                    ),
                    frame_index=index,
                )
            )
        if tp + fn == 0:
            return found  # no ground-truth vehicles in the window: recall undefined
        recall = tp / (tp + fn)
        if recall < b.quality_collapse_recall:
            found.append(
                SloViolation(
                    time_s=time_s,
                    slo="quality-collapse",
                    severity=HealthState.CRITICAL,
                    detail=(
                        f"windowed recall {recall:.2f} < "
                        f"{b.quality_collapse_recall:.2f} collapse line"
                    ),
                    frame_index=index,
                )
            )
        elif recall < b.quality_recall_floor:
            found.append(
                SloViolation(
                    time_s=time_s,
                    slo="quality-recall",
                    severity=HealthState.DEGRADED,
                    detail=(
                        f"windowed recall {recall:.2f} < "
                        f"{b.quality_recall_floor:.2f} floor"
                    ),
                    frame_index=index,
                )
            )
        elif len(self._recall_history) >= b.quality_min_samples:
            median = _median(self._recall_history)
            mad = _median([abs(v - median) for v in self._recall_history])
            # Recall lives in [0, 1]; a flat window's MAD is 0, so fall
            # back to a fine absolute floor.  Only *downward* drift flags.
            spread = max(mad, b.quality_drift_floor)
            if (median - recall) / spread > b.quality_drift_mad_k:
                found.append(
                    SloViolation(
                        time_s=time_s,
                        slo="quality-drift",
                        severity=HealthState.DEGRADED,
                        detail=(
                            f"windowed recall {recall:.2f} drifted below "
                            f"median {median:.2f} (MAD {mad:.3f})"
                        ),
                        frame_index=index,
                    )
                )
        self._recall_history.append(recall)
        if len(self._recall_history) > b.quality_window:
            del self._recall_history[: len(self._recall_history) - b.quality_window]
        return found

    # Folding -----------------------------------------------------------------

    def observe_frame(
        self,
        index: int,
        time_s: float,
        wall_ms: float | None = None,
        degraded: bool = False,
        quality=None,
    ) -> tuple[list[SloViolation], HealthTransition | None]:
        """Fold one frame (plus anything pending) into the health state.

        ``quality`` is an optional scored-frame record (``tp``/``fp``/``fn``
        attributes) from the quality plane; ``None`` on unscored frames.
        Returns the violations attributed to this frame and the state
        transition it caused, if any.
        """
        self.frames_observed += 1
        found = self._pending
        self._pending = []
        found.extend(self._frame_violations(index, time_s, wall_ms, degraded))
        if quality is not None:
            found.extend(self._quality_violations(index, time_s, quality))
        found = [
            v if v.frame_index is not None else dataclasses.replace(v, frame_index=index)
            for v in found
        ]
        self.violations.extend(found)
        transition: HealthTransition | None = None
        if found:
            self._clean_streak = 0
            worst = max(found, key=lambda v: v.severity.severity)
            if worst.severity.severity > self.state.severity:
                transition = self._transition(worst.severity, worst.label(), time_s, index)
        else:
            self._clean_streak += 1
            if (
                self.state is not HealthState.OK
                and self._clean_streak >= self.budgets.recovery_frames
            ):
                recovered = _BY_SEVERITY[self.state.severity - 1]
                transition = self._transition(
                    recovered,
                    f"recovered: {self._clean_streak} clean frames",
                    time_s,
                    index,
                )
                self._clean_streak = 0
        return found, transition

    def _transition(
        self, new: HealthState, reason: str, time_s: float, index: int | None
    ) -> HealthTransition:
        transition = HealthTransition(
            time_s=time_s,
            previous=self.state,
            new=new,
            reason=reason,
            frame_index=index,
        )
        self.state = new
        self.transitions.append(transition)
        return transition

    def summary(self) -> dict:
        """Point-in-time digest of the health evaluation."""
        by_slo: dict[str, int] = {}
        for violation in self.violations:
            by_slo[violation.slo] = by_slo.get(violation.slo, 0) + 1
        return {
            "state": self.state.value,
            "frames_observed": self.frames_observed,
            "violations": len(self.violations),
            "violations_by_slo": by_slo,
            "transitions": len(self.transitions),
        }
