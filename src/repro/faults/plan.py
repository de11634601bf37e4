"""Deterministic, seedable fault plans for the detection stack.

A :class:`FaultPlan` is a declarative script of failures: each
:class:`FaultSpec` names an injection *site* (a DMA engine, the bitstream
store, the PR controller, the light sensor, a detector pipeline), a target
within that site, a time window, and an optional magnitude (stall seconds,
spike lux, ...).  Components that support injection consult the plan at
their decision points via :meth:`FaultPlan.fire`; every firing is recorded
as a :class:`FaultEvent` so a drive is fully auditable.

Plans contain no hidden randomness: :meth:`FaultPlan.random` pre-generates
specs from a seed, and queries never touch an RNG, so two drives with the
same plan and sensor seed replay byte-identically.
"""

from __future__ import annotations

import enum
import math
from dataclasses import asdict, dataclass
from typing import Callable, Iterable, Sequence

from repro.errors import FaultInjectionError
from repro.rng import make_rng


class FaultSite(enum.Enum):
    """Named injection sites across the SoC / adaptation stack."""

    DMA_ERROR = "dma-error"            # transfer aborts, error IRQ
    DMA_STALL = "dma-stall"            # transfer setup delayed by magnitude
    BITSTREAM_CORRUPT = "bitstream-corrupt"  # payload damaged in PL DDR
    PR_STALL = "pr-stall"              # ICAP stream stalls for magnitude s
    SENSOR_DROPOUT = "sensor-dropout"  # sensor holds its last register
    SENSOR_SPIKE = "sensor-spike"      # sensor returns magnitude lux
    PIPELINE_EXCEPTION = "pipeline-exception"  # detector raises on a frame


#: Target wildcard: matches any target name presented at the site.
ANY_TARGET = "*"


@dataclass(frozen=True)
class FaultSpec:
    """One scripted failure: a site, a target, a window, a magnitude.

    Attributes:
        site: Where the fault injects.
        target: Component name at the site ("dma-veh-mm2s", "dark",
            "vehicle", ...) or :data:`ANY_TARGET`.
        start_s: Window start (inclusive).
        end_s: Window end (exclusive); ``inf`` = open-ended.
        magnitude: Site-specific severity — stall seconds for
            DMA_STALL/PR_STALL, reported lux for SENSOR_SPIKE.
        max_firings: Cap on how many times this spec may fire
            (``None`` = every consult inside the window).
    """

    site: FaultSite
    target: str = ANY_TARGET
    start_s: float = 0.0
    end_s: float = math.inf
    magnitude: float = 0.0
    max_firings: int | None = None

    def __post_init__(self) -> None:
        if self.start_s < 0:
            raise FaultInjectionError(f"start_s must be >= 0, got {self.start_s}")
        if self.end_s <= self.start_s:
            raise FaultInjectionError(
                f"window must be non-empty, got [{self.start_s}, {self.end_s})"
            )
        if self.magnitude < 0:
            raise FaultInjectionError(f"magnitude must be >= 0, got {self.magnitude}")
        if self.max_firings is not None and self.max_firings < 1:
            raise FaultInjectionError(f"max_firings must be >= 1, got {self.max_firings}")

    def to_dict(self) -> dict:
        """JSON-safe dict form: the site by value, an open window as ``None``."""
        data = asdict(self)
        data["site"] = self.site.value
        data["end_s"] = None if math.isinf(self.end_s) else self.end_s
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "FaultSpec":
        end_s = data["end_s"]
        return cls(
            **{
                **data,
                "site": FaultSite(data["site"]),
                "end_s": math.inf if end_s is None else end_s,
            }
        )

    def matches(self, site: FaultSite, target: str, time_s: float) -> bool:
        return (
            self.site is site
            and (self.target == ANY_TARGET or self.target == target)
            and self.start_s <= time_s < self.end_s
        )


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault, as it happened."""

    time_s: float
    site: FaultSite
    target: str
    detail: str = ""

    def label(self) -> str:
        base = f"fault:{self.site.value}@{self.target}"
        return f"{base}({self.detail})" if self.detail else base


@dataclass(frozen=True)
class DegradationEvent:
    """One graceful-degradation action taken in response to a fault."""

    time_s: float
    kind: str
    detail: str = ""

    def label(self) -> str:
        base = f"degrade:{self.kind}"
        return f"{base}({self.detail})" if self.detail else base


class FaultPlan:
    """A deterministic script of faults plus the audit log of firings."""

    def __init__(self, specs: Iterable[FaultSpec] = (), name: str = "custom"):
        self.name = name
        self.specs: tuple[FaultSpec, ...] = tuple(specs)
        self.events: list[FaultEvent] = []
        self._firings: dict[int, int] = {}
        self.listeners: list[Callable[[FaultEvent], None]] = []

    def __len__(self) -> int:
        return len(self.specs)

    def to_dict(self) -> dict:
        """The script as plain data (the audit log is not part of it)."""
        return {"name": self.name, "specs": [spec.to_dict() for spec in self.specs]}

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        """A fresh, fully armed plan from :meth:`to_dict` output."""
        return cls([FaultSpec.from_dict(spec) for spec in data["specs"]], name=data["name"])

    def _armed(self, index: int) -> bool:
        spec = self.specs[index]
        if spec.max_firings is None:
            return True
        return self._firings.get(index, 0) < spec.max_firings

    def active(self, site: FaultSite, target: str, time_s: float) -> FaultSpec | None:
        """First armed spec matching (site, target, time); does not fire."""
        for i, spec in enumerate(self.specs):
            if spec.matches(site, target, time_s) and self._armed(i):
                return spec
        return None

    def any_active(self, time_s: float, slack_s: float = 0.0) -> bool:
        """True when any spec's window covers ``time_s`` (plus trailing
        ``slack_s`` — stalls keep hurting after their window closes)."""
        return any(
            spec.start_s <= time_s < spec.end_s + slack_s for spec in self.specs
        )

    def fire(
        self, site: FaultSite, target: str, time_s: float, detail: str = ""
    ) -> FaultSpec | None:
        """Consume one firing at (site, target, time); logs the event.

        Returns the matched spec, or ``None`` when no armed spec covers the
        site/target/time — the component proceeds normally in that case.
        """
        for i, spec in enumerate(self.specs):
            if spec.matches(site, target, time_s) and self._armed(i):
                self._firings[i] = self._firings.get(i, 0) + 1
                event = FaultEvent(time_s=time_s, site=site, target=target, detail=detail)
                self.events.append(event)
                for listener in self.listeners:
                    listener(event)
                return spec
        return None

    def bind_telemetry(self, telemetry) -> Callable[[FaultEvent], None]:
        """Mirror every firing into a telemetry session.

        Each fault becomes a typed tracer event when the session records
        spans — tagged onto the enclosing span when one is open (e.g. the
        drive's per-frame span) — and bumps the ``faults_total{site=...}``
        counter.  Returns the listener so a caller can remove it from
        :attr:`listeners` again.
        """

        def on_fault(event: FaultEvent) -> None:
            if telemetry.tracer.enabled:
                telemetry.event(
                    "fault",
                    time_s=event.time_s,
                    site=event.site.value,
                    target=event.target,
                    detail=event.detail,
                )
            telemetry.counter("faults_total", site=event.site.value).inc()

        self.listeners.append(on_fault)
        return on_fault

    def firings(self) -> int:
        """Total number of fault firings so far."""
        return len(self.events)

    def reset(self) -> None:
        """Re-arm every spec and clear the audit log (fresh replay)."""
        self.events.clear()
        self._firings.clear()

    @classmethod
    def random(
        cls,
        seed: int,
        duration_s: float,
        n_faults: int = 6,
        sites: Sequence[FaultSite] | None = None,
        name: str | None = None,
    ) -> "FaultPlan":
        """A seeded random plan over ``[0, duration_s)``.

        All randomness happens here, at construction: the generated specs
        are plain data, so the plan itself stays deterministic at query
        time.  Magnitudes are drawn per-site at severities that matter
        (stalls of tens of ms to seconds, spikes across lighting regimes).
        """
        if duration_s <= 0:
            raise FaultInjectionError(f"duration_s must be positive, got {duration_s}")
        if n_faults < 0:
            raise FaultInjectionError(f"n_faults must be >= 0, got {n_faults}")
        rng = make_rng(seed)
        pool = tuple(sites) if sites is not None else tuple(FaultSite)
        specs: list[FaultSpec] = []
        for _ in range(n_faults):
            site = pool[int(rng.integers(len(pool)))]
            start = float(rng.uniform(0.0, duration_s * 0.9))
            width = float(rng.uniform(0.02, max(0.05, duration_s * 0.2)))
            magnitude = 0.0
            max_firings: int | None = None
            if site in (FaultSite.DMA_STALL, FaultSite.PR_STALL):
                magnitude = float(rng.uniform(0.01, 2.0))
                max_firings = 1
            elif site is FaultSite.SENSOR_SPIKE:
                magnitude = float(10 ** rng.uniform(-1.0, 4.8))
                max_firings = int(rng.integers(1, 4))
            elif site in (FaultSite.DMA_ERROR, FaultSite.BITSTREAM_CORRUPT):
                max_firings = int(rng.integers(1, 3))
            specs.append(
                FaultSpec(
                    site=site,
                    target=ANY_TARGET,
                    start_s=start,
                    end_s=start + width,
                    magnitude=magnitude,
                    max_firings=max_firings,
                )
            )
        return cls(specs, name=name or f"random-{seed}")
