"""Per-rule configuration for reprolint.

Everything a rule needs to know about *this* repository lives here: which
packages are simulation domains (and therefore must be deterministic),
which module is the sanctioned RNG injection point, which event kinds
each emitter accepts, and which packages form the documented public API.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping


def _default_event_vocabularies() -> Mapping[str, tuple[int, frozenset[str]]]:
    # Single source of truth: each vocabulary is declared next to its
    # emitter, which also rejects an unknown kind at run time.
    from repro.fleet.events import FLEET_EVENT_KINDS
    from repro.monitor.events import MONITOR_EVENT_KINDS
    from repro.quality.events import QUALITY_EVENT_KINDS
    from repro.zynq.events import EVENT_KINDS

    return {
        "emit": (2, EVENT_KINDS),  # Trace.emit(time, source, kind, **attrs)
        "emit_event": (0, MONITOR_EVENT_KINDS),  # Monitor.emit_event(kind, time_s)
        "fleet_event": (0, FLEET_EVENT_KINDS),  # FleetScheduler.fleet_event(kind)
        "quality_event": (0, QUALITY_EVENT_KINDS),  # quality_event(kind), method or function
    }


def _default_wall_strip_keys() -> frozenset[str]:
    # Single source of truth: the registry the deterministic views strip.
    from repro.core.spec import WALL_KEYS

    return WALL_KEYS


@dataclass(frozen=True)
class LintConfig:
    """Repository-specific knobs consumed by the rules.

    Attributes:
        sim_domains: Packages whose behaviour feeds paper numbers; the
            determinism rules apply only inside them.
        clock_injection_modules: Modules allowed to touch the host wall
            clock (the telemetry layer injects it everywhere else).
        rng_helper_module: The one module allowed to construct raw RNGs;
            everything else goes through its helpers.
        unit_stems: Name fragments that mark a value as time- or
            throughput-like and therefore unit-bearing.
        unit_suffixes: Accepted unit suffixes (the paper's units).
        event_vocabularies: Event emitter name (method or function) ->
            (position of its ``kind`` argument, legal kinds).
        api_packages: Packages whose public surface must carry docstrings
            and complete type annotations.
        span_exempt_modules: Modules implementing the span machinery
            itself (exempt from the context-manager rule).
        hot_path_packages: Packages whose sliding-window scans must score
            through the batched entry points; every per-window
            ``predict`` / ``decision`` call inside a loop is flagged there.
        deterministic_sinks: Function names whose arguments must be free
            of wall-clock/entropy taint (the byte-compared artefacts).
        wall_strip_keys: Dict keys / keyword names the deterministic
            views strip; storing a wall value under one launders it.
        fork_packages: Packages running under the fork-based worker pool;
            the fork-safety rules apply there.
        fork_worker_modules: Modules whose functions execute inside
            forked children (module-level mutable state diverges there).
        fork_payload_types: Constructors whose instances cross the fork
            boundary and therefore must stay picklable.
        fork_unpicklable_constructors: Constructors producing objects that
            must never be captured into a fork payload (tracers, monitors,
            locks, threads, open handles).
        select: When non-empty, only these rule ids run.
        ignore: Rule ids to skip.
    """

    sim_domains: tuple[str, ...] = (
        "repro.zynq",
        "repro.core",
        "repro.faults",
        "repro.pipelines",
        "repro.adaptive",
        "repro.experiments",
    )
    clock_injection_modules: tuple[str, ...] = ("repro.telemetry",)
    rng_helper_module: str = "repro.rng"
    unit_stems: frozenset[str] = frozenset(
        {
            "duration",
            "latency",
            "timeout",
            "elapsed",
            "interval",
            "delay",
            "period",
            "deadline",
            "throughput",
            "bandwidth",
        }
    )
    unit_suffixes: frozenset[str] = frozenset(
        {"s", "ms", "us", "ns", "mbs", "bps", "fps", "hz", "mhz", "cycles", "frames"}
    )
    event_vocabularies: Mapping[str, tuple[int, frozenset[str]]] = field(
        default_factory=_default_event_vocabularies
    )
    api_packages: tuple[str, ...] = ("repro.pipelines", "repro.zynq")
    span_exempt_modules: tuple[str, ...] = ("repro.telemetry",)
    hot_path_packages: tuple[str, ...] = ("repro.pipelines", "repro.core")
    deterministic_sinks: frozenset[str] = frozenset(
        {
            "deterministic_view",
            "deterministic_outcome_dict",
            "deterministic_metrics",
            "frame_core_dict",
            "frame_core_bytes",
            "frames_digest",
        }
    )
    wall_strip_keys: frozenset[str] = field(default_factory=_default_wall_strip_keys)
    fork_packages: tuple[str, ...] = ("repro.fleet",)
    fork_worker_modules: tuple[str, ...] = ("repro.fleet.worker",)
    fork_payload_types: frozenset[str] = frozenset({"DriveSpec"})
    fork_unpicklable_constructors: frozenset[str] = frozenset(
        {
            "Tracer",
            "JsonlTracer",
            "ChromeTracer",
            "Monitor",
            "HealthMonitor",
            "FlightRecorder",
            "Lock",
            "RLock",
            "Condition",
            "Semaphore",
            "BoundedSemaphore",
            "Event",
            "Thread",
        }
    )
    select: tuple[str, ...] = ()
    ignore: tuple[str, ...] = ()

    def rule_enabled(self, rule_id: str) -> bool:
        """Whether a rule participates under the select/ignore filters."""
        if self.select and rule_id not in self.select:
            return False
        return rule_id not in self.ignore

    def in_sim_domain(self, module: str) -> bool:
        """True when ``module`` lives in a determinism-critical package."""
        return any(
            module == pkg or module.startswith(pkg + ".") for pkg in self.sim_domains
        )

    def in_api_package(self, module: str) -> bool:
        """True when ``module`` is part of the documented public API."""
        return any(
            module == pkg or module.startswith(pkg + ".") for pkg in self.api_packages
        )

    def is_clock_injection_point(self, module: str) -> bool:
        """True for modules allowed to read the host wall clock."""
        return any(
            module == pkg or module.startswith(pkg + ".")
            for pkg in self.clock_injection_modules
        )

    def is_rng_helper(self, module: str) -> bool:
        """True for the sanctioned raw-RNG module."""
        return module == self.rng_helper_module

    def in_hot_path(self, module: str) -> bool:
        """True when ``module`` must keep its window scans batched."""
        return any(
            module == pkg or module.startswith(pkg + ".")
            for pkg in self.hot_path_packages
        )

    def is_span_exempt(self, module: str) -> bool:
        """True for modules implementing the span machinery."""
        return any(
            module == pkg or module.startswith(pkg + ".")
            for pkg in self.span_exempt_modules
        )

    def in_fork_package(self, module: str) -> bool:
        """True when ``module`` runs under the fork-based worker pool."""
        return any(
            module == pkg or module.startswith(pkg + ".")
            for pkg in self.fork_packages
        )

    def is_fork_worker_module(self, module: str) -> bool:
        """True when ``module``'s functions execute inside forked children."""
        return module in self.fork_worker_modules


DEFAULT_CONFIG = LintConfig()
