"""Determinism rules: no wall clocks, no ad-hoc RNG in sim domains.

Byte-identical fault replay (PR 1) and metrics-derived paper numbers
(PR 2) both assume the simulation packages never read the host clock and
never construct their own random generators.  The telemetry layer is the
sole wall-clock injection point; :mod:`repro.rng` is the sole RNG
construction point.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import ModuleContext, Rule, Violation, register
from repro.analysis.project import WALL_CLOCK_CALLS, WALL_CLOCK_SUFFIXES, dotted_name


@register
class WallClockRule(Rule):
    """Sim domains must not read the host clock directly."""

    id = "determinism-clock"
    family = "determinism"
    summary = (
        "no wall-clock reads (time.time/perf_counter/datetime.now) in "
        "simulation packages; clocks arrive via telemetry injection"
    )

    def check(self, module: ModuleContext) -> Iterator[Violation]:
        cfg = module.config
        if not cfg.in_sim_domain(module.module):
            return
        if cfg.is_clock_injection_point(module.module):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            if name in WALL_CLOCK_CALLS or name.endswith(WALL_CLOCK_SUFFIXES):
                yield self.violation(
                    module,
                    node,
                    f"wall-clock call {name}() in sim domain {module.module}; "
                    "inject a clock through the telemetry layer instead",
                )


@register
class AdHocRngRule(Rule):
    """Sim domains construct RNGs only through repro.rng, and no module
    outside it reseeds a generator by assigning its ``bit_generator.state``
    (``repro.rng.reset_rng`` replays a seeded stream)."""

    id = "determinism-rng"
    family = "determinism"
    summary = (
        "no stdlib random or direct numpy RNG construction in simulation "
        "packages, and no bit_generator.state assignment outside repro.rng; "
        "use repro.rng helpers"
    )

    def check(self, module: ModuleContext) -> Iterator[Violation]:
        cfg = module.config
        if cfg.is_rng_helper(module.module):
            return
        helper = cfg.rng_helper_module
        in_sim = cfg.in_sim_domain(module.module)
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Store)
                and node.attr == "state"
                and isinstance(node.value, ast.Attribute)
                and node.value.attr == "bit_generator"
            ):
                yield self.violation(
                    module,
                    node,
                    f"bit_generator.state assigned outside {helper}; "
                    f"restart seeded streams with {helper}.reset_rng",
                )
            elif not in_sim:
                continue
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        yield self.violation(
                            module,
                            node,
                            f"stdlib random imported in sim domain; use {helper}",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module in ("random", "numpy.random"):
                    yield self.violation(
                        module,
                        node,
                        f"RNG primitives imported from {node.module}; use {helper}",
                    )
            elif isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name is None:
                    continue
                if name.startswith("random."):
                    yield self.violation(
                        module,
                        node,
                        f"stdlib {name}() in sim domain; use {helper}",
                    )
                elif ".random." in name and (
                    name.startswith("np.random.") or name.startswith("numpy.random.")
                ):
                    yield self.violation(
                        module,
                        node,
                        f"direct {name}() in sim domain; construct generators "
                        f"with {helper}.make_rng(seed)",
                    )
                elif name == "default_rng":
                    yield self.violation(
                        module,
                        node,
                        f"bare default_rng() in sim domain; use {helper}.make_rng(seed)",
                    )
