"""Determinism-taint rule: wall values must not reach deterministic sinks.

The repo's central correctness property is byte-identical output across
execution modes (in-process drives and sharded fleet workers, with the
batched scans pinned to per-window oracles by the equivalence suite).  The artefacts that get byte-compared are produced by a
small set of *deterministic sinks* — ``deterministic_view``,
``deterministic_outcome_dict``, ``deterministic_metrics``, the frame-core
canonicalizers and ``frames_digest``.  Any wall-clock, environment, or
entropy-derived value reaching a sink argument breaks the comparison in a
way no unit test notices until two runs happen to disagree.

This rule consumes the project pass: function return values carry
interprocedural taint summaries (``ProjectContext.wall_tainted_functions``,
a fixpoint over the call graph), and the shared :class:`TaintEvaluator`
tracks flow through locals, containers, arithmetic and ``with`` bindings
inside each scope.  Values stored under the wall strip keys
(``LintConfig.wall_strip_keys``, by default
:data:`repro.core.spec.WALL_KEYS`) are laundered — the deterministic
views strip every one of those keys, so the wall value never survives
into the artefact.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import ModuleContext, Rule, Violation, register
from repro.analysis.project import (
    TaintEvaluator,
    dotted_name,
    iter_scopes,
    walk_scope,
)


@register
class DeterministicSinkTaintRule(Rule):
    """Interprocedural wall-taint must never reach a deterministic sink."""

    id = "taint-deterministic-sink"
    family = "determinism-taint"
    summary = (
        "wall-clock/env/RNG-derived value flows into a deterministic sink "
        "(deterministic_view, frame cores, frames_digest) without being "
        "laundered through the wall strip keys"
    )

    def check(self, module: ModuleContext) -> Iterator[Violation]:
        cfg = module.config
        sinks = cfg.deterministic_sinks
        summaries = (
            module.project.wall_tainted_functions
            if module.project is not None
            else frozenset()
        )
        evaluator = TaintEvaluator(
            project=module.project,
            module=module.module,
            strip_keys=cfg.wall_strip_keys,
            summaries=summaries,
        )
        for scope_name, body in iter_scopes(module.tree):
            tainted = evaluator.scan_body(body)
            for node in walk_scope(body):
                if not isinstance(node, ast.Call):
                    continue
                name = dotted_name(node.func)
                if name is None:
                    continue
                sink = name.split(".")[-1]
                if sink not in sinks:
                    continue
                where = "" if scope_name == "<module>" else f" in {scope_name}()"
                for arg in node.args:
                    if evaluator.expr_tainted(arg, tainted):
                        yield self.violation(
                            module,
                            arg,
                            f"wall-clock/entropy-derived value reaches "
                            f"deterministic sink {sink}(){where}; strip it "
                            "via the wall strip keys or drop it before the sink",
                        )
                for keyword in node.keywords:
                    if keyword.arg is not None and keyword.arg in cfg.wall_strip_keys:
                        continue
                    if evaluator.expr_tainted(keyword.value, tainted):
                        yield self.violation(
                            module,
                            keyword.value,
                            f"wall-clock/entropy-derived value reaches "
                            f"deterministic sink {sink}() via keyword "
                            f"{keyword.arg or '**'}{where}",
                        )
