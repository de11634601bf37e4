"""Batched-hot-path hygiene: no per-window scoring loops in pipelines.

The sliding-window scans score every window of a frame through one batched
kernel call (``decision_batch`` / ``predict_batch``); the per-window loops
the equivalence suite pins the hot path against live in
``tests/equivalence/references.py``, outside production code.  A
``model.predict(...)`` or ``model.decision_values(...)`` call inside a
``for``/``while`` loop in a pipeline module is therefore a regression back
to the slow shape — easy to introduce in review-sized diffs, invisible to
the unit tests (the output is byte-identical either way), and only caught
late by the benchmark.  This rule catches it at lint time, whatever the
enclosing function is called.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import ModuleContext, Rule, Violation, register

# Per-sample scoring entry points; their *_batch twins are the hot path.
PER_WINDOW_SCORERS = frozenset({"predict", "predict_proba", "decision_values"})


def _scorer_name(call: ast.Call) -> str | None:
    """The flagged method name of ``call``, when it is a scorer call.

    A scorer is always handed features; a zero-argument ``predict()`` is
    something else (e.g. a track's kinematic prediction) and stays legal.
    """
    func = call.func
    if not (call.args or call.keywords):
        return None
    if isinstance(func, ast.Attribute) and func.attr in PER_WINDOW_SCORERS:
        return func.attr
    return None


@register
class BatchedHotPathRule(Rule):
    """Pipeline loops must score through the batched entry points."""

    id = "batched-hot-path"
    family = "performance"
    summary = (
        "per-window predict/decision calls inside pipeline loops must use "
        "the *_batch entry points"
    )

    def check(self, module: ModuleContext) -> Iterator[Violation]:
        if not module.config.in_hot_path(module.module):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _scorer_name(node)
            if name is None:
                continue
            if not self._inside_loop(module, node):
                continue
            yield self.violation(
                module,
                node,
                f"per-window {name}() call inside a loop; score the whole "
                f"batch with the *_batch entry point",
            )

    @staticmethod
    def _inside_loop(module: ModuleContext, node: ast.AST) -> bool:
        """True when a for/while loop sits between ``node`` and its function.

        Loops in *enclosing* functions do not count: a scorer call at the
        top level of a helper is the helper's business even when some
        caller loops over frames.
        """
        current = module.parent(node)
        while current is not None:
            if isinstance(current, (ast.For, ast.AsyncFor, ast.While)):
                return True
            if isinstance(
                current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                return False
            # Comprehensions iterate too — a listcomp over windows is the
            # same per-window loop in different clothes.
            if isinstance(
                current, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                return True
            current = module.parent(current)
        return False
