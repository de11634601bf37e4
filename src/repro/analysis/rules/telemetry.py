"""Telemetry-hygiene rules: span lifetimes and the event vocabulary.

A ``tracer.span(...)`` held outside a ``with`` block is a span leak — it
never closes, never records, and silently skews every aggregate derived
from the dump.  An event kind outside its emitter's declared vocabulary
(``Trace.emit``, ``Monitor.emit_event``, ``FleetScheduler.fleet_event``,
``quality_event``) is an event no summary, rollup reader, bundle loader
or acceptance test will ever look for.  Each emitter also rejects an
unknown kind at run time, but only when that code path fires; the lint
catches it at review time.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import ModuleContext, Rule, Violation, register


@register
class SpanContextRule(Rule):
    """``.span(...)`` is only legal as a ``with`` context manager."""

    id = "span-context"
    family = "telemetry"
    summary = (
        "Tracer.span(...) must be used as a context manager (use "
        "begin()/end() for callback-driven spans)"
    )

    def check(self, module: ModuleContext) -> Iterator[Violation]:
        if module.config.is_span_exempt(module.module):
            return
        with_items: set[int] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    with_items.add(id(item.context_expr))
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "span"
                and id(node) not in with_items
            ):
                yield self.violation(
                    module,
                    node,
                    "span() result used outside a with-statement (span leak); "
                    "use tracer.begin()/end() for callback-driven spans",
                )


@register
class EventVocabularyRule(Rule):
    """Every event emitter's kinds come from the vocabulary declared next to it.

    The emitters and their vocabularies are one table,
    ``LintConfig.event_vocabularies``; a call matches by method or bare
    function name, and its ``kind`` is read at the emitter's position or
    from the ``kind=`` keyword.
    """

    id = "event-vocabulary"
    family = "telemetry"
    summary = (
        "event kinds passed to Trace.emit, Monitor.emit_event, "
        "FleetScheduler.fleet_event and quality_event must be string "
        "literals from the vocabulary declared next to each emitter "
        "(LintConfig.event_vocabularies)"
    )

    def check(self, module: ModuleContext) -> Iterator[Violation]:
        emitters = module.config.event_vocabularies
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name not in emitters:
                continue
            kind_arg, vocabulary = emitters[name]
            kind_node = node.args[kind_arg] if len(node.args) > kind_arg else None
            for keyword in node.keywords:
                if keyword.arg == "kind":
                    kind_node = keyword.value
            if kind_node is None:
                continue
            if not (isinstance(kind_node, ast.Constant) and isinstance(kind_node.value, str)):
                yield self.violation(
                    module,
                    kind_node,
                    f"{name} kind must be a string literal so the "
                    "vocabulary is statically checkable",
                )
                continue
            if kind_node.value not in vocabulary:
                known = ", ".join(sorted(vocabulary))
                yield self.violation(
                    module,
                    kind_node,
                    f"{name} kind {kind_node.value!r} is not in the vocabulary "
                    f"declared for {name} ({known}); add it there first",
                )
