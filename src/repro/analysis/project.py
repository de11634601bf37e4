"""The whole-program pass: parse every module once, see across all of them.

reprolint v1 was a per-file linter; every rule saw one ``ast.Module`` and
nothing else.  The invariants that actually protect byte-identical
determinism across execution modes are *cross-module*: a wall-clock value
produced in ``repro.telemetry``, returned through a helper in
``repro.fleet.worker``, and finally folded into a dict that reaches
``deterministic_view`` is invisible to any single-file rule.  This module
builds the project-level structures those rules need:

* :class:`ParsedModule` — one parsed file (path, dotted name, AST, lines);
* :class:`ModuleSummary` — the per-module symbol table: top-level defs,
  import bindings, ``__all__`` contents, module-level mutable state,
  every name the module reads;
* :class:`ProjectContext` — the project: all summaries, the module-level
  import graph (runtime edges only — ``if TYPE_CHECKING:`` and
  function-local imports do not create load-order cycles), a function
  index with call edges, and the interprocedural wall-taint fixpoint
  (:attr:`ProjectContext.wall_tainted_functions`);
* :class:`TaintEvaluator` — the shared intra-procedural taint engine used
  both by the fixpoint and by the ``taint-deterministic-sink`` rule.

The taint model, honestly stated (a linter, not a verifier):

* **Sources**: wall-clock calls (``time.time``/``perf_counter``/...),
  ``datetime.now``-style constructors, ``os.environ`` / ``os.getenv``,
  stdlib/`numpy` RNG calls, ``uuid.uuid1/uuid4``, and ``Stopwatch``
  construction (the telemetry wall-timer).
* **Propagation**: forward over local assignments, arithmetic,
  containers, f-strings, ``with ... as`` bindings, and loop targets; two
  passes per scope so loop-carried taint converges.  Calls to *resolved*
  project functions take the callee's fixpoint summary (computed with
  clean parameters — argument flow into project calls is not tracked);
  calls to unresolved/builtin functions conservatively propagate argument
  and receiver taint.
* **Laundering**: a value stored under a key or keyword named in the wall
  registry (:data:`repro.core.spec.WALL_KEYS`) is clean again — the
  deterministic views strip every one of those keys, so the wall value
  never survives into the deterministic artefact.  Resolved project
  *class* constructors are clean (dataclasses segregate wall fields by
  the same contract).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Iterator

#: Host-clock calls that leak nondeterminism into a simulation (the
#: determinism rule and the taint sources both read it).
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "time.process_time_ns",
    }
)

#: ``datetime``-style constructors keyed by their trailing attribute pair.
WALL_CLOCK_SUFFIXES = (
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "date.today",
)

#: Environment reads: host state a deterministic artefact must never see.
ENV_SOURCE_CALLS = frozenset({"os.getenv", "os.environ.get"})

#: Nondeterministic id constructors.
UUID_SOURCE_CALLS = frozenset({"uuid.uuid1", "uuid.uuid4"})

#: Constructors whose *instances* are wall-clock carriers (attribute reads
#: like ``stopwatch.elapsed_s`` inherit the taint).
WALL_SOURCE_CONSTRUCTORS = frozenset({"Stopwatch"})


def dotted_name(node: ast.expr) -> str | None:
    """Render an attribute chain like ``np.random.default_rng`` to a string."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def is_wall_source_call(call: ast.Call) -> bool:
    """True when ``call`` reads the host clock, environment, or entropy."""
    name = dotted_name(call.func)
    if name is None:
        return False
    if name in WALL_CLOCK_CALLS or name in ENV_SOURCE_CALLS or name in UUID_SOURCE_CALLS:
        return True
    if name.endswith(WALL_CLOCK_SUFFIXES):
        return True
    if name.split(".")[-1] in WALL_SOURCE_CONSTRUCTORS:
        return True
    if name.startswith("random.") or ".random." in name:
        return True
    return False


def is_env_source_expr(node: ast.expr) -> bool:
    """True for bare ``os.environ`` (subscripted or passed around)."""
    if isinstance(node, (ast.Attribute, ast.Name)):
        name = dotted_name(node)
        return name == "os.environ" or bool(name and name.startswith("os.environ."))
    return False


@dataclass
class ParsedModule:
    """One parsed source file."""

    path: str
    module: str  # dotted name, e.g. "repro.fleet.worker"
    tree: ast.Module
    source_lines: list[str]


@dataclass
class ModuleSummary:
    """The per-module slice of the project symbol table.

    Attributes:
        name: Dotted module name.
        path: Source path the module was parsed from.
        defs: Top-level name -> kind (``function`` / ``class`` / ``value``
            / ``import``).
        bindings: Local name -> fully-qualified origin for every import in
            the module (function-local imports included — they bind names
            for resolution even though they add no load-order edge).
        import_lines: Imported project module -> first module-level
            runtime import line (the import-graph edges).
        exports: ``__all__`` entries as ``(name, lineno)``, or ``None``
            when the module declares no ``__all__``.
        exports_lineno: Line of the ``__all__`` assignment itself.
        mutable_globals: Module-level names bound to mutable containers
            (list/dict/set literals or constructors) -> definition line.
        used_names: Every bare name the module reads anywhere.
        from_imports: Module-level ``from X import Y`` bindings ->
            ``(qualified origin, lineno)`` (re-export candidates).
    """

    name: str
    path: str
    defs: dict[str, str] = field(default_factory=dict)
    bindings: dict[str, str] = field(default_factory=dict)
    import_lines: dict[str, int] = field(default_factory=dict)
    exports: list[tuple[str, int]] | None = None
    exports_lineno: int | None = None
    mutable_globals: dict[str, int] = field(default_factory=dict)
    used_names: set[str] = field(default_factory=set)
    from_imports: dict[str, tuple[str, int]] = field(default_factory=dict)


@dataclass
class FunctionInfo:
    """One project function (top-level def or class method)."""

    qualname: str  # "repro.fleet.worker.execute_spec" / "mod.Class.method"
    module: str
    node: ast.FunctionDef | ast.AsyncFunctionDef


_MUTABLE_CONSTRUCTORS = frozenset({"list", "dict", "set", "defaultdict", "deque", "Counter"})
_FuncDef = (ast.FunctionDef, ast.AsyncFunctionDef)


def _is_mutable_literal(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _MUTABLE_CONSTRUCTORS
    )


def _is_type_checking_guard(node: ast.stmt) -> bool:
    if not isinstance(node, ast.If):
        return False
    test = node.test
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False


def _iter_toplevel(body: Iterable[ast.stmt], *, runtime_only: bool) -> Iterator[ast.stmt]:
    """Module-level statements, descending into try/if blocks.

    With ``runtime_only`` the walk skips ``if TYPE_CHECKING:`` bodies —
    annotations-only imports create no load-order edge.
    """
    for stmt in body:
        yield stmt
        if isinstance(stmt, ast.Try):
            for block in (stmt.body, stmt.orelse, stmt.finalbody):
                yield from _iter_toplevel(block, runtime_only=runtime_only)
            for handler in stmt.handlers:
                yield from _iter_toplevel(handler.body, runtime_only=runtime_only)
        elif isinstance(stmt, ast.If):
            if not (runtime_only and _is_type_checking_guard(stmt)):
                yield from _iter_toplevel(stmt.body, runtime_only=runtime_only)
            yield from _iter_toplevel(stmt.orelse, runtime_only=runtime_only)


def parse_module(source: str, *, module: str, path: str) -> ParsedModule:
    """Parse one source string (raises ``SyntaxError`` like ``ast.parse``)."""
    tree = ast.parse(source, filename=path)
    return ParsedModule(
        path=path, module=module, tree=tree, source_lines=source.splitlines()
    )


def summarize_module(parsed: ParsedModule) -> ModuleSummary:
    """Extract the symbol-table slice of one parsed module."""
    summary = ModuleSummary(name=parsed.module, path=parsed.path)
    package = parsed.module.rsplit(".", 1)[0] if "." in parsed.module else ""

    def bind_import(stmt: ast.stmt, *, module_level: bool) -> None:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                local = alias.asname or alias.name.split(".")[0]
                origin = alias.name if alias.asname else alias.name.split(".")[0]
                summary.bindings.setdefault(local, origin)
                if module_level:
                    summary.defs.setdefault(local, "import")
        elif isinstance(stmt, ast.ImportFrom):
            base = stmt.module or ""
            if stmt.level:
                # Relative import: resolve against the enclosing package.
                anchor = parsed.module.split(".")
                anchor = anchor[: len(anchor) - stmt.level] if not parsed.path.endswith(
                    "__init__.py"
                ) else anchor[: len(anchor) - stmt.level + 1]
                base = ".".join(anchor + ([stmt.module] if stmt.module else []))
            for alias in stmt.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                origin = f"{base}.{alias.name}" if base else alias.name
                summary.bindings.setdefault(local, origin)
                if module_level:
                    summary.defs.setdefault(local, "import")
                    summary.from_imports.setdefault(local, (origin, stmt.lineno))

    # Top-level defs, __all__, mutable globals, module-level import edges.
    for stmt in _iter_toplevel(parsed.tree.body, runtime_only=False):
        if isinstance(stmt, _FuncDef):
            summary.defs[stmt.name] = "function"
        elif isinstance(stmt, ast.ClassDef):
            summary.defs[stmt.name] = "class"
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if not isinstance(target, ast.Name):
                    continue
                if target.id == "__all__":
                    summary.exports = _parse_all(stmt.value)
                    summary.exports_lineno = stmt.lineno
                    continue
                summary.defs.setdefault(target.id, "value")
                if _is_mutable_literal(stmt.value):
                    summary.mutable_globals.setdefault(target.id, stmt.lineno)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            summary.defs.setdefault(stmt.target.id, "value")
            if stmt.value is not None and _is_mutable_literal(stmt.value):
                summary.mutable_globals.setdefault(stmt.target.id, stmt.lineno)
        elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
            bind_import(stmt, module_level=True)

    # Runtime module-level imports only: these are the load-order edges.
    for stmt in _iter_toplevel(parsed.tree.body, runtime_only=True):
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                summary.import_lines.setdefault(alias.name, stmt.lineno)
        elif isinstance(stmt, ast.ImportFrom) and stmt.module:
            base = stmt.module
            if stmt.level:
                continue  # relative runtime imports: rare here, skip edges
            summary.import_lines.setdefault(base, stmt.lineno)
            for alias in stmt.names:
                if alias.name != "*":
                    # ``from repro.fleet import worker`` also loads the
                    # submodule; record the candidate edge.
                    summary.import_lines.setdefault(f"{base}.{alias.name}", stmt.lineno)

    # Function-local imports still bind names (for call resolution).
    for node in ast.walk(parsed.tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bind_import(node, module_level=False)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            summary.used_names.add(node.id)

    if package:
        summary.bindings.setdefault("__package__", package)
    return summary


def _parse_all(value: ast.expr) -> list[tuple[str, int]] | None:
    if not isinstance(value, (ast.List, ast.Tuple)):
        return None
    entries: list[tuple[str, int]] = []
    for element in value.elts:
        if isinstance(element, ast.Constant) and isinstance(element.value, str):
            entries.append((element.value, element.lineno))
    return entries


class ProjectContext:
    """Everything the cross-module rules can see.

    Built once per analysis run from every parsed module; handed to each
    :class:`~repro.analysis.core.ModuleContext` so rules reason across
    file boundaries.
    """

    def __init__(
        self,
        parsed: Iterable[ParsedModule],
        *,
        wall_strip_keys: frozenset[str] = frozenset(),
    ):
        self.modules: dict[str, ParsedModule] = {pm.module: pm for pm in parsed}
        self.summaries: dict[str, ModuleSummary] = {
            name: summarize_module(pm) for name, pm in self.modules.items()
        }
        self.wall_strip_keys = wall_strip_keys
        self.import_graph: dict[str, dict[str, int]] = self._build_import_graph()
        self.functions: dict[str, FunctionInfo] = self._index_functions()
        self.call_edges: dict[str, frozenset[str]] = {}
        self.wall_tainted_functions: frozenset[str] = frozenset()
        self._compute_call_edges_and_taint()

    # Graph construction ------------------------------------------------------

    def _build_import_graph(self) -> dict[str, dict[str, int]]:
        graph: dict[str, dict[str, int]] = {}
        for name, summary in self.summaries.items():
            edges: dict[str, int] = {}
            for target, lineno in summary.import_lines.items():
                if target == name:
                    continue
                if target in self.modules:
                    edges.setdefault(target, lineno)
            graph[name] = edges
        return graph

    def _index_functions(self) -> dict[str, FunctionInfo]:
        functions: dict[str, FunctionInfo] = {}
        for name, pm in self.modules.items():
            for stmt in pm.tree.body:
                if isinstance(stmt, _FuncDef):
                    qualname = f"{name}.{stmt.name}"
                    functions[qualname] = FunctionInfo(qualname, name, stmt)
                elif isinstance(stmt, ast.ClassDef):
                    for member in stmt.body:
                        if isinstance(member, _FuncDef):
                            qualname = f"{name}.{stmt.name}.{member.name}"
                            functions[qualname] = FunctionInfo(qualname, name, member)
        return functions

    # Name resolution ---------------------------------------------------------

    def resolve(self, module: str, dotted: str) -> str | None:
        """Resolve ``dotted`` as used in ``module`` to a qualified name.

        Follows one level of re-export chains (``from pkg import X`` where
        ``pkg/__init__`` itself imported ``X`` from its defining module).
        Returns ``None`` for names the project cannot see (builtins,
        third-party modules, locals).
        """
        summary = self.summaries.get(module)
        if summary is None:
            return None
        head, _, rest = dotted.partition(".")
        origin = summary.bindings.get(head)
        if origin is None:
            if head in summary.defs:
                return f"{module}.{dotted}"
            return None
        target = f"{origin}.{rest}" if rest else origin
        return self._chase(target, depth=0)

    def _chase(self, target: str, depth: int) -> str:
        """Follow ``pkg.Name`` re-exports to the defining module."""
        if depth > 4 or target in self.modules or target in self.functions:
            return target
        owner, _, leaf = target.rpartition(".")
        if not owner or owner not in self.summaries:
            return target
        owner_summary = self.summaries[owner]
        if leaf in owner_summary.defs and owner_summary.defs[leaf] != "import":
            return target
        origin = owner_summary.bindings.get(leaf)
        if origin is None:
            return target
        return self._chase(origin, depth + 1)

    def resolve_function(self, module: str, dotted: str) -> str | None:
        """Resolve a call target to a project function qualname, if any."""
        target = self.resolve(module, dotted)
        if target is not None and target in self.functions:
            return target
        return None

    def resolved_kind(self, module: str, dotted: str) -> str | None:
        """``function`` / ``class`` / ``value`` / ``module`` for a name."""
        target = self.resolve(module, dotted)
        if target is None:
            return None
        if target in self.modules:
            return "module"
        owner, _, leaf = target.rpartition(".")
        summary = self.summaries.get(owner)
        if summary is None:
            return None
        return summary.defs.get(leaf)

    # Call edges + taint fixpoint ---------------------------------------------

    def _compute_call_edges_and_taint(self) -> None:
        edges: dict[str, set[str]] = {}
        for qualname, info in self.functions.items():
            callees: set[str] = set()
            for node in ast.walk(info.node):
                if isinstance(node, ast.Call):
                    name = dotted_name(node.func)
                    if name is None:
                        continue
                    resolved = self.resolve_function(info.module, name)
                    if resolved is not None:
                        callees.add(resolved)
            edges[qualname] = callees
        self.call_edges = {q: frozenset(c) for q, c in edges.items()}

        tainted: set[str] = set()
        changed = True
        while changed:
            changed = False
            for qualname, info in self.functions.items():
                if qualname in tainted:
                    continue
                evaluator = TaintEvaluator(
                    project=self,
                    module=info.module,
                    strip_keys=self.wall_strip_keys,
                    summaries=tainted,
                )
                if evaluator.returns_tainted(info.node):
                    tainted.add(qualname)
                    changed = True
        self.wall_tainted_functions = frozenset(tainted)

    # Import cycles -----------------------------------------------------------

    def import_cycles(self) -> list[list[str]]:
        """Elementary runtime import cycles, one per strongly-connected
        component, each rotated to start at its smallest module name."""
        index_counter = [0]
        stack: list[str] = []
        on_stack: set[str] = set()
        index: dict[str, int] = {}
        low: dict[str, int] = {}
        sccs: list[list[str]] = []

        def strongconnect(node: str) -> None:
            # Iterative Tarjan (the tree is shallow, but recursion limits
            # are not a failure mode a linter should have).
            work = [(node, iter(sorted(self.import_graph.get(node, {}))))]
            index[node] = low[node] = index_counter[0]
            index_counter[0] += 1
            stack.append(node)
            on_stack.add(node)
            while work:
                current, neighbours = work[-1]
                advanced = False
                for neighbour in neighbours:
                    if neighbour not in index:
                        index[neighbour] = low[neighbour] = index_counter[0]
                        index_counter[0] += 1
                        stack.append(neighbour)
                        on_stack.add(neighbour)
                        work.append(
                            (neighbour, iter(sorted(self.import_graph.get(neighbour, {}))))
                        )
                        advanced = True
                        break
                    if neighbour in on_stack:
                        low[current] = min(low[current], index[neighbour])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[current])
                if low[current] == index[current]:
                    component: list[str] = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == current:
                            break
                    if len(component) > 1:
                        sccs.append(component)

        for name in sorted(self.import_graph):
            if name not in index:
                strongconnect(name)

        cycles: list[list[str]] = []
        for component in sccs:
            members = set(component)
            start = min(component)
            cycle = self._cycle_through(start, members)
            if cycle:
                cycles.append(cycle)
        return sorted(cycles)

    def _cycle_through(self, start: str, members: set[str]) -> list[str] | None:
        """One concrete cycle from ``start`` back to itself inside an SCC."""
        path = [start]
        seen = {start}

        def dfs(node: str) -> bool:
            for neighbour in sorted(self.import_graph.get(node, {})):
                if neighbour not in members:
                    continue
                if neighbour == start:
                    return True
                if neighbour in seen:
                    continue
                seen.add(neighbour)
                path.append(neighbour)
                if dfs(neighbour):
                    return True
                path.pop()
            return False

        return path if dfs(start) else None


class TaintEvaluator:
    """Intra-procedural forward wall-taint pass over one scope.

    Shared between the project fixpoint (function return summaries) and
    the ``taint-deterministic-sink`` rule (sink-site checking).
    """

    def __init__(
        self,
        *,
        project: "ProjectContext | None",
        module: str,
        strip_keys: frozenset[str],
        summaries: "set[str] | frozenset[str]",
    ):
        self.project = project
        self.module = module
        self.strip_keys = strip_keys
        self.summaries = summaries

    # Scope scanning ----------------------------------------------------------

    def scan_body(self, body: list[ast.stmt]) -> set[str]:
        """Tainted local names after a forward pass over ``body``.

        Two passes so taint assigned late in a loop body reaches uses
        earlier in the next iteration.
        """
        tainted: set[str] = set()
        for _ in range(2):
            self._pass(body, tainted)
        return tainted

    def _pass(self, body: list[ast.stmt], tainted: set[str]) -> None:
        for stmt in body:
            if isinstance(stmt, (*_FuncDef, ast.ClassDef)):
                continue  # separate scope
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                value = stmt.value
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                if value is None:
                    continue
                is_tainted = self.expr_tainted(value, tainted)
                for target in targets:
                    for name in _target_names(target):
                        if is_tainted:
                            tainted.add(name)
                        else:
                            tainted.discard(name)
            elif isinstance(stmt, ast.AugAssign):
                if isinstance(stmt.target, ast.Name) and self.expr_tainted(
                    stmt.value, tainted
                ):
                    tainted.add(stmt.target.id)
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                if self.expr_tainted(stmt.iter, tainted):
                    tainted.update(_target_names(stmt.target))
                self._pass(stmt.body, tainted)
                self._pass(stmt.orelse, tainted)
            elif isinstance(stmt, (ast.While, ast.If)):
                self._pass(stmt.body, tainted)
                self._pass(stmt.orelse, tainted)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    if item.optional_vars is not None and self.expr_tainted(
                        item.context_expr, tainted
                    ):
                        tainted.update(_target_names(item.optional_vars))
                self._pass(stmt.body, tainted)
            elif isinstance(stmt, ast.Try):
                self._pass(stmt.body, tainted)
                for handler in stmt.handlers:
                    self._pass(handler.body, tainted)
                self._pass(stmt.orelse, tainted)
                self._pass(stmt.finalbody, tainted)

    def returns_tainted(self, fn: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
        """True when some ``return``/``yield`` value of ``fn`` is tainted."""
        tainted = self.scan_body(fn.body)
        for node in walk_scope(fn.body):
            if isinstance(node, ast.Return) and node.value is not None:
                if self.expr_tainted(node.value, tainted):
                    return True
            elif isinstance(node, (ast.Yield, ast.YieldFrom)) and node.value is not None:
                if self.expr_tainted(node.value, tainted):
                    return True
        return False

    # Expression taint --------------------------------------------------------

    def expr_tainted(self, expr: ast.expr, tainted: set[str]) -> bool:
        if isinstance(expr, ast.Name):
            return expr.id in tainted
        if isinstance(expr, ast.Call):
            return self._call_tainted(expr, tainted)
        if isinstance(expr, ast.Attribute):
            if is_env_source_expr(expr):
                return True
            return self.expr_tainted(expr.value, tainted)
        if isinstance(expr, ast.Subscript):
            return self.expr_tainted(expr.value, tainted)
        if isinstance(expr, ast.BinOp):
            return self.expr_tainted(expr.left, tainted) or self.expr_tainted(
                expr.right, tainted
            )
        if isinstance(expr, ast.UnaryOp):
            return self.expr_tainted(expr.operand, tainted)
        if isinstance(expr, ast.BoolOp):
            return any(self.expr_tainted(v, tainted) for v in expr.values)
        if isinstance(expr, ast.Compare):
            return False  # a comparison result is a bool, not a wall value
        if isinstance(expr, ast.IfExp):
            return self.expr_tainted(expr.body, tainted) or self.expr_tainted(
                expr.orelse, tainted
            )
        if isinstance(expr, ast.Dict):
            for key, value in zip(expr.keys, expr.values):
                if (
                    key is not None
                    and isinstance(key, ast.Constant)
                    and isinstance(key.value, str)
                    and key.value in self.strip_keys
                ):
                    continue  # laundered: the deterministic views strip it
                if value is not None and self.expr_tainted(value, tainted):
                    return True
            return False
        if isinstance(expr, (ast.List, ast.Tuple, ast.Set)):
            return any(self.expr_tainted(e, tainted) for e in expr.elts)
        if isinstance(expr, ast.JoinedStr):
            return any(
                isinstance(v, ast.FormattedValue) and self.expr_tainted(v.value, tainted)
                for v in expr.values
            )
        if isinstance(expr, ast.FormattedValue):
            return self.expr_tainted(expr.value, tainted)
        if isinstance(expr, ast.Starred):
            return self.expr_tainted(expr.value, tainted)
        if isinstance(expr, ast.NamedExpr):
            return self.expr_tainted(expr.value, tainted)
        if isinstance(expr, ast.Await):
            return self.expr_tainted(expr.value, tainted)
        if isinstance(expr, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            return self.expr_tainted(expr.elt, tainted) or any(
                self.expr_tainted(g.iter, tainted) for g in expr.generators
            )
        if isinstance(expr, ast.DictComp):
            return self.expr_tainted(expr.value, tainted) or any(
                self.expr_tainted(g.iter, tainted) for g in expr.generators
            )
        return False

    def _call_tainted(self, call: ast.Call, tainted: set[str]) -> bool:
        if is_wall_source_call(call):
            return True
        name = dotted_name(call.func)
        if name is not None and self.project is not None:
            resolved = self.project.resolve_function(self.module, name)
            if resolved is not None:
                return resolved in self.summaries
            kind = self.project.resolved_kind(self.module, name)
            if kind == "class":
                # Project dataclasses segregate wall fields under strip
                # keys by contract; the instance itself is clean.
                return False
        # Unresolved (builtin / third-party / method) call: conservatively
        # propagate receiver and argument taint, laundering strip kwargs.
        if isinstance(call.func, ast.Attribute) and self.expr_tainted(
            call.func.value, tainted
        ):
            return True
        for arg in call.args:
            if self.expr_tainted(arg, tainted):
                return True
        for keyword in call.keywords:
            if keyword.arg is not None and keyword.arg in self.strip_keys:
                continue
            if self.expr_tainted(keyword.value, tainted):
                return True
        return False


def _target_names(target: ast.expr) -> list[str]:
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        names: list[str] = []
        for element in target.elts:
            names.extend(_target_names(element))
        return names
    if isinstance(target, ast.Starred):
        return _target_names(target.value)
    return []


def walk_scope(body: list[ast.stmt]) -> Iterator[ast.AST]:
    """Walk statements without descending into nested function/class scopes.

    Nested ``def``/``class``/``lambda`` nodes themselves are yielded (a
    rule may care that they exist) but their bodies belong to a different
    scope and are not entered.
    """
    stack: list[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (*_FuncDef, ast.ClassDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def iter_scopes(
    tree: ast.Module,
) -> Iterator[tuple[str, list[ast.stmt]]]:
    """Every taint scope of a module: ``("<module>", body)`` plus one
    entry per function (any nesting depth), labelled by qualname suffix."""
    yield "<module>", tree.body

    # Functions at any depth (inside ifs, classes, other functions).
    def deep(body: list[ast.stmt], prefix: str) -> Iterator[tuple[str, list[ast.stmt]]]:
        for stmt in body:
            if isinstance(stmt, _FuncDef):
                qualname = f"{prefix}{stmt.name}"
                yield qualname, stmt.body
                yield from deep(stmt.body, f"{qualname}.")
            elif isinstance(stmt, ast.ClassDef):
                yield from deep(stmt.body, f"{prefix}{stmt.name}.")
            else:
                for block_name in ("body", "orelse", "finalbody"):
                    block = getattr(stmt, block_name, None)
                    if isinstance(block, list):
                        yield from deep(block, prefix)
                for handler in getattr(stmt, "handlers", []):
                    yield from deep(handler.body, prefix)

    yield from deep(tree.body, "")
