"""reprolint framework: violations, the rule registry, and the driver.

A rule is a class with an ``id``, a ``family``, a one-line ``summary``,
and a ``check(module)`` generator over :class:`Violation`.  Rules register
themselves with the :func:`register` decorator at import time.  The driver
parses every file once, builds a single whole-program
:class:`~repro.analysis.project.ProjectContext` (import graph, symbol
table, call edges, taint summaries), and hands every enabled rule one
:class:`ModuleContext` per file with the project attached — so rules can
reason across file boundaries, not just within one AST.

Suppressions are noqa-style comments tied to the violation's line::

    x = wall_clock()            # reprolint: skip
    y = wall_clock()            # reprolint: skip=determinism-clock

plus a whole-file form, honoured only within the first
``_SKIP_FILE_SCAN_LINES`` lines: ``reprolint: skip-file`` or
``reprolint: skip-file=unit-suffix,public-api`` as a comment near the top
of the file.  A blanket ``skip`` silences every rule on that line; a
``skip=`` list silences only the named rules.  Pragmas are read from real
comment tokens — pragma-shaped text inside string literals (like the
examples above) is ignored.  The ``suppression-hygiene`` rule reports
pragmas that name unknown rules or place ``skip-file`` too late to work.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.analysis.config import DEFAULT_CONFIG, LintConfig
from repro.analysis.project import ParsedModule, ProjectContext, parse_module
from repro.errors import ConfigurationError

_PRAGMA = re.compile(r"#\s*reprolint:\s*(skip-file|skip)(?:=([\w,-]+))?")
_SKIP_FILE_SCAN_LINES = 10


@dataclass(frozen=True)
class Violation:
    """One rule firing at one source location."""

    rule_id: str
    path: str
    line: int
    col: int
    message: str

    def to_dict(self) -> dict:
        return {
            "rule": self.rule_id,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: [{self.rule_id}] {self.message}"


@dataclass(frozen=True)
class Pragma:
    """One ``# reprolint:`` comment, as found by the tokenizer."""

    line: int
    col: int
    kind: str  # "skip" | "skip-file"
    rules: tuple[str, ...]  # empty tuple = blanket (all rules)


def scan_pragmas(source: str) -> list[Pragma]:
    """Every ``# reprolint:`` pragma in real comment tokens.

    Tokenizing (rather than regex-scanning raw lines) means pragma-shaped
    text inside docstrings and string literals never creates a phantom
    suppression.  Falls back to the line scan only if tokenization fails.
    """
    pragmas: list[Pragma] = []
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type != tokenize.COMMENT:
                continue
            match = _PRAGMA.search(tok.string)
            if match is None:
                continue
            kind, names = match.groups()
            rules = tuple(n for n in names.split(",") if n) if names else ()
            pragmas.append(
                Pragma(line=tok.start[0], col=tok.start[1] + 1, kind=kind, rules=rules)
            )
    except (tokenize.TokenError, SyntaxError, IndentationError):
        for lineno, text in enumerate(source.splitlines(), start=1):
            match = _PRAGMA.search(text)
            if match is None:
                continue
            kind, names = match.groups()
            rules = tuple(n for n in names.split(",") if n) if names else ()
            pragmas.append(Pragma(line=lineno, col=match.start() + 1, kind=kind, rules=rules))
    return pragmas


@dataclass
class _Suppressions:
    """Parsed pragma comments for one file."""

    file_wide: set[str] = field(default_factory=set)  # rule ids; "*" = all
    by_line: dict[int, set[str]] = field(default_factory=dict)

    def suppressed(self, violation: Violation) -> bool:
        if "*" in self.file_wide or violation.rule_id in self.file_wide:
            return True
        rules = self.by_line.get(violation.line)
        if rules is None:
            return False
        return "*" in rules or violation.rule_id in rules


def _suppressions_from_pragmas(pragmas: Iterable[Pragma]) -> _Suppressions:
    sup = _Suppressions()
    for pragma in pragmas:
        rules = set(pragma.rules) if pragma.rules else {"*"}
        if pragma.kind == "skip-file":
            # Late skip-file pragmas are inert; suppression-hygiene flags them.
            if pragma.line <= _SKIP_FILE_SCAN_LINES:
                sup.file_wide |= rules
        else:
            sup.by_line.setdefault(pragma.line, set()).update(rules)
    return sup


@dataclass
class ModuleContext:
    """Everything a rule sees for one parsed file."""

    path: str
    module: str  # dotted name, e.g. "repro.zynq.bitstream"
    tree: ast.Module
    source_lines: list[str]
    config: LintConfig
    project: ProjectContext | None = None
    pragmas: list[Pragma] = field(default_factory=list)

    _parents: dict[ast.AST, ast.AST] = field(default_factory=dict, repr=False)

    def parent(self, node: ast.AST) -> ast.AST | None:
        """The syntactic parent of ``node`` (computed lazily, cached)."""
        if not self._parents:
            for parent in ast.walk(self.tree):
                for child in ast.iter_child_nodes(parent):
                    self._parents[child] = parent
        return self._parents.get(node)

    @property
    def summary(self):
        """This module's slice of the project symbol table (or ``None``)."""
        if self.project is None:
            return None
        return self.project.summaries.get(self.module)


class Rule:
    """Base class: subclasses override ``id``, ``family``, ``summary``,
    ``check``."""

    id: str = ""
    family: str = "general"
    summary: str = ""

    def check(self, module: ModuleContext) -> Iterator[Violation]:
        raise NotImplementedError

    def violation(
        self, module: ModuleContext, node: ast.AST, message: str
    ) -> Violation:
        """Convenience constructor anchored at ``node``."""
        return Violation(
            rule_id=self.id,
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
        )


_REGISTRY: dict[str, Rule] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding one instance of ``cls`` to the registry."""
    if not cls.id:
        raise ConfigurationError(f"rule {cls.__name__} has no id")
    if cls.id in _REGISTRY:
        raise ConfigurationError(f"duplicate rule id {cls.id!r}")
    _REGISTRY[cls.id] = cls()
    return cls


def all_rules() -> list[Rule]:
    """Every registered rule, sorted by id."""
    _load_rules()
    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]


def get_rule(rule_id: str) -> Rule:
    """Look one rule up by id."""
    _load_rules()
    if rule_id not in _REGISTRY:
        raise ConfigurationError(
            f"unknown rule {rule_id!r} (known: {', '.join(sorted(_REGISTRY))})"
        )
    return _REGISTRY[rule_id]


def _load_rules() -> None:
    # Importing the package triggers every @register decorator exactly once.
    import repro.analysis.rules  # noqa: F401


def module_name_for(path: Path) -> str:
    """Dotted module name for ``path``, anchored at the ``repro`` package.

    Files outside a ``repro`` package tree (tests, scratch files) get a
    name derived from their stem, which places them outside every
    domain-scoped rule.
    """
    parts = list(path.with_suffix("").parts)
    if "repro" in parts:
        parts = parts[parts.index("repro"):]
    else:
        parts = [path.stem]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) or path.stem


def _syntax_error_violation(exc: SyntaxError, path: str) -> Violation:
    return Violation(
        rule_id="syntax-error",
        path=path,
        line=exc.lineno or 1,
        col=(exc.offset or 0) + 1,
        message=f"cannot parse: {exc.msg}",
    )


def _check_module(
    parsed: ParsedModule,
    source: str,
    config: LintConfig,
    project: ProjectContext,
) -> list[Violation]:
    """Run every enabled rule over one parsed module."""
    ctx = ModuleContext(
        path=parsed.path,
        module=parsed.module,
        tree=parsed.tree,
        source_lines=parsed.source_lines,
        config=config,
        project=project,
        pragmas=scan_pragmas(source),
    )
    suppressions = _suppressions_from_pragmas(ctx.pragmas)
    found: list[Violation] = []
    for rule in all_rules():
        if not config.rule_enabled(rule.id):
            continue
        for violation in rule.check(ctx):
            if not suppressions.suppressed(violation):
                found.append(violation)
    return found


def analyze_sources(
    items: Sequence[tuple[str, str, str]],
    config: LintConfig | None = None,
) -> list[Violation]:
    """Whole-program analysis over ``(path, module, source)`` triples.

    Every module is parsed first; one :class:`ProjectContext` is built
    over all of them; then per-module rules run.  Unparseable files
    yield a ``syntax-error`` pseudo-violation and are left out of the
    project graph.
    """
    cfg = config or DEFAULT_CONFIG
    violations: list[Violation] = []
    parsed_modules: list[ParsedModule] = []
    sources: dict[str, str] = {}
    for path, module, source in items:
        try:
            parsed = parse_module(source, module=module, path=path)
        except SyntaxError as exc:
            violations.append(_syntax_error_violation(exc, path))
            continue
        if parsed.module in sources:
            # Same dotted name twice (scratch trees): keep the first for
            # the graph, still lint the second standalone below.
            solo = ProjectContext([parsed], wall_strip_keys=cfg.wall_strip_keys)
            violations.extend(_check_module(parsed, source, cfg, solo))
            continue
        parsed_modules.append(parsed)
        sources[parsed.module] = source

    _load_rules()
    project = ProjectContext(parsed_modules, wall_strip_keys=cfg.wall_strip_keys)

    for pm in parsed_modules:
        violations.extend(_check_module(pm, sources[pm.module], cfg, project))
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule_id))
    return violations


def analyze_source(
    source: str,
    *,
    module: str,
    path: str = "<string>",
    config: LintConfig | None = None,
) -> list[Violation]:
    """Run every enabled rule over one source string.

    The single module forms a one-module project, so project-backed rules
    still work (intra-module) — multi-module behaviour needs
    :func:`analyze_sources`.
    """
    return analyze_sources([(path, module, source)], config)


def iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """Expand files and directories into a sorted stream of ``*.py`` files."""
    seen: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        elif path.is_file():
            candidates = [path]
        else:
            raise ConfigurationError(f"no such file or directory: {path}")
        for candidate in candidates:
            if candidate not in seen:
                seen.add(candidate)
                yield candidate


def analyze_paths(
    paths: Iterable[str | Path],
    config: LintConfig | None = None,
) -> list[Violation]:
    """Run the whole-program analyzer over files/directories."""
    items = [
        (str(path), module_name_for(path), path.read_text(encoding="utf-8"))
        for path in iter_python_files(paths)
    ]
    return analyze_sources(items, config)
