"""Span profiler: post-hoc hot-path attribution over a recorded trace.

The profiler consumes *finished* spans — from a live :class:`Tracer`, a
reloaded :class:`TelemetryDump`, or any plain span list — and never touches
the objects it reads, so profiling a drive after the fact cannot perturb
the drive's report (the same non-perturbation invariant the telemetry
layer guarantees during recording).

Three products, per clock (simulator and host wall):

* **rollups** — per span *name*: call count, total time, and *self* time
  (total minus the time spent in child spans), the number every hot-path
  table should be ranked by;
* **frame percentiles** — p50/p90/p99 wall milliseconds of a chosen
  per-iteration span (``drive.frame`` by default);
* **collapsed stacks** — ``root;child;leaf <weight>`` lines, the format
  speedscope and Brendan Gregg's ``flamegraph.pl`` both ingest.

Ring-buffered tracers drop their oldest finished spans; a dropped parent
simply promotes its surviving children to roots.  The profile records how
many spans were known to be dropped so reports can flag partial data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.errors import ConfigurationError
from repro.telemetry.spans import Span, Tracer

#: Percentiles reported for per-frame latency tables.
FRAME_PERCENTILES = (50.0, 90.0, 99.0)


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) with linear interpolation.

    Uses the standard "linear" (type-7) estimator: rank ``(n-1) * q/100``
    interpolated between the two nearest order statistics.
    """
    if not 0.0 <= q <= 100.0:
        raise ConfigurationError(f"percentile q must be in [0, 100], got {q}")
    if not samples:
        raise ConfigurationError("percentile of an empty sample")
    ordered = sorted(float(x) for x in samples)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * q / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


@dataclass
class SpanRollup:
    """Aggregate timings for one span name."""

    name: str
    count: int = 0
    total_wall_ms: float = 0.0
    self_wall_ms: float = 0.0
    total_sim_ms: float = 0.0
    self_sim_ms: float = 0.0
    max_wall_ms: float = 0.0

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "count": self.count,
            "total_wall_ms": self.total_wall_ms,
            "self_wall_ms": self.self_wall_ms,
            "total_sim_ms": self.total_sim_ms,
            "self_sim_ms": self.self_sim_ms,
            "max_wall_ms": self.max_wall_ms,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SpanRollup":
        return cls(
            name=data["name"],
            count=int(data["count"]),
            total_wall_ms=float(data["total_wall_ms"]),
            self_wall_ms=float(data["self_wall_ms"]),
            total_sim_ms=float(data["total_sim_ms"]),
            self_sim_ms=float(data["self_sim_ms"]),
            max_wall_ms=float(data.get("max_wall_ms", 0.0)),
        )


@dataclass
class SpanProfile:
    """The rolled-up view of one recorded trace."""

    rollups: dict[str, SpanRollup] = field(default_factory=dict)
    n_spans: int = 0
    n_roots: int = 0
    #: Wall-ms samples per span name (drives the percentile tables).
    _wall_ms_by_name: dict[str, list[float]] = field(default_factory=dict, repr=False)
    #: ``name path -> total weight (wall µs)`` for the collapsed-stack export.
    _stacks: dict[tuple[str, ...], float] = field(default_factory=dict, repr=False)

    def hot_spans(self, n: int = 10) -> list[SpanRollup]:
        """Top ``n`` span names ranked by self wall time."""
        ranked = sorted(
            self.rollups.values(), key=lambda r: (-r.self_wall_ms, r.name)
        )
        return ranked[: max(0, n)]

    def frame_percentiles(
        self, name: str = "drive.frame", qs: Sequence[float] = FRAME_PERCENTILES
    ) -> dict[str, float]:
        """``{"p50": ..., "p90": ..., "p99": ...}`` wall-ms for ``name``.

        Empty dict when the span name never occurred.
        """
        samples = self._wall_ms_by_name.get(name)
        if not samples:
            return {}
        return {f"p{q:g}": percentile(samples, q) for q in qs}

    def collapsed_stacks(self) -> str:
        """Collapsed-stack text: ``a;b;c <weight>`` per line.

        Weights are integer self-time microseconds on the wall clock, the
        convention speedscope and FlameGraph expect; zero-weight stacks
        are kept (weight 1) so instantaneous events remain visible.
        """
        lines = []
        for path in sorted(self._stacks):
            weight = max(1, int(round(self._stacks[path])))
            lines.append(";".join(path) + f" {weight}")
        return "\n".join(lines)

    def render_top(self, n: int = 10) -> str:
        """The hot-span table ``python -m repro telemetry --top N`` prints."""
        lines = [
            f"hot spans (self wall time, top {n} of {len(self.rollups)} names; "
            f"{self.n_spans} spans)"
        ]
        lines.append(
            f"  {'span':<28} {'count':>6} {'self ms':>10} {'total ms':>10} "
            f"{'self %':>7} {'sim self ms':>12}"
        )
        total_self = sum(r.self_wall_ms for r in self.rollups.values())
        for rollup in self.hot_spans(n):
            share = 100.0 * rollup.self_wall_ms / total_self if total_self > 0 else 0.0
            lines.append(
                f"  {rollup.name:<28} {rollup.count:>6} {rollup.self_wall_ms:>10.3f} "
                f"{rollup.total_wall_ms:>10.3f} {share:>6.1f}% {rollup.self_sim_ms:>12.3f}"
            )
        percentiles = self.frame_percentiles()
        if percentiles:
            rendered = "  ".join(f"{k}={v:.3f}" for k, v in percentiles.items())
            lines.append(f"  drive.frame wall ms: {rendered}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """Plain-data (JSON-ready) form."""
        return {
            "n_spans": self.n_spans,
            "n_roots": self.n_roots,
            "rollups": [r.to_dict() for r in self.hot_spans(len(self.rollups))],
            "frame_wall_ms": self.frame_percentiles(),
        }


def profile_spans(spans: Iterable[Span]) -> SpanProfile:
    """Roll up a span list into a :class:`SpanProfile`.

    Unfinished spans are skipped (they have no duration yet).  A span
    whose ``parent_id`` does not resolve — the dump is partial — is
    treated as a root; its time
    is still fully attributed to its own name.
    """
    finished = [s for s in spans if s.finished]
    by_id = {s.span_id: s for s in finished}
    children: dict[int, list[Span]] = {}
    roots: list[Span] = []
    for span in finished:
        if span.parent_id is not None and span.parent_id in by_id:
            children.setdefault(span.parent_id, []).append(span)
        else:
            roots.append(span)

    profile = SpanProfile(n_spans=len(finished), n_roots=len(roots))

    def rollup(name: str) -> SpanRollup:
        entry = profile.rollups.get(name)
        if entry is None:
            entry = SpanRollup(name=name)
            profile.rollups[name] = entry
        return entry

    # Iterative stack walk (drives can record hundreds of thousands of
    # spans; recursion depth must not scale with trace size).
    for root in roots:
        stack: list[tuple[Span, tuple[str, ...]]] = [(root, (root.name,))]
        while stack:
            span, path = stack.pop()
            kids = children.get(span.span_id, ())
            wall_ms = span.wall_duration_s * 1e3
            sim_ms = span.duration_s * 1e3
            child_wall_ms = sum(k.wall_duration_s for k in kids) * 1e3
            child_sim_ms = sum(k.duration_s for k in kids) * 1e3
            self_wall_ms = max(0.0, wall_ms - child_wall_ms)
            self_sim_ms = max(0.0, sim_ms - child_sim_ms)
            entry = rollup(span.name)
            entry.count += 1
            entry.total_wall_ms += wall_ms
            entry.self_wall_ms += self_wall_ms
            entry.total_sim_ms += sim_ms
            entry.self_sim_ms += self_sim_ms
            entry.max_wall_ms = max(entry.max_wall_ms, wall_ms)
            profile._wall_ms_by_name.setdefault(span.name, []).append(wall_ms)
            profile._stacks[path] = profile._stacks.get(path, 0.0) + self_wall_ms * 1e3
            for kid in kids:
                stack.append((kid, path + (kid.name,)))
    return profile


def profile_tracer(tracer: Tracer) -> SpanProfile:
    """Profile a live recording tracer."""
    return profile_spans(tracer.spans)


def profile_dump(dump) -> SpanProfile:
    """Profile a reloaded :class:`~repro.telemetry.exporters.TelemetryDump`."""
    return profile_spans(dump.spans)
