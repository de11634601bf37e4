"""The telemetry session: one tracer + one metrics registry + metadata.

A :class:`Telemetry` object is what gets threaded through the layers
(``ZynqSoC``, ``AdaptiveDetectionSystem``, the detection pipelines, the
CLI).  The module-level :data:`NULL_TELEMETRY` is the off-by-default
instance: disabled, allocation-free, and shared — instrumented code either
checks ``telemetry.enabled`` or calls straight through, and both cost
nothing when telemetry is off.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from repro.telemetry.metrics import (
    DEFAULT_MS_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.spans import NullTracer, Span, Tracer


class _NullSeries:
    """Inert counter/gauge/histogram accepted anywhere a real one is."""

    __slots__ = ()

    value = 0.0
    count = 0
    sum = 0.0
    mean = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def percentile(self, q: float) -> None:
        return None

    def percentiles(self, qs=()) -> dict:
        return {}


_NULL_SERIES = _NullSeries()


class NullMetrics:
    """No-op metrics registry backing :data:`NULL_TELEMETRY`."""

    def counter(self, name: str, **labels: Any) -> _NullSeries:
        return _NULL_SERIES

    def gauge(self, name: str, **labels: Any) -> _NullSeries:
        return _NULL_SERIES

    def histogram(self, name: str, bounds: Iterable[float] = (), **labels: Any) -> _NullSeries:
        return _NULL_SERIES

    def __len__(self) -> int:
        return 0

    def series(self) -> list:
        return []

    def snapshot(self) -> list[dict]:
        return []

    def value(self, name: str, **labels: Any) -> None:
        return None


class _StageContext:
    """Span + wall-time histogram observation for one pipeline stage."""

    __slots__ = ("_telemetry", "_name", "_attrs", "_ctx", "_span")

    def __init__(self, telemetry: "Telemetry", name: str, attrs: dict[str, Any]):
        self._telemetry = telemetry
        self._name = name
        self._attrs = attrs
        self._ctx = telemetry.tracer.span(name, **attrs)
        self._span = None

    def __enter__(self) -> Span:
        self._span = self._ctx.__enter__()
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        self._ctx.__exit__(exc_type, exc, tb)
        span = self._span
        if span is not None and getattr(span, "wall_end_s", None) is not None:
            self._telemetry.metrics.histogram("stage_wall_ms", stage=self._name).observe(
                span.wall_duration_s * 1e3
            )


class Telemetry:
    """One observation session: spans, metrics, and run metadata."""

    def __init__(
        self,
        tracer: Tracer | NullTracer | None = None,
        metrics: MetricsRegistry | NullMetrics | None = None,
        meta: dict[str, Any] | None = None,
    ):
        self.tracer = tracer if tracer is not None else NullTracer()
        if metrics is not None:
            self.metrics = metrics
        else:
            self.metrics = MetricsRegistry() if self.tracer.enabled else NullMetrics()
        self.meta: dict[str, Any] = dict(meta or {})

    @property
    def enabled(self) -> bool:
        return self.tracer.enabled

    @classmethod
    def recording(
        cls,
        clock: Callable[[], float] | None = None,
        wall_clock: Callable[[], float] | None = None,
        max_spans: int | None = None,
        meta: dict[str, Any] | None = None,
    ) -> "Telemetry":
        """An enabled session (optionally bound to a simulator clock)."""
        return cls(
            tracer=Tracer(clock=clock, wall_clock=wall_clock, max_spans=max_spans),
            metrics=MetricsRegistry(),
            meta=meta,
        )

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Point the tracer's sim clock at a simulator created after it."""
        if self.enabled:
            self.tracer.clock = clock

    # Shorthand instrumentation surface --------------------------------------

    def span(self, name: str, **attrs: Any):
        return self.tracer.span(name, **attrs)

    def event(self, name: str, time_s: float | None = None, **attrs: Any) -> None:
        self.tracer.event(name, time_s=time_s, **attrs)

    def stage(self, name: str, **attrs: Any):
        """Span a pipeline stage and histogram its wall time (ms)."""
        if not self.enabled:
            from repro.telemetry.spans import NULL_SPAN

            return NULL_SPAN
        return _StageContext(self, name, attrs)

    def counter(self, name: str, **labels: Any) -> Counter | _NullSeries:
        return self.metrics.counter(name, **labels)

    def gauge(self, name: str, **labels: Any) -> Gauge | _NullSeries:
        return self.metrics.gauge(name, **labels)

    def histogram(
        self, name: str, bounds: Iterable[float] = DEFAULT_MS_BUCKETS, **labels: Any
    ) -> Histogram | _NullSeries:
        return self.metrics.histogram(name, bounds=bounds, **labels)


#: The off-by-default session every instrumented layer falls back to.
NULL_TELEMETRY = Telemetry(tracer=NullTracer(), metrics=NullMetrics())
