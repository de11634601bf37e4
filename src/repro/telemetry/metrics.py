"""Metrics: counters, gauges, fixed-bucket histograms, and their registry.

Series are identified by a metric name plus a frozen label set, Prometheus
style: ``registry.counter("frames_dropped", detector="vehicle")`` and
``... detector="pedestrian"`` are two series of one metric.  Histograms use
*fixed* bucket boundaries chosen at creation so merging and exporting never
re-bins.  ``snapshot()`` returns plain dicts — the exporters and the CLI
``telemetry`` summary consume exactly that shape.

The module also owns the shared timing helpers (:func:`throughput_mbs`,
:class:`Stopwatch`) that the reconfiguration experiments and the benchmark
harness previously each computed by hand.
"""

from __future__ import annotations

import time
from typing import Any, Iterable, Mapping

from repro.errors import ConfigurationError

#: Default histogram buckets (seconds) spanning DMA setup (~1 µs) to drives.
DEFAULT_TIME_BUCKETS_S = (
    1e-6, 1e-5, 1e-4, 1e-3, 5e-3, 0.01, 0.02, 0.05, 0.1, 0.5, 1.0, 10.0
)

#: Default buckets for millisecond-valued histograms (reconfig, stages).
DEFAULT_MS_BUCKETS = (0.01, 0.1, 1.0, 5.0, 10.0, 20.0, 25.0, 50.0, 100.0, 1000.0)

#: Buckets for small-count histograms (detections per frame).
DETECTIONS_BUCKETS = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0)


def throughput_mbs(n_bytes: float, elapsed_s: float) -> float:
    """Decimal MB/s, the unit the paper reports (0.0 for empty intervals).

    The single definition of bytes/elapsed-time throughput: the PR
    controller reports, the Section IV-A experiment, and the benchmark
    harness all call this rather than re-deriving the formula.
    """
    if elapsed_s <= 0:
        return 0.0
    return n_bytes / elapsed_s / 1e6


class Stopwatch:
    """Wall-clock context manager: ``with Stopwatch() as sw: ...; sw.elapsed_s``."""

    def __init__(self, wall_clock=None):
        self._clock = wall_clock or time.perf_counter
        self.start_s = 0.0
        self.elapsed_s = 0.0

    def __enter__(self) -> "Stopwatch":
        self.start_s = self._clock()
        return self

    def __exit__(self, *exc_info) -> None:
        self.elapsed_s = self._clock() - self.start_s

    def throughput_mbs(self, n_bytes: float) -> float:
        return throughput_mbs(n_bytes, self.elapsed_s)


def _label_key(labels: Mapping[str, Any]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count (frames, faults, bytes)."""

    kind = "counter"

    def __init__(self, name: str, labels: Mapping[str, str]):
        self.name = name
        self.labels = dict(labels)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ConfigurationError(f"counter {self.name}: cannot decrease (by {amount})")
        self.value += amount

    def merge(self, other: "Counter") -> None:
        """Fold another series of the same counter in: counts add."""
        _check_mergeable(self, other)
        self.value += other.value

    def to_dict(self) -> dict:
        return {"kind": self.kind, "name": self.name, "labels": self.labels, "value": self.value}


class Gauge:
    """A point-in-time value (queue depth, active configuration, MB/s)."""

    kind = "gauge"

    def __init__(self, name: str, labels: Mapping[str, str]):
        self.name = name
        self.labels = dict(labels)
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def merge(self, other: "Gauge") -> None:
        """Fold another series of the same gauge in: last writer wins.

        A gauge is a point-in-time value, so there is no meaningful sum;
        the merged series reports the incoming value.  Last-writer-wins is
        associative, which the fold-order tests rely on.
        """
        _check_mergeable(self, other)
        self.value = other.value

    def to_dict(self) -> dict:
        return {"kind": self.kind, "name": self.name, "labels": self.labels, "value": self.value}


class Histogram:
    """Fixed-boundary histogram with sum/count/min/max.

    ``bounds`` are the *upper* edges of the finite buckets; one implicit
    overflow bucket catches everything above the last edge.
    """

    kind = "histogram"

    def __init__(self, name: str, labels: Mapping[str, str], bounds: Iterable[float]):
        self.name = name
        self.labels = dict(labels)
        self.bounds = tuple(float(b) for b in bounds)
        if not self.bounds:
            raise ConfigurationError(f"histogram {name}: needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(self.bounds, self.bounds[1:])):
            raise ConfigurationError(f"histogram {name}: bounds must increase, got {self.bounds}")
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = None
        self.max = None

    def observe(self, value: float) -> None:
        value = float(value)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[i] += 1
                break
        else:
            self.bucket_counts[-1] += 1
        self.count += 1
        self.sum += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram of the same series in, bucket by bucket.

        Both series must share bucket bounds (they always do when built
        from the same instrumentation site — bounds are fixed at creation
        precisely so merging never re-bins).  Counts and sums add; min/max
        fold; no observation is ever double-counted because the fold is a
        plain element-wise sum.
        """
        _check_mergeable(self, other)
        if self.bounds != other.bounds:
            raise ConfigurationError(
                f"histogram {self.name}: cannot merge differing bounds "
                f"{self.bounds} vs {other.bounds}"
            )
        for i, n in enumerate(other.bucket_counts):
            self.bucket_counts[i] += n
        self.count += other.count
        self.sum += other.sum
        if other.min is not None:
            self.min = other.min if self.min is None else min(self.min, other.min)
        if other.max is not None:
            self.max = other.max if self.max is None else max(self.max, other.max)

    def percentile(self, q: float) -> float | None:
        """Estimate the ``q``-th percentile (0..100) from the fixed buckets.

        Linear interpolation within the bucket holding the target rank,
        using the observed min/max to bound the open-ended first and
        overflow buckets.  ``None`` for an empty histogram.  The estimate
        is clamped to ``[min, max]``, so degenerate single-bucket series
        still report sane values.
        """
        if not 0.0 <= q <= 100.0:
            raise ConfigurationError(f"percentile q must be in [0, 100], got {q}")
        if self.count == 0 or self.min is None or self.max is None:
            return None
        target = q / 100.0 * self.count
        cumulative = 0
        for i, bucket_count in enumerate(self.bucket_counts):
            if cumulative + bucket_count < target or bucket_count == 0:
                cumulative += bucket_count
                continue
            # Bucket i spans (lo, hi]; bound open edges by observations.
            lo = self.bounds[i - 1] if i > 0 else min(self.min, self.bounds[0])
            hi = self.bounds[i] if i < len(self.bounds) else self.max
            frac = (target - cumulative) / bucket_count
            estimate = lo + (hi - lo) * frac
            return min(self.max, max(self.min, estimate))
        return self.max

    def percentiles(self, qs: Iterable[float] = (50.0, 90.0, 99.0)) -> dict[str, float]:
        """``{"p50": ..., ...}`` estimates (empty dict for no samples)."""
        out: dict[str, float] = {}
        for q in qs:
            value = self.percentile(q)
            if value is not None:
                out[f"p{q:g}"] = value
        return out

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "name": self.name,
            "labels": self.labels,
            "bounds": list(self.bounds),
            "bucket_counts": list(self.bucket_counts),
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "percentiles": self.percentiles(),
        }


class MetricsRegistry:
    """Get-or-create home of every labelled series.

    A series is keyed by (name, labels); asking again with the same key
    returns the same object, so instrumentation sites never need to hold
    references across calls.
    """

    def __init__(self) -> None:
        self._series: dict[tuple[str, str, tuple], Any] = {}
        #: (kind, name, label items in call order) -> series, for labels
        #: whose values are all ``str``: finding an existing series is one
        #: dict lookup, with no label sort.  (A non-``str`` value equal to a
        #: ``str`` would have to render as that ``str`` to be found here.)
        self._found: dict[tuple, Any] = {}

    def _get(self, kind: str, name: str, labels: Mapping[str, Any], factory):
        key = (kind, name, _label_key(labels))
        series = self._series.get(key)
        if series is None:
            series = factory()
            self._series[key] = series
        if all(type(value) is str for value in labels.values()):
            self._found[(kind, name, tuple(labels.items()))] = series
        return series

    def counter(self, name: str, **labels: Any) -> Counter:
        series = self._found.get(("counter", name, tuple(labels.items())))
        if series is None:
            series = self._get("counter", name, labels, lambda: Counter(name, _as_str(labels)))
        return series

    def gauge(self, name: str, **labels: Any) -> Gauge:
        series = self._found.get(("gauge", name, tuple(labels.items())))
        if series is None:
            series = self._get("gauge", name, labels, lambda: Gauge(name, _as_str(labels)))
        return series

    def histogram(
        self, name: str, bounds: Iterable[float] = DEFAULT_MS_BUCKETS, **labels: Any
    ) -> Histogram:
        series = self._found.get(("histogram", name, tuple(labels.items())))
        if series is None:
            series = self._get(
                "histogram", name, labels, lambda: Histogram(name, _as_str(labels), bounds)
            )
        return series

    def __len__(self) -> int:
        return len(self._series)

    def series(self) -> list[Any]:
        """All series in creation order."""
        return list(self._series.values())

    def snapshot(self) -> list[dict]:
        """Plain-data dump of every series (the exporters' input)."""
        return [series.to_dict() for series in self._series.values()]

    def value(self, name: str, **labels: Any) -> float | None:
        """Convenience read of one counter/gauge value (None if absent)."""
        key_labels = _label_key(labels)
        for (kind, series_name, lk), series in self._series.items():
            if series_name == name and lk == key_labels and kind in ("counter", "gauge"):
                return series.value
        return None

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold another registry into this one, series by series.

        Per-worker registries fold into a fleet-level registry without
        double-counting: counters add, histograms add bucket-wise, gauges
        take the incoming value.  Series missing on either side are simply
        carried over.  The fold is associative (the merge unit tests pin
        this), so workers can be merged in any grouping.  Returns ``self``
        for chaining.
        """
        for key, series in other._series.items():
            mine = self._series.get(key)
            if mine is None:
                kind, name, _ = key
                if kind == "histogram":
                    mine = Histogram(name, series.labels, series.bounds)
                elif kind == "counter":
                    mine = Counter(name, series.labels)
                else:
                    mine = Gauge(name, series.labels)
                self._series[key] = mine
            mine.merge(series)
        return self


def _as_str(labels: Mapping[str, Any]) -> dict[str, str]:
    return {str(k): str(v) for k, v in labels.items()}


def _check_mergeable(mine: Any, other: Any) -> None:
    if mine.kind != other.kind or mine.name != other.name:
        raise ConfigurationError(
            f"cannot merge {other.kind} {other.name!r} into {mine.kind} {mine.name!r}"
        )


def _snapshot_key(series: Mapping) -> tuple:
    return (series["kind"], series["name"], _label_key(series.get("labels", {})))


def _series_from_dict(series: Mapping) -> Any:
    """Rebuild a live series object from one snapshot dict."""
    kind, name, labels = series["kind"], series["name"], dict(series.get("labels", {}))
    if kind == "counter":
        out: Any = Counter(name, labels)
        out.value = float(series.get("value", 0.0))
    elif kind == "gauge":
        out = Gauge(name, labels)
        out.value = float(series.get("value", 0.0))
    elif kind == "histogram":
        out = Histogram(name, labels, series["bounds"])
        counts = list(series.get("bucket_counts", []))
        if len(counts) != len(out.bucket_counts):
            raise ConfigurationError(
                f"histogram {name}: snapshot has {len(counts)} bucket counts, "
                f"bounds imply {len(out.bucket_counts)}"
            )
        out.bucket_counts = [int(n) for n in counts]
        out.count = int(series.get("count", 0))
        out.sum = float(series.get("sum", 0.0))
        out.min = series.get("min")
        out.max = series.get("max")
    else:
        raise ConfigurationError(f"unknown metric kind {kind!r} in snapshot")
    return out


def merge_snapshots(*snapshots: Iterable[Mapping]) -> list[dict]:
    """Fold exported metric snapshots (plain dicts) into one snapshot.

    This is the cross-process twin of :meth:`MetricsRegistry.merge`: fleet
    workers ship :meth:`MetricsRegistry.snapshot` output (or a reloaded
    JSONL dump's ``metrics`` list) across process boundaries as plain
    data, and the aggregator folds them here without ever rebuilding the
    original sessions.  Same semantics — counters add, histograms add
    bucket-wise (bounds must agree), gauges last-writer-win — and the
    same associativity guarantee.  Series order follows first appearance.
    """
    merged: dict[tuple, Any] = {}
    for snapshot in snapshots:
        for series in snapshot:
            key = _snapshot_key(series)
            incoming = _series_from_dict(series)
            mine = merged.get(key)
            if mine is None:
                merged[key] = incoming
            else:
                mine.merge(incoming)
    return [series.to_dict() for series in merged.values()]


def snapshot_values(snapshot: Iterable[Mapping]) -> dict[str, dict[tuple, float]]:
    """Index an exported snapshot: name -> {sorted-label-tuple -> value}.

    Works on the plain dicts from :meth:`MetricsRegistry.snapshot` (or a
    reloaded JSONL dump); histograms report their mean.
    """
    table: dict[str, dict[tuple, float]] = {}
    for series in snapshot:
        labels = _label_key(series.get("labels", {}))
        if series["kind"] == "histogram":
            count = series.get("count", 0)
            value = series.get("sum", 0.0) / count if count else 0.0
        else:
            value = series.get("value", 0.0)
        table.setdefault(series["name"], {})[labels] = value
    return table
