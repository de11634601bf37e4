"""Structured tracing, metrics, and profiling for the reproduction.

See TELEMETRY.md at the repository root.  Its modules:

* :mod:`repro.telemetry.spans` — the tracing core: :class:`Span`,
  :class:`SpanEvent`, the recording :class:`Tracer`, and the zero-cost
  :class:`NullTracer` default;
* :mod:`repro.telemetry.metrics` — :class:`Counter` / :class:`Gauge` /
  fixed-bucket :class:`Histogram` series in a :class:`MetricsRegistry`,
  plus the shared timing helpers (:func:`throughput_mbs`,
  :class:`Stopwatch`);
* :mod:`repro.telemetry.exporters` — JSONL, Chrome ``trace_event``
  (Perfetto-loadable), and plain-text report exporters with a
  format-sniffing loader for the ``python -m repro telemetry`` summary;
* :mod:`repro.telemetry.openmetrics` — OpenMetrics text exposition
  (render/parse/export) for metrics snapshots, so a fleet run scrapes
  like any production service;
* :mod:`repro.telemetry.profile` — the span profiler behind
  ``python -m repro telemetry --top``: self-vs-child rollups, per-frame
  percentiles and collapsed stacks over recorded spans (see PERF.md).

:class:`Telemetry` bundles one tracer and one registry into the session
object that `ZynqSoC`, `AdaptiveDetectionSystem`, and the pipelines accept;
:data:`NULL_TELEMETRY` is the shared off-by-default instance — with it, all
instrumentation collapses to a single attribute check.
"""

from repro.telemetry.exporters import (
    TELEMETRY_FORMATS,
    TelemetryDump,
    export,
    export_chrome,
    export_jsonl,
    export_text,
    filter_spans,
    load_dump,
    render_report,
    summarize_file,
)
from repro.telemetry.metrics import (
    DEFAULT_MS_BUCKETS,
    DEFAULT_TIME_BUCKETS_S,
    DETECTIONS_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Stopwatch,
    merge_snapshots,
    snapshot_values,
    throughput_mbs,
)
from repro.telemetry.openmetrics import (
    export_openmetrics,
    parse_openmetrics,
    render_openmetrics,
    write_exposition,
)
from repro.telemetry.session import NULL_TELEMETRY, NullMetrics, Telemetry
from repro.telemetry.spans import NULL_SPAN, NullTracer, Span, SpanEvent, Tracer

__all__ = [
    "Counter",
    "DEFAULT_MS_BUCKETS",
    "DEFAULT_TIME_BUCKETS_S",
    "DETECTIONS_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_SPAN",
    "NULL_TELEMETRY",
    "NullMetrics",
    "NullTracer",
    "Span",
    "SpanEvent",
    "Stopwatch",
    "TELEMETRY_FORMATS",
    "Telemetry",
    "TelemetryDump",
    "Tracer",
    "export",
    "export_chrome",
    "export_jsonl",
    "export_openmetrics",
    "export_text",
    "filter_spans",
    "load_dump",
    "merge_snapshots",
    "parse_openmetrics",
    "render_openmetrics",
    "render_report",
    "snapshot_values",
    "summarize_file",
    "throughput_mbs",
    "write_exposition",
]
