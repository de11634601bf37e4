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

:class:`~repro.telemetry.session.Telemetry` bundles one tracer and one
registry into the session object that `ZynqSoC`, `AdaptiveDetectionSystem`,
and the pipelines accept; :data:`~repro.telemetry.session.NULL_TELEMETRY` is
the shared off-by-default instance — with it, all instrumentation collapses
to a single attribute check.
"""
