"""Exporters: JSONL span dumps, Chrome ``trace_event`` JSON, text reports.

Three formats, one source of truth (a :class:`Telemetry` session):

* **jsonl** — one JSON object per line (``meta`` / ``span`` / ``metric``
  records); lossless, grep-able, and the canonical round-trip format.
* **chrome** — the Catapult/Perfetto ``trace_event`` array.  Simulator
  seconds map to trace microseconds, spans become complete (``"X"``)
  events grouped into one named track per component, span events become
  instant (``"i"``) events, and the metrics snapshot rides along under
  ``otherData`` so a Chrome dump still round-trips through
  :func:`load_dump`.
* **text** — the aggregate report (per-span-name timing table + metrics),
  also what ``python -m repro telemetry`` prints for a dump file.

:func:`load_dump` additionally recognises monitor *incident bundles* (a
directory holding ``manifest.json`` + ``records.jsonl``) and lifts their
embedded spans/metrics into a :class:`TelemetryDump`, so the ``telemetry``
command can summarise an incident with the same report pipeline.  The
bundle files are parsed directly here — importing :mod:`repro.monitor`
from the telemetry layer would invert the dependency.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.errors import ConfigurationError
from repro.telemetry.session import Telemetry
from repro.telemetry.spans import Span, SpanEvent

TELEMETRY_FORMATS = ("jsonl", "chrome", "text", "openmetrics")

# Reserved argument keys carrying span structure through the Chrome format.
_SPAN_ID_KEY = "__span_id__"
_PARENT_ID_KEY = "__parent_id__"
_WALL_MS_KEY = "__wall_ms__"


@dataclass
class TelemetryDump:
    """A reloaded telemetry artefact (from any exported format)."""

    meta: dict[str, Any] = field(default_factory=dict)
    spans: list[Span] = field(default_factory=list)
    metrics: list[dict] = field(default_factory=list)


def _track(span_name: str) -> str:
    """Track (Chrome tid) grouping: the component prefix of the span name."""
    return span_name.split(".", 1)[0] if "." in span_name else span_name


# Writing -------------------------------------------------------------------


def export_jsonl(telemetry: Telemetry, path: str) -> None:
    """One JSON object per line: meta, then spans, then metric series."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"type": "meta", **telemetry.meta}) + "\n")
        for span in telemetry.tracer.spans:
            fh.write(json.dumps({"type": "span", **span.to_dict()}) + "\n")
        for series in telemetry.metrics.snapshot():
            fh.write(json.dumps({"type": "metric", **series}) + "\n")


def jsonable(value: Any) -> Any:
    """A span or event attribute as a JSON primitive (``str()`` otherwise)."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def chrome_span_events(
    span: Span,
    pid: int,
    tid: int,
    ts: float,
    dur: float,
    event_ts: "Callable[[SpanEvent], float] | None" = None,
) -> list[dict]:
    """One span as a complete (``"X"``) Chrome event plus one instant
    (``"i"``) event per span event.

    ``ts``/``dur`` are the span's trace microseconds; ``event_ts`` maps a
    span event to its own timestamp (``None`` pins every instant at
    ``ts``).  The span's ids and wall duration ride in reserved ``args``
    keys so :func:`load_dump` can rebuild the span tree.
    """
    args = {k: jsonable(v) for k, v in span.attrs.items()}
    args[_SPAN_ID_KEY] = span.span_id
    if span.parent_id is not None:
        args[_PARENT_ID_KEY] = span.parent_id
    args[_WALL_MS_KEY] = round(span.wall_duration_s * 1e3, 6)
    events = [
        {
            "name": span.name,
            "ph": "X",
            "pid": pid,
            "tid": tid,
            "ts": ts,
            "dur": dur,
            "args": args,
        }
    ]
    for ev in span.events:
        events.append(
            {
                "name": ev.name,
                "ph": "i",
                "s": "t",
                "pid": pid,
                "tid": tid,
                "ts": ts if event_ts is None else event_ts(ev),
                "args": {
                    **{k: jsonable(v) for k, v in ev.attrs.items()},
                    _PARENT_ID_KEY: span.span_id,
                },
            }
        )
    return events


def export_chrome(telemetry: Telemetry, path: str) -> None:
    """Chrome ``trace_event`` JSON (open in Perfetto / chrome://tracing).

    Simulator time maps to the trace's microsecond timeline, so a 20 ms
    reconfiguration reads as 20 ms in the viewer; wall-clock duration is
    preserved per event under ``args.__wall_ms__``.
    """
    events: list[dict] = []
    tids: dict[str, int] = {}
    for span in telemetry.tracer.spans:
        tid = tids.setdefault(_track(span.name), len(tids) + 1)
        events.extend(
            chrome_span_events(
                span,
                1,
                tid,
                span.start_s * 1e6,
                span.duration_s * 1e6,
                event_ts=lambda ev: ev.time_s * 1e6,
            )
        )
    for track, tid in tids.items():
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": tid,
                "args": {"name": track},
            }
        )
    document = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"meta": telemetry.meta, "metrics": telemetry.metrics.snapshot()},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh)


def export_text(telemetry: Telemetry, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_report(telemetry.tracer.spans, telemetry.metrics.snapshot(), telemetry.meta))
        fh.write("\n")


def export(telemetry: Telemetry, path: str, format: str) -> None:
    """Write one dump in the named format ("jsonl", "chrome", "text")."""
    if format == "jsonl":
        export_jsonl(telemetry, path)
    elif format == "chrome":
        export_chrome(telemetry, path)
    elif format == "text":
        export_text(telemetry, path)
    elif format == "openmetrics":
        from repro.telemetry.openmetrics import export_openmetrics

        export_openmetrics(telemetry, path)
    else:
        raise ConfigurationError(
            f"unknown telemetry format {format!r}; expected one of {TELEMETRY_FORMATS}"
        )


# Loading -------------------------------------------------------------------


def load_dump(path: str) -> TelemetryDump:
    """Reload an exported dump; the format is sniffed from the content.

    Accepts jsonl and Chrome dumps (by content), and incident-bundle
    directories or their ``manifest.json`` (by shape).
    """
    p = Path(path)
    if p.is_dir() or p.name == "manifest.json":
        return _load_bundle(p)
    with open(path, "r", encoding="utf-8") as fh:
        content = fh.read()
    stripped = content.lstrip()
    if not stripped:
        raise ConfigurationError(f"telemetry dump {path!r} is empty")
    if stripped.startswith("{") and '"traceEvents"' in stripped:
        return _load_chrome(content, path)
    return _load_jsonl(content, path)


def _load_jsonl(content: str, path: str) -> TelemetryDump:
    dump = TelemetryDump()
    for lineno, line in enumerate(content.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"{path}:{lineno}: not valid JSONL ({exc})") from exc
        kind = record.pop("type", None)
        if kind == "meta":
            dump.meta.update(record)
        elif kind == "span":
            dump.spans.append(Span.from_dict(record))
        elif kind == "metric":
            dump.metrics.append(record)
        else:
            raise ConfigurationError(f"{path}:{lineno}: unknown record type {kind!r}")
    return dump


def _load_bundle(path: Path) -> TelemetryDump:
    """Lift the telemetry carried inside a monitor incident bundle."""
    manifest_path = path / "manifest.json" if path.is_dir() else path
    records_path = manifest_path.parent / "records.jsonl"
    if not manifest_path.is_file() or not records_path.is_file():
        raise ConfigurationError(
            f"{path} is not an incident bundle (needs manifest.json + records.jsonl)"
        )
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{manifest_path}: not valid JSON ({exc})") from exc
    dump = TelemetryDump()
    dump.meta = {
        "source": "incident-bundle",
        "incident_id": manifest.get("incident_id", manifest_path.parent.name),
        "schema_version": manifest.get("schema_version"),
        "trigger": (manifest.get("trigger") or {}).get("kind"),
    }
    counts: dict[str, int] = {}
    for lineno, line in enumerate(
        records_path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"{records_path}:{lineno}: not valid JSONL ({exc})"
            ) from exc
        kind = record.pop("type", None)
        if kind == "span":
            dump.spans.append(Span.from_dict(record))
        elif kind == "metric":
            dump.metrics.append(record)
        elif kind is not None:
            counts[kind] = counts.get(kind, 0) + 1
    for kind, count in sorted(counts.items()):
        dump.meta[f"{kind}_records"] = count
    return dump


def filter_spans(
    spans: list[Span], since_s: float | None = None, until_s: float | None = None
) -> list[Span]:
    """Spans overlapping the simulator-clock window ``[since_s, until_s]``.

    A span overlaps when any part of it lies inside the window; open spans
    count as zero-length at their start.  ``None`` bounds are unbounded.
    """
    if since_s is not None and until_s is not None and until_s < since_s:
        raise ConfigurationError(
            f"empty span window: until ({until_s}) is before since ({since_s})"
        )
    selected: list[Span] = []
    for span in spans:
        end_s = span.end_s if span.end_s is not None else span.start_s
        if since_s is not None and end_s < since_s:
            continue
        if until_s is not None and span.start_s > until_s:
            continue
        selected.append(span)
    return selected


def _load_chrome(content: str, path: str) -> TelemetryDump:
    try:
        document = json.loads(content)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}: not valid Chrome trace JSON ({exc})") from exc
    dump = TelemetryDump()
    other = document.get("otherData", {})
    dump.meta = dict(other.get("meta", {}))
    dump.metrics = list(other.get("metrics", []))
    spans_by_id: dict[int, Span] = {}
    instants: list[dict] = []
    for event in document.get("traceEvents", ()):
        phase = event.get("ph")
        if phase == "X":
            args = dict(event.get("args", {}))
            span_id = args.pop(_SPAN_ID_KEY, len(spans_by_id))
            parent_id = args.pop(_PARENT_ID_KEY, None)
            wall_ms = args.pop(_WALL_MS_KEY, 0.0)
            start_s = event.get("ts", 0.0) / 1e6
            span = Span(
                name=event.get("name", "?"),
                span_id=span_id,
                parent_id=parent_id,
                start_s=start_s,
                end_s=start_s + event.get("dur", 0.0) / 1e6,
                wall_start_s=0.0,
                wall_end_s=wall_ms / 1e3,
                attrs=args,
            )
            dump.spans.append(span)
            spans_by_id[span_id] = span
        elif phase == "i":
            instants.append(event)
    for event in instants:
        args = dict(event.get("args", {}))
        parent_id = args.pop(_PARENT_ID_KEY, None)
        time_s = event.get("ts", 0.0) / 1e6
        parent = spans_by_id.get(parent_id)
        if parent is not None:
            parent.add_event(event.get("name", "?"), time_s, **args)
        else:
            orphan = Span(
                name=event.get("name", "?"), span_id=-1, start_s=time_s, end_s=time_s, attrs=args
            )
            dump.spans.append(orphan)
    return dump


# Text report ---------------------------------------------------------------


def render_report(spans: list[Span], metrics: list[dict], meta: dict[str, Any]) -> str:
    """The plain-text aggregate: per-span-name timings + metric values."""
    lines: list[str] = ["telemetry report"]
    if meta:
        lines.append("  meta: " + ", ".join(f"{k}={v}" for k, v in sorted(meta.items())))
    by_name: dict[str, list[Span]] = {}
    n_events = 0
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
        n_events += len(span.events)
    lines.append(f"  spans: {len(spans)} across {len(by_name)} names; {n_events} events")
    if by_name:
        lines.append(
            f"  {'span':<28} {'count':>6} {'sim total ms':>13} {'sim mean ms':>12} "
            f"{'sim max ms':>11} {'wall total ms':>14}"
        )
        for name in sorted(by_name):
            group = by_name[name]
            durations = [s.duration_s * 1e3 for s in group]
            wall = sum(s.wall_duration_s for s in group) * 1e3
            lines.append(
                f"  {name:<28} {len(group):>6} {sum(durations):>13.3f} "
                f"{sum(durations) / len(durations):>12.3f} {max(durations):>11.3f} {wall:>14.3f}"
            )
    if metrics:
        lines.append(f"  metrics: {len(metrics)} series")
        for series in metrics:
            labels = series.get("labels", {})
            label_text = (
                "{" + ",".join(f"{k}={v}" for k, v in sorted(labels.items())) + "}" if labels else ""
            )
            if series["kind"] == "histogram":
                count = series.get("count", 0)
                mean = series.get("sum", 0.0) / count if count else 0.0
                lines.append(
                    f"    {series['name']}{label_text}: count={count} mean={mean:.3f} "
                    f"min={series.get('min')} max={series.get('max')}"
                )
            else:
                lines.append(f"    {series['name']}{label_text}: {series.get('value', 0.0):g}")
    return "\n".join(lines)


def summarize_file(path: str) -> str:
    """Load any exported dump and render the text aggregate for it."""
    dump = load_dump(path)
    return render_report(dump.spans, dump.metrics, dump.meta)
