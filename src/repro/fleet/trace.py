"""Cross-process trace stitching: one Chrome trace for a whole fleet run.

Each worker dumps its drives' spans as JSONL under the fleet trace
directory (``drive-0007.jsonl`` — see
:func:`repro.fleet.worker.drive_trace_path`); the scheduler records its
own spans (queue-wait, admission, worker lifetime, reap) in-process.
:func:`stitch_fleet_trace` merges them into a single ``trace_event``
document renderable end to end in Perfetto / chrome://tracing.

Two choices make the stitched view honest and stable:

* **One wall timeline.** Per-drive dumps carry each span's
  ``wall_start_s``/``wall_end_s`` from ``time.perf_counter()`` —
  ``CLOCK_MONOTONIC`` on Linux, so values from forked processes share an
  epoch with the parent.  The stitcher subtracts the earliest wall start
  across *all* spans and maps seconds to trace microseconds; a drive's
  lane therefore sits exactly where it ran relative to the scheduler's
  queue-wait span above it.
* **Stable lanes.** The scheduler is pid 1; worker ``w`` is pid
  ``w + 2`` — keyed by *worker id*, not process identity, so a lane
  survives crash/timeout respawns (pinned by the pid/tid-stability
  test).  Within a pid, tids are assigned in sorted track-name order,
  so adding a span name never reshuffles existing lanes.  Inline drives
  (``worker_id`` ``None``) land in the scheduler pid — honestly: they
  really did run there.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.errors import FleetError
from repro.telemetry.exporters import TelemetryDump, _track, chrome_span_events, load_dump
from repro.telemetry.session import Telemetry
from repro.telemetry.spans import Span

#: The scheduler's process lane in the stitched trace.
SCHEDULER_PID = 1

#: Worker lanes start here: worker ``w`` renders as pid ``w + WORKER_PID_BASE``.
WORKER_PID_BASE = 2


def worker_pid(worker_id: "int | None") -> int:
    """The stable stitched-trace pid for a worker (scheduler pid if None)."""
    if worker_id is None:
        return SCHEDULER_PID
    return int(worker_id) + WORKER_PID_BASE


def load_drive_dumps(trace_dir: "str | Path") -> list[TelemetryDump]:
    """All per-drive span dumps under a fleet trace dir, by drive index."""
    root = Path(trace_dir)
    if not root.is_dir():
        raise FleetError(f"fleet trace dir {str(root)!r} does not exist")
    return [load_dump(str(path)) for path in sorted(root.glob("drive-*.jsonl"))]


def _span_pid(span: Span, default_pid: int) -> int:
    worker = span.attrs.get("worker")
    if worker is None:
        return default_pid
    return worker_pid(int(worker))


def stitch_fleet_trace(
    trace_dir: "str | Path",
    out_path: "str | Path",
    scheduler_telemetry: Telemetry | None = None,
) -> int:
    """Merge drive dumps + scheduler spans into one Chrome trace.

    Returns the number of ``traceEvents`` written.  The document loads
    back through :func:`repro.telemetry.exporters.load_dump` like any Chrome
    export, and opens in Perfetto with one named process lane for the
    scheduler and one per worker id.
    """
    dumps = load_drive_dumps(trace_dir)
    # (pid, process-label, track, span) for every span in the run.
    placed: list[tuple[int, str, str, Span]] = []
    for dump in dumps:
        wid = dump.meta.get("worker_id")
        pid = worker_pid(int(wid) if wid is not None else None)
        label = "fleet scheduler" if pid == SCHEDULER_PID else f"worker {int(wid)}"
        for span in dump.spans:
            placed.append((pid, label, _track(span.name), span))
    if scheduler_telemetry is not None and scheduler_telemetry.enabled:
        for span in scheduler_telemetry.tracer.spans:
            pid = _span_pid(span, SCHEDULER_PID)
            label = (
                "fleet scheduler"
                if pid == SCHEDULER_PID
                else f"worker {pid - WORKER_PID_BASE}"
            )
            placed.append((pid, label, span.name, span))
    if not placed:
        document = {"traceEvents": [], "displayTimeUnit": "ms", "otherData": {}}
        Path(out_path).write_text(json.dumps(document), encoding="utf-8")
        return 0

    # One shared wall epoch: the earliest wall start across every process.
    t0_s = min(span.wall_start_s for _, _, _, span in placed)

    # Stable tids: per pid, tracks in sorted-name order.
    tracks_by_pid: dict[int, set[str]] = {}
    for pid, _, track, _ in placed:
        tracks_by_pid.setdefault(pid, set()).add(track)
    tid_of: dict[tuple[int, str], int] = {}
    for pid, tracks in tracks_by_pid.items():
        for tid, track in enumerate(sorted(tracks), start=1):
            tid_of[(pid, track)] = tid

    events: list[dict] = []
    labels_of_pid: dict[int, str] = {}
    for pid, label, track, span in placed:
        labels_of_pid.setdefault(pid, label)
        wall_end_s = span.wall_end_s if span.wall_end_s is not None else span.wall_start_s
        events.extend(
            chrome_span_events(
                span,
                pid,
                tid_of[(pid, track)],
                round((span.wall_start_s - t0_s) * 1e6, 3),
                round((wall_end_s - span.wall_start_s) * 1e6, 3),
            )
        )
    for pid, label in sorted(labels_of_pid.items()):
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": label},
            }
        )
    for (pid, track), tid in sorted(tid_of.items()):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": track},
            }
        )
    other: dict[str, Any] = {"meta": {"source": "fleet-trace", "drives": len(dumps)}}
    if scheduler_telemetry is not None and scheduler_telemetry.enabled:
        other["metrics"] = scheduler_telemetry.metrics.snapshot()
    document = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": other,
    }
    Path(out_path).write_text(json.dumps(document), encoding="utf-8")
    return len(events)
