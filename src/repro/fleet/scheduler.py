"""The fleet scheduler: shard seeded drive specs across worker processes.

Admission control first: :meth:`FleetScheduler.submit` either admits a
spec into a bounded queue or rejects it with a reason (backpressure is a
first-class answer, not an exception).  :meth:`FleetScheduler.run` then
drains the queue across ``workers`` forked processes — or inline, in
submission order, when ``workers=0`` (the sequential reference mode the
determinism tests compare against).

Containment is the scheduler's core promise: a worker that crashes
mid-drive or overruns the per-drive deadline costs exactly one outcome
(``crashed`` / ``timeout``), never the run — the worker is replaced and
the remaining drives proceed.  Every lifecycle step is emitted through
:meth:`~FleetScheduler.fleet_event` using the declared
:data:`~repro.fleet.events.FLEET_EVENT_KINDS` vocabulary.

With ``streaming`` on (the default) the sharded path also runs the *live
plane*: workers heartbeat over a dedicated status queue, the scheduler
folds beats and progress records into a :class:`~repro.fleet.status.
StatusBoard`, publishes periodic ``FleetStatus`` snapshots to
``status_listeners``, and uses heartbeat liveness to split timeout
containment into ``hung`` (beats stopped) versus ``deadline`` (still
beating, just slow).  The plane is wall-clock side-channel by
construction — it can change *when* things are observed, never *what*
the drives compute — so ``deterministic_view`` and ``frames_digest``
stay byte-identical with streaming on or off (pinned by the
non-perturbation acceptance test).

Results are keyed by submission index, so the outcome list is ordered by
submission regardless of which worker finished which drive when.
"""

from __future__ import annotations

import json
import multiprocessing
import queue
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping

from repro.core.spec import DriveSpec
from repro.errors import FleetError
from repro.fleet.events import check_fleet_event_kind
from repro.fleet.outcome import DriveOutcome
from repro.fleet.status import StatusBoard
from repro.fleet.worker import execute_spec, worker_main
from repro.monitor.liveness import LivenessConfig
from repro.telemetry.session import Telemetry

#: Bound on every process ``join`` in the scheduler.  Joins happen on
#: dead or just-terminated workers, so they normally return instantly —
#: the timeout (plus the ``kill`` escalation in :func:`_reap`) is the
#: guarantee that a wedged child can never hang the whole fleet.
JOIN_TIMEOUT_S = 5.0

#: Capacity of the heartbeat/progress side channel.  Workers drop beats
#: when it is full (``put_nowait``), so the bound caps memory without
#: ever back-pressuring drive execution.
STATUS_QUEUE_CAPACITY = 4096

#: The live plane's heartbeat cadence and suspect/hung thresholds.
LIVENESS = LivenessConfig()

#: Scheduler idle-poll period while waiting on workers.
POLL_INTERVAL_S = 0.02


def _reap(process: Any) -> None:
    """Join ``process`` with a bounded wait, escalating to SIGKILL."""
    process.join(timeout=JOIN_TIMEOUT_S)
    if process.is_alive():
        process.kill()
        process.join(timeout=JOIN_TIMEOUT_S)


@dataclass(frozen=True)
class FleetConfig:
    """How a fleet run executes (not *what* it runs — that is the specs).

    Attributes:
        workers: Worker process count; ``0`` runs every drive inline in
            the scheduler process (the deterministic reference mode).
        queue_capacity: Bound on admitted-but-unexecuted specs; admission
            beyond it is rejected with a reason.
        drive_timeout_s: Per-drive wall-clock deadline; an overrunning
            worker is terminated and the drive recorded as ``timeout``.
        incidents_dir: Directory for per-drive incident bundles
            (``None`` keeps monitoring in-memory only).
        monitored: Attach a ``wall_clock_slos=False`` monitor to each
            drive (sim-deterministic verdicts).
        record_latency: Record per-frame wall-latency histograms.
        quality: Attach the seeded ground-truth quality observer to each
            drive and fold per-drive quality summaries into outcomes,
            rollups, and live status.  Observation only: verdicts stay
            quality-blind (workers run with ``quality_slos=False``) and
            the rollup's ``deterministic_view`` strips every
            quality-derived value, so a scored fleet byte-matches an
            unscored one.
        streaming: Run the live plane (worker heartbeats, status
            snapshots, hung-vs-deadline timeout verdicts) in sharded
            mode.  Inline mode has no worker processes, hence no plane.
            Its heartbeat thresholds are :data:`LIVENESS`.
        status_interval_s: How often the scheduler publishes a
            ``FleetStatus`` snapshot to its listeners.
        trace_dir: Directory for per-drive span dumps (and the stitched
            fleet trace inputs); also enables scheduler-side spans.
    """

    workers: int = 4
    queue_capacity: int = 256
    drive_timeout_s: float = 60.0
    incidents_dir: str | None = None
    monitored: bool = True
    record_latency: bool = True
    quality: bool = False
    streaming: bool = True
    status_interval_s: float = 1.0
    trace_dir: str | None = None

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise FleetError(f"workers must be >= 0, got {self.workers}")
        if self.queue_capacity < 1:
            raise FleetError(f"queue_capacity must be >= 1, got {self.queue_capacity}")
        if self.drive_timeout_s <= 0:
            raise FleetError(f"drive_timeout_s must be positive, got {self.drive_timeout_s}")
        if self.status_interval_s <= 0:
            raise FleetError(
                f"status_interval_s must be positive, got {self.status_interval_s}"
            )


@dataclass(frozen=True)
class Admission:
    """The answer admission control gives every submitted spec."""

    accepted: bool
    index: int | None = None
    reason: str = ""


@dataclass
class _WorkerSlot:
    """One worker process plus the task it is currently executing."""

    worker_id: int
    process: Any = None
    task_queue: Any = None
    current: "tuple[int, dict] | None" = None  # (index, spec_dict)
    deadline_s: float = 0.0
    spawned: int = 0
    lifetime_span: Any = None

    @property
    def busy(self) -> bool:
        return self.current is not None


class FleetScheduler:
    """Admit specs, shard them across workers, collect outcomes."""

    def __init__(self, config: FleetConfig | None = None):
        self.config = config if config is not None else FleetConfig()
        self.pending: list[tuple[int, dict]] = []
        self.events: list[dict] = []
        self.events_by_kind: dict[str, int] = {}
        self.rejected: list[DriveOutcome] = []
        #: Callables invoked with each published ``FleetStatus`` snapshot.
        self.status_listeners: list[Callable[[dict], None]] = []
        #: The live plane's fold (sharded streaming runs only).
        self.board: StatusBoard | None = None
        #: The most recently published status snapshot.
        self.last_status: dict | None = None
        #: Scheduler-side telemetry (only when ``trace_dir`` is set).
        self.telemetry: Telemetry | None = None
        if self.config.trace_dir is not None:
            self.telemetry = Telemetry.recording(meta={"source": "fleet-scheduler"})
        self._queue_spans: dict[int, Any] = {}
        self._status_queue: Any = None
        self._submitted = 0
        self._finished = False

    # Events -----------------------------------------------------------------

    def fleet_event(self, kind: str, **attrs: Any) -> None:
        """Record one scheduler lifecycle event (vocabulary-checked)."""
        check_fleet_event_kind(kind)
        self.events.append({"kind": kind, **attrs})
        self.events_by_kind[kind] = self.events_by_kind.get(kind, 0) + 1

    def _count_event(self, kind: str) -> None:
        """Count a high-rate side-channel kind without logging each one."""
        check_fleet_event_kind(kind)
        self.events_by_kind[kind] = self.events_by_kind.get(kind, 0) + 1

    # Admission --------------------------------------------------------------

    def submit(self, spec: "DriveSpec | Mapping[str, Any]") -> Admission:
        """Admit one spec into the bounded queue, or reject with a reason."""
        spec_dict = spec.to_dict() if isinstance(spec, DriveSpec) else DriveSpec.from_dict(spec).to_dict()
        if self._finished:
            reason = "run finished: scheduler no longer accepts submissions"
        elif len(self.pending) >= self.config.queue_capacity:
            reason = (
                f"queue full: {len(self.pending)}/{self.config.queue_capacity} "
                "specs pending (backpressure)"
            )
        else:
            index = self._submitted
            self._submitted += 1
            self.pending.append((index, spec_dict))
            self.fleet_event("fleet.submit", index=index, name=spec_dict["name"])
            if self.telemetry is not None:
                self._queue_spans[index] = self.telemetry.tracer.begin(
                    "fleet.queue.wait", index=index, drive=spec_dict["name"]
                )
            return Admission(accepted=True, index=index)
        self.fleet_event("fleet.reject", name=spec_dict["name"], reason=reason)
        if self.telemetry is not None:
            self.telemetry.tracer.event(
                "fleet.admission.reject", drive=spec_dict["name"]
            )
        self.rejected.append(
            DriveOutcome(spec=spec_dict, status="rejected", error=reason)
        )
        return Admission(accepted=False, reason=reason)

    def submit_all(self, specs: Iterable["DriveSpec | Mapping[str, Any]"]) -> list[Admission]:
        return [self.submit(spec) for spec in specs]

    # Execution --------------------------------------------------------------

    def run(self) -> list[DriveOutcome]:
        """Drain the admitted queue; one outcome per admitted spec.

        Outcomes come back ordered by submission index.  The scheduler is
        single-shot: after ``run`` returns, further submissions are
        rejected.
        """
        tasks = list(self.pending)
        self.pending = []
        if self.config.trace_dir is not None:
            # Workers write their span dumps straight into it.
            Path(self.config.trace_dir).mkdir(parents=True, exist_ok=True)
        self.fleet_event(
            "fleet.run.start", drives=len(tasks), workers=self.config.workers
        )
        run_span = None
        if self.telemetry is not None:
            run_span = self.telemetry.tracer.begin(
                "fleet.run", drives=len(tasks), workers=self.config.workers
            )
        if self.config.workers == 0:
            outcomes = self._run_inline(tasks)
        else:
            outcomes = self._run_sharded(tasks)
        self._finished = True
        by_status: dict[str, int] = {}
        for outcome in outcomes:
            by_status[outcome.status] = by_status.get(outcome.status, 0) + 1
        if self.telemetry is not None:
            for span in self._queue_spans.values():
                self.telemetry.tracer.end(span)
            self._queue_spans.clear()
            self.telemetry.tracer.end(run_span, by_status=str(by_status))
        self.fleet_event("fleet.run.done", drives=len(outcomes), by_status=by_status)
        return outcomes

    def _end_queue_span(self, index: int, worker_id: int | None = None) -> None:
        span = self._queue_spans.pop(index, None)
        if span is not None and self.telemetry is not None:
            if worker_id is not None:
                span.set_attr("worker", worker_id)
            self.telemetry.tracer.end(span)

    def _run_inline(self, tasks: list[tuple[int, dict]]) -> list[DriveOutcome]:
        """Sequential in-process reference executor (chaos contained)."""
        outcomes: list[DriveOutcome] = []
        for index, spec_dict in tasks:
            self.fleet_event("fleet.drive.start", index=index, name=spec_dict["name"])
            self._end_queue_span(index)
            outcome = execute_spec(
                spec_dict,
                worker_id=None,
                incidents_dir=self.config.incidents_dir,
                monitored=self.config.monitored,
                record_latency=self.config.record_latency,
                contained=True,
                quality=self.config.quality,
            )
            outcomes.append(outcome)
            self.fleet_event(
                "fleet.drive.done", index=index, name=spec_dict["name"], status=outcome.status
            )
        return outcomes

    def _run_sharded(self, tasks: list[tuple[int, dict]]) -> list[DriveOutcome]:
        """Shard tasks across forked workers with crash/timeout containment."""
        ctx = multiprocessing.get_context("fork")
        result_queue = ctx.Queue()
        streaming = self.config.streaming
        if streaming:
            self._status_queue = ctx.Queue(STATUS_QUEUE_CAPACITY)
            self.board = StatusBoard(liveness=LIVENESS, now_s=time.monotonic())
        slots = [_WorkerSlot(worker_id=wid) for wid in range(self.config.workers)]
        for slot in slots:
            slot.task_queue = ctx.Queue()
            self._spawn(ctx, slot, result_queue)
        backlog = list(reversed(tasks))  # pop() from the front of submission order
        results: dict[int, DriveOutcome] = {}
        total = len(tasks)
        next_status_s = time.monotonic() + self.config.status_interval_s
        try:
            while len(results) < total:
                self._dispatch(slots, backlog)
                progressed = self._drain_results(result_queue, slots, results)
                now_s = time.monotonic()
                self._drain_status(now_s)
                progressed |= self._contain_failures(ctx, slots, results, result_queue)
                if streaming and now_s >= next_status_s:
                    self._publish_status(now_s, len(backlog), phase="running")
                    next_status_s = now_s + self.config.status_interval_s
                if not progressed:
                    time.sleep(POLL_INTERVAL_S)
        finally:
            self._shutdown(slots)
            if streaming:
                self._drain_status(time.monotonic())
                self._publish_status(time.monotonic(), len(backlog), phase="done")
                self._status_queue = None
        return [results[index] for index, _ in tasks]

    def _spawn(self, ctx: Any, slot: _WorkerSlot, result_queue: Any) -> None:
        slot.process = ctx.Process(
            target=worker_main,
            args=(
                slot.worker_id,
                slot.task_queue,
                result_queue,
                self.config.incidents_dir,
                self.config.monitored,
                self.config.record_latency,
                self._status_queue,
                LIVENESS.heartbeat_interval_s,
                self.config.trace_dir,
                self.config.quality,
            ),
            daemon=True,
        )
        slot.process.start()
        slot.spawned += 1
        if self.board is not None:
            self.board.ensure_worker(
                slot.worker_id, time.monotonic(), respawn=slot.spawned > 1
            )
        if self.telemetry is not None:
            slot.lifetime_span = self.telemetry.tracer.begin(
                "fleet.worker.lifetime",
                worker=slot.worker_id,
                generation=slot.spawned,
            )
        self.fleet_event(
            "fleet.worker.spawn", worker=slot.worker_id, generation=slot.spawned
        )

    def _reap_slot(self, slot: _WorkerSlot) -> None:
        """Reap a slot's process, closing its lifetime/reap spans."""
        reap_span = None
        if self.telemetry is not None:
            reap_span = self.telemetry.tracer.begin(
                "fleet.reap", worker=slot.worker_id
            )
        _reap(slot.process)
        if self.telemetry is not None:
            self.telemetry.tracer.end(reap_span)
            if slot.lifetime_span is not None:
                self.telemetry.tracer.end(slot.lifetime_span)
                slot.lifetime_span = None

    def _dispatch(self, slots: list[_WorkerSlot], backlog: list[tuple[int, dict]]) -> None:
        for slot in slots:
            if not backlog:
                return
            if slot.busy:
                continue
            index, spec_dict = backlog.pop()
            slot.current = (index, spec_dict)
            slot.deadline_s = time.monotonic() + self.config.drive_timeout_s
            slot.task_queue.put((index, spec_dict))
            if self.board is not None:
                self.board.mark_dispatch(
                    slot.worker_id, index, spec_dict["name"], time.monotonic()
                )
            self._end_queue_span(index, worker_id=slot.worker_id)
            self.fleet_event(
                "fleet.drive.start",
                index=index,
                name=spec_dict["name"],
                worker=slot.worker_id,
            )

    def _drain_results(
        self,
        result_queue: Any,
        slots: list[_WorkerSlot],
        results: dict[int, DriveOutcome],
    ) -> bool:
        progressed = False
        while True:
            try:
                index, outcome_dict = result_queue.get_nowait()
            except queue.Empty:
                return progressed
            outcome = DriveOutcome.from_dict(outcome_dict)
            results[index] = outcome
            progressed = True
            for slot in slots:
                if slot.current is not None and slot.current[0] == index:
                    slot.current = None
                    break
            if self.board is not None:
                self.board.record_outcome(outcome, time.monotonic())
            self.fleet_event(
                "fleet.drive.done",
                index=index,
                name=outcome.name,
                status=outcome.status,
            )

    def _drain_status(self, now_s: float) -> None:
        """Fold every queued heartbeat/progress record into the board."""
        if self._status_queue is None or self.board is None:
            return
        while True:
            try:
                record = self._status_queue.get_nowait()
            except queue.Empty:
                break
            self.board.ingest(record, now_s)
            self._count_event(str(record.get("kind")))
        for view in self.board.take_new_suspects(now_s):
            self.fleet_event(
                "fleet.worker.suspect",
                worker=view.worker_id,
                index=view.drive_index,
                name=view.drive_name,
                heartbeat_age_s=round(view.heartbeat_age_s(now_s), 6),
            )

    def _publish_status(self, now_s: float, backlog: int, phase: str) -> None:
        """Snapshot the board and hand it to every status listener."""
        if self.board is None:
            return
        snapshot = self.board.snapshot(
            now_s,
            backlog=backlog,
            capacity=self.config.queue_capacity,
            submitted=self._submitted,
            rejected=len(self.rejected),
            phase=phase,
        )
        self.last_status = snapshot
        self._count_event("fleet.status.snapshot")
        for listener in self.status_listeners:
            listener(snapshot)

    def _contain_failures(
        self,
        ctx: Any,
        slots: list[_WorkerSlot],
        results: dict[int, DriveOutcome],
        result_queue: Any,
    ) -> bool:
        """Turn dead/overrunning workers into outcomes and respawn them."""
        progressed = False
        now_s = time.monotonic()
        for slot in slots:
            if not slot.busy:
                continue
            index, spec_dict = slot.current  # type: ignore[misc]
            if not slot.process.is_alive():
                # A worker only exits mid-task by dying; its in-flight
                # drive becomes a crashed outcome and the slot respawns.
                exit_code = slot.process.exitcode
                self._reap_slot(slot)
                results[index] = DriveOutcome(
                    spec=spec_dict,
                    status="crashed",
                    error=f"worker {slot.worker_id} died (exit code {exit_code})",
                    worker_id=slot.worker_id,
                )
                self.fleet_event(
                    "fleet.worker.crash",
                    worker=slot.worker_id,
                    index=index,
                    name=spec_dict["name"],
                    exit_code=exit_code,
                )
                slot.current = None
                self._spawn(ctx, slot, result_queue)
                progressed = True
            elif now_s > slot.deadline_s:
                # Heartbeat liveness splits the old catch-all "timeout":
                # a hung worker went silent mid-drive; a deadline worker
                # was still beating — slow, not wedged.
                hang_verdict = None
                beat_age_s = None
                if self.board is not None:
                    view = self.board.workers.get(slot.worker_id)
                    if view is not None:
                        beat_age_s = round(view.heartbeat_age_s(now_s), 6)
                        hang_verdict = (
                            "hung"
                            if view.liveness.state(now_s) == "hung"
                            else "deadline"
                        )
                slot.process.terminate()
                self._reap_slot(slot)
                results[index] = DriveOutcome(
                    spec=spec_dict,
                    status="timeout",
                    error=(
                        f"drive exceeded {self.config.drive_timeout_s}s deadline "
                        f"on worker {slot.worker_id}"
                    ),
                    worker_id=slot.worker_id,
                    hang_verdict=hang_verdict,
                    last_heartbeat_age_s=beat_age_s,
                )
                self.fleet_event(
                    "fleet.worker.timeout",
                    worker=slot.worker_id,
                    index=index,
                    name=spec_dict["name"],
                    hang_verdict=hang_verdict,
                    last_heartbeat_age_s=beat_age_s,
                )
                slot.current = None
                self._spawn(ctx, slot, result_queue)
                progressed = True
        return progressed

    def _shutdown(self, slots: list[_WorkerSlot]) -> None:
        for slot in slots:
            if slot.process is None:
                continue
            if slot.process.is_alive():
                slot.task_queue.put(None)
        for slot in slots:
            if slot.process is None:
                continue
            slot.process.join(timeout=2.0)
            if slot.process.is_alive():
                slot.process.terminate()
            self._reap_slot(slot)


def _status_jsonl_listener(path: "str | Path") -> Callable[[dict], None]:
    """A status listener appending each snapshot as one sorted-key JSON line."""

    def write(snapshot: dict) -> None:
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(snapshot, sort_keys=True) + "\n")

    return write


def _metrics_exposition_listener(path: "str | Path") -> Callable[[dict], None]:
    """A status listener rewriting an OpenMetrics exposition per snapshot."""
    from repro.fleet.status import status_metrics_snapshot
    from repro.telemetry.openmetrics import write_exposition

    def write(snapshot: dict) -> None:
        write_exposition(status_metrics_snapshot(snapshot), str(path))

    return write


def run_fleet(
    specs: Iterable["DriveSpec | Mapping[str, Any]"],
    config: FleetConfig | None = None,
    status_out: "str | Path | None" = None,
    metrics_out: "str | Path | None" = None,
    trace_out: "str | Path | None" = None,
) -> dict:
    """Submit, execute, and roll up a fleet in one call.

    Returns the schema-versioned rollup dict (see
    :func:`repro.fleet.rollup.build_rollup`); rejected submissions appear
    in it as ``rejected`` outcomes alongside the executed drives.

    The live-plane outputs are all optional: ``status_out`` appends one
    ``FleetStatus`` JSON line per published snapshot, ``metrics_out``
    rewrites an OpenMetrics exposition per snapshot, and ``trace_out``
    stitches the per-drive span dumps plus the scheduler's own spans into
    one Chrome trace after the run (using ``config.trace_dir``, or a
    temporary directory when unset).
    """
    from repro.fleet.rollup import build_rollup
    from repro.telemetry.metrics import Stopwatch

    config = config if config is not None else FleetConfig()
    scratch_trace_dir = None
    if trace_out is not None and config.trace_dir is None:
        scratch_trace_dir = tempfile.TemporaryDirectory(prefix="fleet-trace-")
        config = replace(config, trace_dir=scratch_trace_dir.name)
    try:
        scheduler = FleetScheduler(config)
        if status_out is not None:
            Path(status_out).write_text("", encoding="utf-8")
            scheduler.status_listeners.append(_status_jsonl_listener(status_out))
        if metrics_out is not None:
            scheduler.status_listeners.append(_metrics_exposition_listener(metrics_out))
        scheduler.submit_all(specs)
        with Stopwatch() as stopwatch:
            outcomes = scheduler.run()
        if trace_out is not None:
            from repro.fleet.trace import stitch_fleet_trace

            n_events = stitch_fleet_trace(
                config.trace_dir, str(trace_out), scheduler_telemetry=scheduler.telemetry
            )
            scheduler.fleet_event(
                "fleet.trace.stitch", path=str(trace_out), events=n_events
            )
        return build_rollup(
            outcomes,
            rejected=scheduler.rejected,
            events_by_kind=scheduler.events_by_kind,
            config=scheduler.config,
            elapsed_s=stopwatch.elapsed_s,
        )
    finally:
        if scratch_trace_dir is not None:
            scratch_trace_dir.cleanup()
