"""Runtime monitoring: flight recorder, SLO health, incident bundles.

The monitor watches a running drive against the paper's operational budgets
(20 ms frame, ~20 ms reconfiguration, 390 MB/s ICAP) and, when something
goes wrong, freezes a pre/post-roll window of frame snapshots into a
schema-versioned *incident bundle* that ``python -m repro incident replay``
can re-run and byte-verify.  See MONITOR.md for the full story.

``repro.monitor.replay`` is deliberately *not* re-exported here: it imports
:mod:`repro.core.system`, which itself imports this package's session
module — importing it at package level would create a cycle.  Import it
directly where needed.
"""

from repro.monitor.bundle import (
    BUNDLE_SCHEMA_VERSION,
    IncidentBundle,
    is_bundle,
    list_bundles,
    load_bundle,
    write_bundle,
)
from repro.monitor.events import MONITOR_EVENT_KINDS
from repro.monitor.liveness import (
    DEFAULT_HEARTBEAT_INTERVAL_S,
    DEFAULT_HUNG_AFTER_S,
    DEFAULT_SUSPECT_AFTER_S,
    LIVENESS_STATES,
    LivenessConfig,
    WorkerLiveness,
)
from repro.monitor.recorder import (
    FlightRecorder,
    FrameSnapshot,
    IncidentWindow,
    TriggerEvent,
)
from repro.monitor.session import (
    NULL_MONITOR,
    SNAPSHOT_ZYNQ_EVENT_KINDS,
    Monitor,
    MonitorConfig,
    NullMonitor,
    canonical_frame_bytes,
    frame_record_dict,
)
from repro.monitor.slo import (
    PAPER_FRAME_BUDGET_MS,
    PAPER_ICAP_MBS,
    PAPER_RECONFIG_MS,
    HealthMonitor,
    HealthState,
    HealthTransition,
    SloBudgets,
    SloViolation,
)

__all__ = [
    "BUNDLE_SCHEMA_VERSION",
    "DEFAULT_HEARTBEAT_INTERVAL_S",
    "DEFAULT_HUNG_AFTER_S",
    "DEFAULT_SUSPECT_AFTER_S",
    "LIVENESS_STATES",
    "LivenessConfig",
    "MONITOR_EVENT_KINDS",
    "NULL_MONITOR",
    "PAPER_FRAME_BUDGET_MS",
    "PAPER_ICAP_MBS",
    "PAPER_RECONFIG_MS",
    "SNAPSHOT_ZYNQ_EVENT_KINDS",
    "FlightRecorder",
    "FrameSnapshot",
    "HealthMonitor",
    "HealthState",
    "HealthTransition",
    "IncidentBundle",
    "IncidentWindow",
    "Monitor",
    "MonitorConfig",
    "NullMonitor",
    "SloBudgets",
    "SloViolation",
    "TriggerEvent",
    "WorkerLiveness",
    "canonical_frame_bytes",
    "frame_record_dict",
    "is_bundle",
    "list_bundles",
    "load_bundle",
    "write_bundle",
]
