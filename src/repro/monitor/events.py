"""The declared vocabulary of monitor trigger/health events.

Mirrors :data:`repro.zynq.events.EVENT_KINDS`: every typed event the
runtime monitor emits (through :meth:`Monitor.emit_event`) must use a kind
from this set, so timeline renderers, the incident analyzer, and the
acceptance tests can rely on the names being exhaustive.  The
``event-vocabulary`` lint rule enforces the same contract statically.
"""

from __future__ import annotations

#: Legal ``Monitor.emit_event`` kinds.
MONITOR_EVENT_KINDS: frozenset[str] = frozenset(
    {
        # A trigger fired: something worth freezing the flight recorder for.
        "monitor.trigger",
        # An incident bundle was written to disk.
        "monitor.incident",
        # The folded health state changed level (OK/DEGRADED/CRITICAL).
        "health.transition",
        # One SLO evaluator found a budget violation on this frame.
        "slo.violation",
    }
)
