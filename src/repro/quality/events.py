"""The declared vocabulary of detection-quality events.

Mirrors :data:`repro.monitor.events.MONITOR_EVENT_KINDS` and
:data:`repro.fleet.events.FLEET_EVENT_KINDS`: every typed event the
quality plane emits (through
:meth:`~repro.quality.observer.ModelQualityObserver.quality_event` or the
baseline tooling) must use a kind from this set, so quality-report
readers and the acceptance tests can rely on the names being exhaustive.
The ``event-vocabulary`` lint rule enforces the same contract
statically; :func:`check_quality_event_kind` enforces it at runtime.
"""

from __future__ import annotations

from repro.errors import QualityError

#: Legal quality-plane event kinds.
QUALITY_EVENT_KINDS: frozenset[str] = frozenset(
    {
        # A quality observer attached to a drive.
        "quality.drive.start",
        # A drive's quality observation finished; its summary is final.
        "quality.drive.summary",
        # A quality baseline snapshot was written to disk.
        "quality.baseline.write",
        # A compare run judged the current suite against a baseline.
        "quality.compare",
    }
)


def check_quality_event_kind(kind: str) -> None:
    """Reject event kinds outside the declared vocabulary (runtime gate)."""
    if kind not in QUALITY_EVENT_KINDS:
        raise QualityError(
            f"quality event kind {kind!r} is not in the declared vocabulary; "
            "add it to repro.quality.events.QUALITY_EVENT_KINDS first"
        )


def quality_event(kind: str, **attrs) -> dict:
    """Build one typed quality-event record (vocabulary-checked).

    The free-function twin of
    :meth:`~repro.quality.observer.ModelQualityObserver.quality_event`,
    used by the baseline tooling for events that outlive any single
    observer.  The ``event-vocabulary`` lint rule checks both call forms
    statically.
    """
    check_quality_event_kind(kind)
    return {"kind": kind, **attrs}
