"""repro.quality: the ground-truth detection-quality observation plane.

Everything here is *observation*: a seeded ground-truth model scores each
drive frame the way the paper's Table I was measured, per-frame records
fold into per-drive summaries and fleet-level rollups, and a committed
``QUALITY_BASELINE.json`` ratchets regressions — all without perturbing a
single frame core (the default observer is the no-op :data:`NULL_QUALITY`,
and deterministic artefacts strip every quality-derived value).

Layout:

* :mod:`repro.quality.records` — :class:`QualityRecord` + fold/merge algebra.
* :mod:`repro.quality.observer` — :data:`NULL_QUALITY`,
  :class:`ModelQualityObserver`, and the seeded scene/detector model.
* :mod:`repro.quality.events` — the declared quality-event vocabulary.
* :mod:`repro.quality.baseline` — suite, snapshots, and the compare gate
  (imported lazily where needed; it pulls in the drive loop).
* :mod:`repro.quality.cli` — ``python -m repro quality report|compare``.
"""
