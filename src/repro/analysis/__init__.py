"""reprolint: domain-specific static analysis for the reproduction.

The paper's headline numbers (390 MB/s ICAP streaming, the 20 ms
reconfiguration that costs exactly one frame at 50 fps) are re-derivable
only because the simulator is deterministic and every number carries its
unit.  This package machine-checks that discipline: an AST-based rule
framework with project-specific rules for determinism (no wall clocks or
ad-hoc RNG in sim domains), unit-suffix naming, telemetry hygiene
(span lifetimes, event vocabulary), error-swallowing, mutable defaults,
and public-API documentation.

Entry points:

* ``python -m repro lint [PATHS]`` — the CLI (see :mod:`repro.analysis.cli`);
* :func:`~repro.analysis.core.analyze_paths` /
  :func:`~repro.analysis.core.analyze_source` — the library API;
* ``tests/analysis/test_self_clean.py`` — the suite that keeps ``src/``
  permanently clean.

See ``ANALYSIS.md`` at the repository root for the rule catalog and the
suppression syntax.
"""
