"""Experiment runners: one per paper table/figure plus ablations.

Every runner returns a result object with ``render()`` (the table/report
text) and ``shape_checks()`` (the qualitative claims the paper draws from
that artefact, as booleans).  Benchmarks and EXPERIMENTS.md are generated
from these.
"""
