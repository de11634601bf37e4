"""Runtime monitoring: flight recorder, SLO health, incident bundles.

The monitor watches a running drive against the paper's operational budgets
(20 ms frame, ~20 ms reconfiguration, 390 MB/s ICAP) and, when something
goes wrong, freezes a pre/post-roll window of frame snapshots into a
schema-versioned *incident bundle* that ``python -m repro incident replay``
can re-run and byte-verify.  See MONITOR.md for the full story.
"""
