"""repro.fleet: multiplexed many-vehicle drive service.

Shards seeded :class:`~repro.core.spec.DriveSpec` drives across worker
processes, contains worker crashes and timeouts as per-drive outcomes,
and folds everything into a schema-versioned fleet rollup
(``FLEET_*.json``).  See FLEET.md for the full design.

Unlike the simulation domains, this package is *about* wall clocks and
processes — it is deliberately outside the determinism lint fence.  The
determinism contract lives one level down: every drive it schedules is a
pure function of its spec, pinned by frame-core digests.
"""
