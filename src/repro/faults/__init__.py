"""Fault injection and graceful degradation for the detection stack.

See FAULTS.md at the repository root for the injection-site map and the
degradation policy this package drives.
"""
