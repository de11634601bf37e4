"""Adaptation substrate: light sensing, hysteresis control, switch policy."""
