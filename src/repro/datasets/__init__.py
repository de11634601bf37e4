"""Synthetic dataset substrate: procedural stand-ins for UPM / SYSU / iROADS.

Code that only needs :class:`~repro.datasets.lighting.LightingCondition`
(the controller, the timing-only drive loop) imports
:mod:`repro.datasets.lighting`, which does not import the scene renderer.
"""
