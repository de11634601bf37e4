"""System core: the adaptive detection system (paper Fig. 6 + control loop).

:mod:`repro.core.spec` holds the drive spec and digests,
:mod:`repro.core.system` the timing-only drive loop, and
:mod:`repro.core.functional` the pixel stage over it.  Importing the system
does not import the pixel stage.
"""
