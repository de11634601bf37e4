"""Hardware models: streaming timing, FPGA resources, floor-planning.

The designs (:mod:`repro.hw.designs`) read their window, feature and DBN
geometry from the detection pipelines; the timing model
(:mod:`repro.hw.timing`, which the SoC imports) does not.
"""
