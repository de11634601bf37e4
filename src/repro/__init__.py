"""repro — reproduction of "Adaptive Vehicle Detection for Real-time
Autonomous Driving System" (Hemmati, Biglari-Abhari, Niar; DATE 2019).

Subpackages:

* :mod:`repro.imaging`   — image-processing substrate.
* :mod:`repro.features`  — HOG descriptor and sliding windows.
* :mod:`repro.ml`        — linear SVM (LibLINEAR-style), RBM, DBN.
* :mod:`repro.datasets`  — procedural stand-ins for UPM / SYSU / iROADS.
* :mod:`repro.pipelines` — day/dusk, dark, and pedestrian detectors.
* :mod:`repro.adaptive`  — light sensing and condition switching.
* :mod:`repro.hw`        — FPGA timing and resource models.
* :mod:`repro.zynq`      — discrete-event Zynq SoC and PR-controller models.
* :mod:`repro.core`      — the adaptive detection system (paper Fig. 6).
* :mod:`repro.faults`    — deterministic fault plans and scenarios.
* :mod:`repro.telemetry` — structured tracing, metrics, and exporters.
* :mod:`repro.experiments` — one runner per paper table/figure.
* :mod:`repro.analysis`  — reprolint, the project's static-analysis pass.
* :mod:`repro.rng`       — the sanctioned seeded-RNG construction point.
"""

__version__ = "1.0.0"
