"""Import-cost guard: the drive and fleet entry points, and dark detection,
must not pull in scipy, and the timing-only entry points not the pixel stack.

``import scipy.ndimage`` alone takes about as long as a fleet run's whole
set-up and adds ~27 MB of resident memory.  Connected-component labelling
is numpy-only, so neither importing the system nor running the dark
pipeline on a frame loads it; scipy is a test-only dependency.

A sim-only fleet drive renders no pixels, so importing the worker and the
system loads none of the detection pipelines, HOG features or classifiers
(``repro.core`` and ``repro.datasets`` load their pixel halves on first use).
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]


def modules_after(code: str, *packages: str) -> str:
    """Run ``code`` in a fresh interpreter; the modules of ``packages`` it loaded."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    code += (
        f"\npackages = {packages!r}\n"
        "print(sorted(m for m in sys.modules if m in packages"
        " or m.startswith(tuple(p + '.' for p in packages))))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip().splitlines()[-1]


def scipy_modules_after(code: str) -> str:
    """Run ``code`` in a fresh interpreter; the scipy modules it loaded."""
    return modules_after(code, "scipy")


def test_worker_and_system_imports_leave_scipy_unloaded():
    assert scipy_modules_after("import sys\nimport repro.fleet.worker, repro.core.system") == "[]"


def test_worker_and_system_imports_leave_pixel_stack_unloaded():
    loaded = modules_after(
        "import sys\nimport repro.fleet.worker, repro.core.system",
        "repro.pipelines",
        "repro.features",
        "repro.ml",
    )
    assert loaded == "[]"


def test_dark_detection_leaves_scipy_unloaded():
    code = (
        "import sys\n"
        "from repro.datasets.lighting import LightingCondition\n"
        "from repro.datasets.scene import render_condition_scene\n"
        "from repro.datasets.synthetic import make_taillight_windows\n"
        "from repro.pipelines.dark import DarkStageTrace, DarkVehicleDetector\n"
        "detector = DarkVehicleDetector()\n"
        "detector.train(*make_taillight_windows(n_per_class=40, seed=3))\n"
        "frame = render_condition_scene(\n"
        "    LightingCondition.DARK, seed=4, n_vehicles=2, height=180, width=320\n"
        ").rgb\n"
        "trace = DarkStageTrace()\n"
        "detector.detect(frame, trace=trace)\n"
        "assert trace.class_grid is not None and trace.class_grid.any(), 'no DBN hits to label'\n"
    )
    assert scipy_modules_after(code) == "[]"
