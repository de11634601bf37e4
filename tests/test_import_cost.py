"""Import-cost guard: the drive and fleet entry points, and dark detection,
must not pull in scipy, and the timing-only entry points not the pixel stack.

``import scipy.ndimage`` alone takes about as long as a fleet run's whole
set-up and adds ~27 MB of resident memory.  Connected-component labelling
is numpy-only, so neither importing the system nor running the dark
pipeline on a frame loads it; scipy is a test-only dependency.

A sim-only fleet drive renders no pixels, so importing the worker and the
system loads none of the detection pipelines, HOG features or classifiers,
and of ``repro.imaging`` only the box geometry.  That holds because every
package ``__init__`` is its docstring alone: importing one module loads
its package's ``__init__`` and nothing else of the package.  The layout
tests below keep re-exporting facades (and the module ``__getattr__``
hooks that would make them lazy) from coming back.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src" / "repro"

WORKER_AND_SYSTEM = "import sys\nimport repro.fleet.worker, repro.core.system"

#: Modules a sim-only drive never runs, which the re-exporting package
#: ``__init__``s used to load with the worker and the system.
UNUSED_BY_SIM_DRIVES = (
    "repro.imaging.color",
    "repro.imaging.components",
    "repro.imaging.draw",
    "repro.imaging.filters",
    "repro.imaging.image",
    "repro.imaging.morphology",
    "repro.imaging.resize",
    "repro.imaging.threshold",
    "repro.fleet.scheduler",
    "repro.fleet.status",
    "repro.fleet.trace",
    "repro.fleet.specs",
    "repro.fleet.rollup",
    "repro.fleet.events",
    "repro.faults.scenarios",
    "repro.hw.floorplan",
    "repro.hw.resources",
    "repro.telemetry.openmetrics",
)


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
    assert scipy_modules_after(WORKER_AND_SYSTEM) == "[]"


def test_worker_and_system_imports_leave_pixel_stack_unloaded():
    loaded = modules_after(WORKER_AND_SYSTEM, "repro.pipelines", "repro.features", "repro.ml")
    assert loaded == "[]"


def test_worker_and_system_imports_load_only_the_box_geometry_of_imaging():
    loaded = modules_after(WORKER_AND_SYSTEM, "repro.imaging")
    assert loaded == str(["repro.imaging", "repro.imaging.geometry"])


def test_worker_and_system_imports_leave_unused_modules_unloaded():
    assert modules_after(WORKER_AND_SYSTEM, *UNUSED_BY_SIM_DRIVES) == "[]"


def test_package_inits_are_docstrings_only():
    # One level deep: analysis/rules/__init__.py keeps its imports, which
    # are what register the rules.
    inits = sorted(SRC.glob("*/__init__.py"))
    assert inits
    for init in inits:
        tree = ast.parse(init.read_text(encoding="utf-8"))
        assert ast.get_docstring(tree) is not None and len(tree.body) == 1, init


def test_no_module_defines_a_module_getattr():
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef):
                assert node.name != "__getattr__", path


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
