"""Import-cost guard: the drive and fleet entry points must not pull in scipy.

``import scipy.ndimage`` alone takes about as long as a fleet run's whole
set-up, and importing it when a detector is built adds ~18 MB of resident
memory.  Connected-component labelling imports it lazily, on first use.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]


def test_worker_and_system_imports_leave_scipy_unloaded():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    code = (
        "import sys\n"
        "import repro.fleet.worker, repro.core.system\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
