"""Set-up memory guard: building the day/dusk detectors stays lean.

Detector set-up renders the two training corpora and extracts each crop's
HOG once.  Rendering the test corpora too, or re-extracting HOG from a
concatenated combined corpus, raises the process's peak resident memory by
tens of megabytes; the guard catches either coming back.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Allowed growth of ``ru_maxrss`` (KiB on Linux) across
#: ``build_corpora(0.1, 0)`` plus ``train_condition_models``.  The lean set-up
#: grows it by ~28 MB; rendering the test corpora and merging for the
#: combined model grew it by ~61 MB.
MAX_GROWTH_MB = 45.0


def test_detector_set_up_peak_memory_growth_is_bounded():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    code = (
        "import resource\n"
        "from repro.experiments.common import build_corpora\n"
        "from repro.pipelines.day_dusk import train_condition_models\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "corpora = build_corpora(0.1, 0)\n"
        "train_condition_models(corpora.day_train, corpora.dusk_train)\n"
        "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "print((after - before) / 1024.0)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stderr
    growth_mb = float(result.stdout.strip())
    assert growth_mb < MAX_GROWTH_MB, f"set-up grew peak RSS by {growth_mb:.1f} MB"
