"""Smoke test for the code outside ``src`` that no other test imports.

Each example script runs in a fresh interpreter with its default
arguments, and the ``benchmarks`` directory must collect, so a change that
deletes or renames something they import fails here instead of at the
next manual run.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((REPO_ROOT / "examples").glob("*.py"))


def run_python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, *args],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.name)
def test_example_runs_with_defaults(script):
    result = run_python(str(script))
    assert result.returncode == 0, result.stderr


def test_benchmarks_collect():
    result = run_python("-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", "benchmarks")
    assert result.returncode == 0, result.stdout + result.stderr
