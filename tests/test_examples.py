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


#: ``examples/reconfiguration_demo.py``'s stdout, captured when the SoC
#: trace still kept every record itself.
RECONFIGURATION_DEMO_STDOUT = (
    '=== Section IV-A: configuration throughput, 8 MB partial bitstream ===\n'
    'controller path                                          MB/s   paper       ms\n'
    'pcap       PS DDR -> central interconnect -> PCAP       145.4   145.0    55.00\n'
    'hwicap     PS GP port -> AXI-Lite -> HWICAP              19.0    19.0   420.00\n'
    'zycap      PS DDR -> HP port -> PL DMA -> ICAP          382.0   382.0    20.94\n'
    'paper-pr   PL DDR -> PL DMA -> ICAP manager -> ICAPE2   390.0   390.0    20.51\n'
    '(ceiling)  ICAP/PCAP port, 32 bit @ 100 MHz             400.0   400.0        -\n'
    '\n'
    '=== Fig. 7: the paper PR controller, event by event ===\n'
    '  t=   0.000 ms  [soc] vehicle partition down for PR -> dark\n'
    '  t=   0.000 ms  [paper-pr] reconfigure -> dark start\n'
    '  t=  20.512 ms  [paper-pr] reconfigure -> dark done (390 MB/s)\n'
    '  t=  20.512 ms  [soc] vehicle partition up (dark)\n'
    '  completion interrupts: 1\n'
    '\n'
    '=== HP-port contention: why the bitstream lives in PL DDR ===\n'
    '  pedestrian frame turnaround during a PR:\n'
    '    paper controller (PL DDR path):   23.42 ms\n'
    '    ZyCAP placement (HP port path):   43.36 ms\n'
    '  The paper controller leaves the HP ports to the video DMAs —\n'
    '  "leave the AXI HP port of PS for other high speed data transfers".\n'
    '\n'
    '=== Failure injection: corrupt bitstream ===\n'
    "  rejected before touching ICAP: paper-pr: bitstream 'dark' failed integrity check\n"
    '  pedestrian detection unaffected: frame accepted = True\n'
)


def test_reconfiguration_demo_output_is_byte_identical():
    result = run_python(str(REPO_ROOT / "examples" / "reconfiguration_demo.py"))
    assert result.returncode == 0, result.stderr
    assert result.stdout == RECONFIGURATION_DEMO_STDOUT


def test_benchmarks_collect():
    result = run_python("-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", "benchmarks")
    assert result.returncode == 0, result.stdout + result.stderr
