"""End-to-end runs of the command line, as the benchmark's users run it."""

from __future__ import annotations

import argparse
import json
import re
import shutil
import subprocess
import sys

from bench import ROOT

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "bench", *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_quick_run_of_every_workload(tmp_path):
    out = tmp_path / "results.json"
    done = _bench("--quick", "--out", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    results = json.loads(out.read_text())
    declared = {m["name"] for m in SPEC["end_to_end"]}
    assert set(results["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    for name, entry in results["workloads"].items():
        report = entry["untraced"]
        assert report["correct"] and report["failed"] == 0, name
        assert set(report["end_to_end"]) == declared, name
        assert all(value > 0 for value in report["end_to_end"].values()), name
        for metric in declared:
            assert re.search(rf"^  {metric} .* n=\d+ ", done.stdout, re.M), metric


def test_contract_output_declares_every_metric_with_its_unit_and_nothing_else():
    for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
        done = _bench("--workload", "fleet_sim", "--seed", "5", "--quick", "--trace", trace)
        assert done.returncode == 0, done.stdout + done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        units = {m["name"]: m["unit"] for m in SPEC[kind]}
        assert {name: m["unit"] for name, m in result["metrics"].items()} == units
        for name, unit in units.items():
            assert f"\n{name} = " in done.stdout and done.stdout.count(f"\n{name} = ") == 1
            assert re.search(rf"^{re.escape(name)} = \S+ {re.escape(unit)}$", done.stdout, re.M), name


def test_a_child_that_crashes_or_hangs_is_a_failure_not_an_earlier_report(tmp_path, monkeypatch):
    from bench import __main__ as cli
    from bench import run

    monkeypatch.setattr(run, "OUT", tmp_path)
    stale = tmp_path / "night_traffic-seed7-trace0.json"
    stale.write_text(json.dumps({"correct": True}))
    args = argparse.Namespace(seed=7, quick=False)

    monkeypatch.setattr(
        cli.subprocess, "run", lambda command, **kw: subprocess.CompletedProcess(command, 1, "", "crash\n")
    )
    assert cli._child(args, "night_traffic", 1.0, trace=False) is None
    assert not stale.exists()

    def hang(command, **kw):
        raise subprocess.TimeoutExpired(command, kw["timeout"])

    monkeypatch.setattr(cli.subprocess, "run", hang)
    assert cli._child(args, "night_traffic", 1.0, trace=False) is None


def test_fails_without_the_system_under_test(tmp_path):
    bare = tmp_path / "bare"
    bare.mkdir()
    (bare / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    shutil.copytree(ROOT / "bench", bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", "fleet_sim", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare,
        capture_output=True,
        text=True,
        timeout=180,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
