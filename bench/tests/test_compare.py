"""Verdict rules of ``python3 -m bench.compare``."""

from __future__ import annotations

import json

import pytest

from bench.compare import main, spread, verdict

STEADY = [100.0, 101.0, 99.0, 100.5, 99.5]


def test_spread_is_quartile_distance_over_median():
    assert spread([1.0]) == 0.0
    # Quartiles 99.25 and 100.75 around a median of 100.
    assert spread(STEADY) == pytest.approx(0.015)


def test_within_the_bound_is_unchanged():
    assert verdict(STEADY, [x * 1.05 for x in STEADY], bound=0.1, better="lower") == "unchanged"
    assert verdict(STEADY, [x * 0.95 for x in STEADY], bound=0.1, better="lower") == "unchanged"


def test_worse_by_more_than_the_bound_is_regressed():
    assert verdict(STEADY, [x * 1.2 for x in STEADY], bound=0.1, better="lower") == "regressed"
    # Higher-is-better metrics regress downwards.
    assert verdict(STEADY, [x * 0.8 for x in STEADY], bound=0.1, better="higher") == "regressed"


def test_better_by_more_than_the_bound_is_improved():
    assert verdict(STEADY, [x * 0.8 for x in STEADY], bound=0.1, better="lower") == "improved"
    assert verdict(STEADY, [x * 1.2 for x in STEADY], bound=0.1, better="higher") == "improved"


def test_spread_wider_than_the_bound_is_unresolved_unless_b_dominates():
    noisy = [70.0, 90.0, 100.0, 110.0, 130.0]
    assert verdict(noisy, [x * 1.3 for x in noisy], bound=0.1, better="lower") == "unresolved"
    assert verdict(STEADY, noisy, bound=0.1, better="lower") == "unresolved"
    # Every B run beats every A run: a gain even through the noise.
    assert verdict(noisy, [40.0, 50.0, 60.0, 65.0, 69.0], bound=0.1, better="lower") == "improved"
    # ...but every B run losing is still only unresolved.
    assert verdict(noisy, [140.0, 150.0, 160.0, 170.0, 180.0], bound=0.1, better="lower") == "unresolved"


def _report(path, workload, seed, latency, digest="d"):
    path.write_text(
        json.dumps(
            {
                "workload": workload,
                "seed": seed,
                "trace": False,
                "detections_digest": digest,
                "end_to_end": {"latency_ms_p50": latency},
            }
        )
    )
    return str(path)


def test_main_exits_1_on_a_regression_and_flags_differing_detections(tmp_path, capsys):
    a = [_report(tmp_path / f"a{i}.json", "night_traffic", i, 40.0 + i * 0.1) for i in range(3)]
    b_same = [_report(tmp_path / f"b{i}.json", "night_traffic", i, 40.0 + i * 0.1) for i in range(3)]
    assert main(a + ["--"] + b_same) == 0
    assert "unchanged" in capsys.readouterr().out

    b_slow = [_report(tmp_path / f"c{i}.json", "night_traffic", i, 60.0, digest="x") for i in range(3)]
    assert main(a + ["--"] + b_slow) == 1
    out = capsys.readouterr().out
    assert "regressed" in out
    assert "detections differ: night_traffic seed 0" in out

    assert main(a) == 2
