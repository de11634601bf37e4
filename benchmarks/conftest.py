"""Benchmark configuration.

Each ``bench_*.py`` file regenerates one paper artefact (table or figure).
The reproduction itself runs inside ``benchmark.pedantic(..., rounds=1)``
so it executes (and is timed) under ``pytest --benchmark-only``; its
assertions check the paper's qualitative claims, and the rendered
measured-vs-paper report prints at the end of the session.

``--repro-scale`` controls corpus sizes for the accuracy experiments:
the default 1.0 reproduces the paper's test-set sizes (Table I trains three
LibLINEAR-style models on ~800 crops each and classifies ~2 000 test crops,
about half a minute); smaller values shrink every corpus proportionally.
"""

from __future__ import annotations

import pytest

from repro.telemetry.metrics import MetricsRegistry, Stopwatch

#: Session-wide registry: every ``run_once`` call lands a wall-time
#: observation here, and the snapshot prints in the terminal summary.
BENCH_METRICS = MetricsRegistry()

#: Rendered measured-vs-paper reports collected by the report_sink fixture.
_ARTEFACT_REPORTS: list[str] = []


def pytest_addoption(parser):
    parser.addoption(
        "--repro-scale",
        action="store",
        default="1.0",
        help="Corpus scale for accuracy experiments (1.0 = paper sizes)",
    )


@pytest.fixture(scope="session")
def repro_scale(request) -> float:
    return float(request.config.getoption("--repro-scale"))


@pytest.fixture(scope="session")
def report_sink():
    """Collects rendered experiment reports; printed at session end."""
    reports = _ARTEFACT_REPORTS
    yield reports
    if reports:
        print("\n\n" + "\n\n".join(reports) + "\n")


def run_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under pytest-benchmark and return its result.

    The wall time of the single round also lands in the shared
    :data:`BENCH_METRICS` registry (``bench_wall_s{bench=<fn name>}``), so
    the terminal summary can compare artefact costs across one session.
    """
    with Stopwatch() as sw:
        result = benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
    BENCH_METRICS.gauge("bench_wall_s", bench=fn.__name__).set(sw.elapsed_s)
    BENCH_METRICS.counter("bench_runs").inc()
    return result


def pytest_terminal_summary(terminalreporter):
    snapshot = BENCH_METRICS.snapshot()
    if not snapshot:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("benchmark metrics (repro.telemetry):")
    for series in snapshot:
        labels = series.get("labels", {})
        label_text = (
            "{" + ",".join(f"{k}={v}" for k, v in sorted(labels.items())) + "}"
            if labels
            else ""
        )
        terminalreporter.write_line(
            f"  {series['name']}{label_text}: {series.get('value', 0.0):g}"
        )
