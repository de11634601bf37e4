"""Gauges of how fast the machine is running right now.

The benchmark shares its machine with other tenants, and their load slows
the same code by up to 2.5x for minutes at a time.  Every measured item (a
frame or a drive) is therefore followed by a short fixed *reference
kernel*, and the item's wall time is rescaled by how much slower than
nominal that kernel ran: ``corrected = wall * nominal / reference``.

A gauge is only as good as its likeness to the items: contention slows
compute-bound and memory-bound code by different amounts.  Pixel items are
gauged by a kernel that takes a small frame through the steps of HOG,
sim-only drives by a heap-ordered event queue like the simulator's.  On
fixed repeated work these tracked the items' slowdown with an elasticity of
0.95-0.99; a gradient-and-sort numpy kernel and a dict-churn Python kernel
tracked it at 0.62 and 0.66 (bench/README.md).

The kernel runs twice and only the second pass is timed.  The first pass
takes back the caches, TLB and allocator from the item before it, so the
gauge reads the machine and not what the item left behind.

The calibration probe is the noise guard: a longer fixed job run before
and after a workload, whose disagreement flags the run as noisy.
"""

from __future__ import annotations

import heapq
import time
from typing import Callable

import numpy as np

_FRAME = np.random.default_rng(0).random((180, 320, 3))
_LUMA = np.array([0.299, 0.587, 0.114])


def _second_pass_s(kernel: Callable[[], None]) -> float:
    kernel()
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def _frame_kernel() -> None:
    """Luminance, gradient, magnitude, orientation and a 9-bin weighted
    histogram over one 180x320 frame."""
    lum = _FRAME @ _LUMA
    gx = lum[1:-1, 2:] - lum[1:-1, :-2]
    gy = lum[2:, 1:-1] - lum[:-2, 1:-1]
    bins = (np.arctan2(gy, gx) * (4.5 / np.pi)).astype(np.intp) % 9
    np.bincount(bins.ravel(), weights=np.hypot(gx, gy).ravel(), minlength=9)


def _event_kernel() -> None:
    """3000 timestamped events pushed onto a heap and popped in order."""
    events: list[tuple[float, int, str]] = []
    for i in range(3000):
        heapq.heappush(events, ((i * 7919) % 3001 * 0.001, i, "event"))
    while events:
        heapq.heappop(events)


def frame_reference_s() -> float:
    return _second_pass_s(_frame_kernel)


def event_reference_s() -> float:
    return _second_pass_s(_event_kernel)


#: Each reference kernel's second pass on the 2-core Xeon the bounds were
#: set on: the lowest median of 20-30 passes seen in about 10 minutes of
#: sampling, rounded.  Corrected times read as if every item had run at
#: that speed.
NOMINAL_S = {frame_reference_s: 0.0023, event_reference_s: 0.0022}


def calibration_probe_s() -> float:
    """Fixed numpy and pure-Python work, about 0.2 s on a 2-core Xeon."""
    start = time.perf_counter()
    values = np.linspace(0.0, 1.0, 1 << 18)
    for _ in range(25):
        values = np.sort(np.sin(values * 7.0))
    total = 0
    for i in range(1_500_000):
        total += i % 7
    return time.perf_counter() - start
