"""Tests for repro.zynq.interrupts."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.zynq.events import Simulator
from repro.zynq.interrupts import InterruptController


class TestInterrupts:
    def test_delivery_after_latency(self, simulator):
        irq = InterruptController(simulator, latency_s=1e-6)
        irq.raise_irq("dma.done")
        simulator.run_until(0.9e-6)
        assert irq.count("dma.done") == 0
        simulator.run()
        assert irq.count("dma.done") == 1 and simulator.now == 1e-6

    def test_count_accumulates(self, simulator):
        irq = InterruptController(simulator)
        irq.register("line")
        irq.raise_irq("line")
        simulator.run()
        irq.raise_irq("line")
        simulator.run()
        assert irq.count("line") == 2

    def test_pending_until_delivered(self, simulator):
        irq = InterruptController(simulator, latency_s=1.0)
        irq.raise_irq("x")
        assert irq.register("x").pending
        simulator.run()
        assert not irq.register("x").pending

    def test_latched_line_coalesces_double_raise(self, simulator):
        # Two raises before delivery latch into one delivery.
        irq = InterruptController(simulator, latency_s=1.0)
        irq.raise_irq("x")
        irq.raise_irq("x")
        simulator.run()
        assert irq.count("x") == 1

    def test_rejects_negative_latency(self, simulator):
        with pytest.raises(SimulationError):
            InterruptController(simulator, latency_s=-1.0)

    def test_register_idempotent(self, simulator):
        irq = InterruptController(simulator)
        line1 = irq.register("x")
        line2 = irq.register("x")
        assert line1 is line2
