"""Tests for repro.zynq.dma: engine states, interrupts, error injection."""

from __future__ import annotations

import pytest

from repro.errors import DmaError
from repro.zynq.bus import HP_PORT, BusLink
from repro.zynq.dma import DmaDescriptor, DmaEngine, DmaState
from repro.zynq.events import Simulator, Trace
from repro.zynq.interrupts import InterruptController


@pytest.fixture()
def dma_setup():
    sim = Simulator()
    irq = InterruptController(sim)
    link = BusLink(sim, HP_PORT)
    trace = Trace()
    engine = DmaEngine("dma0", sim, link, irq, trace)
    return sim, irq, engine


class TestDescriptor:
    def test_rejects_zero_bytes(self):
        with pytest.raises(DmaError):
            DmaDescriptor(0)


class TestTransfer:
    def test_completion_fires_callback_and_irq(self, dma_setup):
        sim, irq, engine = dma_setup
        done = []
        engine.start(DmaDescriptor(4096, label="frame"), on_done=lambda: done.append(sim.now))
        sim.run()
        assert len(done) == 1
        assert irq.count(engine.irq_line) == 1
        assert engine.state is DmaState.IDLE
        assert engine.bytes_transferred == 4096

    def test_busy_engine_rejects_second_program(self, dma_setup):
        sim, _, engine = dma_setup
        engine.start(DmaDescriptor(4096))
        with pytest.raises(DmaError):
            engine.start(DmaDescriptor(4096))

    def test_sequential_transfers(self, dma_setup):
        sim, irq, engine = dma_setup
        engine.start(DmaDescriptor(1024), on_done=lambda: engine.start(DmaDescriptor(2048)))
        sim.run()
        assert engine.transfers_completed == 2
        assert engine.bytes_transferred == 3072
        assert irq.count(engine.irq_line) == 2

    def test_trace_records(self, dma_setup):
        sim, _, engine = dma_setup
        log = engine.trace.record()
        engine.start(DmaDescriptor(512, label="x"))
        sim.run()
        messages = [r.message for r in log if r.source == "dma0"]
        assert messages == ["start x (512 B)", "done x"]


class TestErrors:
    def test_injected_error_raises_error_irq(self, dma_setup):
        sim, irq, engine = dma_setup
        engine.inject_error()
        completed = []
        engine.start(DmaDescriptor(4096), on_done=lambda: completed.append(1))
        sim.run()
        assert completed == []
        assert engine.state is DmaState.ERROR
        assert irq.count(engine.error_line) == 1
        assert irq.count(engine.irq_line) == 0

    def test_error_state_blocks_until_reset(self, dma_setup):
        sim, _, engine = dma_setup
        engine.inject_error()
        engine.start(DmaDescriptor(4096))
        sim.run()
        with pytest.raises(DmaError):
            engine.start(DmaDescriptor(4096))
        engine.reset()
        done = []
        engine.start(DmaDescriptor(4096), on_done=lambda: done.append(1))
        sim.run()
        assert done == [1]

    def test_error_is_one_shot(self, dma_setup):
        sim, _, engine = dma_setup
        engine.inject_error()
        engine.start(DmaDescriptor(64))
        sim.run()
        engine.reset()
        engine.start(DmaDescriptor(64))
        sim.run()
        assert engine.state is DmaState.IDLE
