"""AXI DMA engine model (MM2S / S2MM).

A DMA engine is programmed by the PS through its AXI-Lite registers with a
descriptor (source/size) and then moves data over its :class:`BusLink`,
raising its interrupt line on completion — exactly the Fig. 6 flow:
"Processing system initiates the DMA data transfer by writing to its
registers and defining the size of data."
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

from repro.errors import DmaError
from repro.faults.plan import FaultPlan, FaultSite
from repro.zynq.bus import BusLink
from repro.zynq.events import Simulator, Trace
from repro.zynq.interrupts import InterruptController

# Register-programming cost: a handful of AXI-Lite writes from the PS.
DMA_SETUP_TIME_S = 1.0e-6


class DmaState(enum.Enum):
    """Lifecycle of one DMA engine."""

    IDLE = "idle"
    BUSY = "busy"
    ERROR = "error"


@dataclass(frozen=True)
class DmaDescriptor:
    """One programmed transfer."""

    n_bytes: int
    label: str = ""

    def __post_init__(self) -> None:
        if self.n_bytes <= 0:
            raise DmaError(f"transfer size must be positive, got {self.n_bytes}")


class DmaEngine:
    """One AXI DMA channel bound to a link and an interrupt line."""

    def __init__(
        self,
        name: str,
        sim: Simulator,
        link: BusLink,
        interrupts: InterruptController,
        trace: Trace,
        burst_beats: int | None = None,
        faults: FaultPlan | None = None,
    ):
        self.name = name
        self.sim = sim
        self.link = link
        self.interrupts = interrupts
        self.trace = trace
        self.burst_beats = burst_beats
        self.faults = faults
        self.state = DmaState.IDLE
        self.transfers_completed = 0
        self.bytes_transferred = 0
        self.irq_line = f"{name}.done"
        self.error_line = f"{name}.error"
        interrupts.register(self.irq_line)
        interrupts.register(self.error_line)
        self._inject_error_next = False
        self._transfer: tuple = ()

    def inject_error(self) -> None:
        """Make the next transfer abort with a DMA error (failure testing)."""
        self._inject_error_next = True

    def start(
        self,
        descriptor: DmaDescriptor,
        on_done: Callable[[], None] | None = None,
        on_error: Callable[[], None] | None = None,
    ) -> None:
        """Program and start a transfer; raises on a busy engine.

        Completion raises the engine's interrupt line and calls ``on_done``;
        an aborted transfer raises the error line and calls ``on_error``.
        """
        if self.state is DmaState.BUSY:
            raise DmaError(f"{self.name}: programmed while busy")
        if self.state is DmaState.ERROR:
            raise DmaError(f"{self.name}: in error state; reset() first")
        self.state = DmaState.BUSY
        trace = self.trace
        span = None
        if trace.tracer.enabled:
            span = trace.tracer.begin(
                "dma.transfer",
                engine=self.name,
                label=descriptor.label,
                bytes=descriptor.n_bytes,
                link=self.link.spec.name,
            )
        trace.emit(
            self.sim.now, self.name, "dma.start", label=descriptor.label, bytes=descriptor.n_bytes
        )
        inject = self._inject_error_next
        self._inject_error_next = False
        stall_s = 0.0
        if self.faults is not None:
            if self.faults.fire(FaultSite.DMA_ERROR, self.name, self.sim.now, descriptor.label):
                inject = True
            stall = self.faults.fire(
                FaultSite.DMA_STALL, self.name, self.sim.now, descriptor.label
            )
            if stall is not None:
                stall_s = stall.magnitude
                if span is not None:
                    span.add_event("dma.stall", self.sim.now, stall_ms=stall_s * 1e3)
                trace.emit(
                    self.sim.now,
                    self.name,
                    "dma.stall",
                    label=descriptor.label,
                    stall_ms=stall_s * 1e3,
                )
        # An engine runs one transfer at a time, so the transfer's state
        # lives on the engine until it completes or aborts.
        self._transfer = (descriptor, inject, span, on_done, on_error)
        self.sim.schedule(DMA_SETUP_TIME_S + stall_s, self._after_setup)

    def _after_setup(self) -> None:
        descriptor, inject, span, _, on_error = self._transfer
        if inject:
            self._transfer = ()
            self.state = DmaState.ERROR
            self.trace.emit(self.sim.now, self.name, "dma.error", label=descriptor.label)
            self.trace.tracer.end(span, outcome="error")
            self.interrupts.raise_irq(self.error_line)
            if on_error is not None:
                on_error()
            return
        self.link.request(
            descriptor.n_bytes,
            on_done=self._complete,
            burst_beats=self.burst_beats,
            label=f"{self.name}:{descriptor.label}",
        )

    def _complete(self) -> None:
        descriptor, _, span, on_done, _ = self._transfer
        self._transfer = ()
        self.state = DmaState.IDLE
        self.transfers_completed += 1
        self.bytes_transferred += descriptor.n_bytes
        self.trace.emit(
            self.sim.now, self.name, "dma.done", label=descriptor.label, bytes=descriptor.n_bytes
        )
        self.trace.tracer.end(span, outcome="ok")
        self.interrupts.raise_irq(self.irq_line)
        if on_done is not None:
            on_done()

    def reset(self) -> None:
        """Clear an error state (soft reset through AXI-Lite)."""
        if self.state is DmaState.BUSY:
            raise DmaError(f"{self.name}: cannot reset a busy engine")
        self.state = DmaState.IDLE
