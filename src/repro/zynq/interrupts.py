"""PL-to-PS interrupt controller model.

Fig. 6: "DMA cores and detection modules generate interrupt requests and
inform PS of their completed assigned task."  The controller latches lines
and counts deliveries.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SimulationError
from repro.telemetry.spans import NullTracer, Tracer
from repro.zynq.events import Simulator

# Interrupt latency: PL->GIC->ISR entry, a few hundred ns on a Zynq.
DEFAULT_IRQ_LATENCY_S = 500e-9


@dataclass
class InterruptLine:
    """One named PL-to-PS interrupt line."""

    name: str
    pending: bool = False
    count: int = 0


class InterruptController:
    """Latching interrupt controller that counts deliveries per line."""

    def __init__(
        self,
        sim: Simulator,
        latency_s: float = DEFAULT_IRQ_LATENCY_S,
        tracer: Tracer | NullTracer | None = None,
    ):
        if latency_s < 0:
            raise SimulationError("interrupt latency must be >= 0")
        self.sim = sim
        self.latency_s = latency_s
        self.tracer = tracer if tracer is not None else NullTracer()
        self._lines: dict[str, InterruptLine] = {}

    def register(self, name: str) -> InterruptLine:
        """Create (or return) a line."""
        if name not in self._lines:
            self._lines[name] = InterruptLine(name=name)
        return self._lines[name]

    def raise_irq(self, name: str) -> None:
        """Assert a line; it is delivered after the controller latency."""
        line = self.register(name)
        line.pending = True

        def deliver() -> None:
            if not line.pending:
                return
            line.pending = False
            line.count += 1
            if self.tracer.enabled:
                self.tracer.event("irq.delivered", time_s=self.sim.now, line=name)

        self.sim.schedule(self.latency_s, deliver)

    def count(self, name: str) -> int:
        """Interrupts delivered so far on ``name``."""
        return self.register(name).count
