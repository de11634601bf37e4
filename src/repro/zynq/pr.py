"""Partial-reconfiguration controllers: PCAP, AXI HWICAP, ZyCAP, and ours.

Four ways to push a partial bitstream into the configuration engine, each
with the data path the literature describes (Section IV-A of the paper):

* :class:`PcapController` — the stock flow: PS DMA moves the bitstream from
  PS DDR through the *central interconnect* to the PCAP bridge.  Ideal
  400 MB/s, realised ~145 MB/s.
* :class:`HwIcapController` — Xilinx AXI HWICAP: the PS pushes single
  AXI-Lite words through a GP port, ~19 MB/s.
* :class:`ZycapController` — ZyCAP [19]: a PL DMA pulls from PS DDR over an
  HP port into ICAP, ~382 MB/s, but occupies an HP port.
* :class:`PaperPrController` — the paper's contribution: bitstreams staged
  in *PL-side DDR*, a PL DMA streams them through the ICAP manager into
  ICAPE2; ~390 MB/s, PS interconnect and HP ports untouched.

All controllers share :class:`ReconfigurationManager` semantics: integrity
check, busy-rejection, completion interrupt, and a measured-throughput
report (the paper measured with the ARM performance counters and an ILA; we
read the simulator clock).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import ReconfigurationError
from repro.faults.plan import FaultPlan, FaultSite
from repro.zynq.bitstream import BitstreamRepository, PartialBitstream
from repro.zynq.bus import (
    GP_PORT_LITE,
    HP_PORT,
    ICAP_PORT,
    PL_DDR_PORT,
    PS_CENTRAL_INTERCONNECT,
    BusLink,
    LinkSpec,
    Path,
)
from repro.telemetry.metrics import throughput_mbs
from repro.zynq.events import Simulator, Trace
from repro.zynq.interrupts import InterruptController


class PrState(enum.Enum):
    """Lifecycle of a PR controller."""

    IDLE = "idle"
    RECONFIGURING = "reconfiguring"


@dataclass
class ReconfigReport:
    """Outcome of one partial reconfiguration."""

    controller: str
    bitstream: str
    size_bytes: int
    start_s: float
    end_s: float = 0.0
    ok: bool = False
    error: str = ""
    attempt: int = 1
    timed_out: bool = False

    @property
    def duration_s(self) -> float:
        """Wall time of the attempt on the simulator clock."""
        return self.end_s - self.start_s

    @property
    def throughput_mb_s(self) -> float:
        """Measured MB/s (decimal MB, as reported in the paper)."""
        return throughput_mbs(self.size_bytes, self.duration_s)

    def to_dict(self) -> dict:
        """Plain-data form for bundles, exports, and summaries."""
        return {
            "controller": self.controller,
            "bitstream": self.bitstream,
            "size_bytes": self.size_bytes,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "duration_ms": self.duration_s * 1e3,
            "throughput_mb_s": self.throughput_mb_s,
            "ok": self.ok,
            "error": self.error,
            "attempt": self.attempt,
            "timed_out": self.timed_out,
        }


class BasePrController:
    """Shared PR controller machinery over a configuration data path."""

    #: Name used in traces and reports; subclasses override.
    name = "base-pr"

    def __init__(
        self,
        sim: Simulator,
        interrupts: InterruptController,
        repository: BitstreamRepository,
        trace: Trace,
        setup_time_s: float = 2.0e-6,
        faults: FaultPlan | None = None,
        timeout_s: float | None = None,
    ):
        if timeout_s is not None and timeout_s <= 0:
            raise ReconfigurationError(f"timeout_s must be positive, got {timeout_s}")
        self.sim = sim
        self.interrupts = interrupts
        self.repository = repository
        self.trace = trace
        self.setup_time_s = setup_time_s
        self.faults = faults
        self.timeout_s = timeout_s
        self.state = PrState.IDLE
        self.irq_line = f"{self.name}.reconfig_done"
        self.error_line = f"{self.name}.reconfig_error"
        interrupts.register(self.irq_line)
        interrupts.register(self.error_line)
        self.reports: list[ReconfigReport] = []
        self.active_configuration: str | None = None

    # Data path; subclasses provide the hop chain.
    def _path(self) -> Path:
        raise NotImplementedError

    def occupies_hp_port(self) -> bool:
        """True when this controller's transfer contends with video DMA."""
        return False

    def transfer_time(self, n_bytes: int) -> float:
        """Seconds this controller needs to move ``n_bytes`` to ICAP."""
        return self._path().transfer_time(n_bytes)

    def effective_bandwidth(self) -> float:
        """Sustained configuration bandwidth in bytes/s."""
        return self._path().effective_bandwidth()

    def reconfigure(
        self,
        name: str,
        on_done: Callable[[ReconfigReport], None] | None = None,
    ) -> ReconfigReport:
        """Start loading the named bitstream; returns the (live) report.

        Raises :class:`ReconfigurationError` when already reconfiguring or
        when the bitstream fails its integrity check.
        """
        if self.state is PrState.RECONFIGURING:
            raise ReconfigurationError(f"{self.name}: reconfiguration already in progress")
        bitstream = self.repository.get(name)
        if self.faults is not None and self.faults.fire(
            FaultSite.BITSTREAM_CORRUPT, name, self.sim.now
        ):
            bitstream.corrupt_payload()
        report = ReconfigReport(
            controller=self.name,
            bitstream=name,
            size_bytes=bitstream.size_bytes,
            start_s=self.sim.now,
        )
        self.reports.append(report)
        if not bitstream.verify():
            report.end_s = self.sim.now
            report.error = "integrity check failed"
            raise ReconfigurationError(f"{self.name}: bitstream {name!r} failed integrity check")
        self.state = PrState.RECONFIGURING
        span = None
        if self.trace.tracer.enabled:
            span = self.trace.tracer.begin(
                "pr.reconfigure",
                controller=self.name,
                bitstream=name,
                bytes=bitstream.size_bytes,
                attempt=report.attempt,
            )
        self.trace.emit(
            self.sim.now, self.name, "pr.start", bitstream=name, bytes=bitstream.size_bytes
        )
        duration = self.transfer_time(bitstream.size_bytes)
        if self.faults is not None:
            stall = self.faults.fire(FaultSite.PR_STALL, name, self.sim.now)
            if stall is not None:
                duration += stall.magnitude
                if span is not None:
                    span.add_event("pr.stall", self.sim.now, stall_ms=stall.magnitude * 1e3)
                self.trace.emit(
                    self.sim.now,
                    self.name,
                    "pr.stall",
                    bitstream=name,
                    stall_ms=stall.magnitude * 1e3,
                )

        def complete() -> None:
            if report.timed_out:
                return
            self.state = PrState.IDLE
            self.active_configuration = name
            report.end_s = self.sim.now
            report.ok = True
            self.trace.emit(
                self.sim.now,
                self.name,
                "pr.done",
                bitstream=name,
                duration_ms=report.duration_s * 1e3,
                throughput_mb_s=report.throughput_mb_s,
            )
            self.trace.tracer.end(span, outcome="ok", throughput_mb_s=report.throughput_mb_s)
            self.interrupts.raise_irq(self.irq_line)
            if on_done is not None:
                on_done(report)

        handle = self.sim.schedule(self.setup_time_s + duration, complete)

        if self.timeout_s is not None:

            def watchdog() -> None:
                if report.ok or report.timed_out:
                    return
                handle.cancel()
                self.state = PrState.IDLE
                report.end_s = self.sim.now
                report.error = "watchdog timeout"
                report.timed_out = True
                self.trace.emit(self.sim.now, self.name, "pr.timeout", bitstream=name)
                self.trace.tracer.end(span, outcome="timeout")
                self.interrupts.raise_irq(self.error_line)
                if on_done is not None:
                    on_done(report)

            self.sim.schedule(self.setup_time_s + self.timeout_s, watchdog)
        return report


class PcapController(BasePrController):
    """Stock PCAP flow through the PS central interconnect (~145 MB/s)."""

    name = "pcap"

    def _path(self) -> Path:
        return Path(self.name, [PS_CENTRAL_INTERCONNECT, ICAP_PORT])


class HwIcapController(BasePrController):
    """Xilinx AXI HWICAP over a GP port (~19 MB/s)."""

    name = "hwicap"

    def _path(self) -> Path:
        return Path(self.name, [GP_PORT_LITE, ICAP_PORT])


class ZycapController(BasePrController):
    """ZyCAP [19]: PL DMA from PS DDR over an HP port (~382 MB/s)."""

    name = "zycap"

    def _path(self) -> Path:
        return Path(self.name, [HP_PORT, ICAP_PORT])

    def occupies_hp_port(self) -> bool:
        """ZyCAP streams over an HP port, contending with video DMA."""
        return True


class PaperPrController(BasePrController):
    """The paper's controller: PL DDR -> DMA -> ICAP manager -> ICAPE2.

    ~390 MB/s measured; "eliminate[s] any delay that could be imposed by
    the PS and leave[s] the AXI HP port of PS for other high speed data
    transfers".
    """

    name = "paper-pr"

    def _path(self) -> Path:
        return Path(self.name, [PL_DDR_PORT, ICAP_PORT])


ALL_CONTROLLERS: tuple[type[BasePrController], ...] = (
    PcapController,
    HwIcapController,
    ZycapController,
    PaperPrController,
)

# The port ceiling both PCAP and ICAP share (32 bit @ 100 MHz).
THEORETICAL_MAX_MB_S = ICAP_PORT.peak_bandwidth / 1e6
