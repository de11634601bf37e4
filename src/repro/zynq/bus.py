"""AXI data-path models: ports, links, burst timing, contention.

Throughput through a configuration path is dominated by *which interconnect
the data traverses* — the paper's whole PR argument.  Each :class:`BusLink`
has a beat width, a clock, a maximum burst length, and a per-burst overhead
(arbitration, address phase, turnaround).  Effective bandwidth is then

    bytes_per_beat * f_clk * burst / (burst + overhead)

which reproduces the published numbers:

* PCAP via the PS central interconnect: 4 B x 100 MHz with short (4-beat)
  bursts and ~7 cycles of interconnect overhead -> ~145 MB/s.
* AXI HWICAP via a GP port: single-beat AXI-Lite writes, ~20 cycles of
  overhead each -> ~19 MB/s.
* ZyCAP via an HP port: 256-beat bursts, ~12 cycles overhead -> ~382 MB/s.
* The paper's controller from PL DDR: 256-beat bursts, ~6.5 cycles of DDR
  turnaround only -> ~390 MB/s.

Links are shared resources with FIFO arbitration: concurrent requests
serialise, modelling HP-port contention between video DMA and a ZyCAP-style
reconfiguration path.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro.errors import BusError
from repro.zynq.events import Simulator


@dataclass(frozen=True)
class LinkSpec:
    """Static parameters of one AXI link/hop.

    Attributes:
        name: Link label for traces.
        clock_hz: Link clock.
        bytes_per_beat: Data width in bytes.
        max_burst_beats: Longest burst the hop supports.
        overhead_cycles_per_burst: Arbitration/address/turnaround cycles
            charged per burst.
    """

    name: str
    clock_hz: float = 100e6
    bytes_per_beat: int = 4
    max_burst_beats: int = 256
    overhead_cycles_per_burst: float = 1.0

    def __post_init__(self) -> None:
        if self.clock_hz <= 0 or self.bytes_per_beat <= 0 or self.max_burst_beats <= 0:
            raise BusError(f"invalid link spec {self}")
        if self.overhead_cycles_per_burst < 0:
            raise BusError("overhead must be >= 0")

    @property
    def peak_bandwidth(self) -> float:
        """Bytes/s with zero overhead."""
        return self.bytes_per_beat * self.clock_hz

    def effective_bandwidth(self, burst_beats: int | None = None) -> float:
        """Bytes/s including per-burst overhead."""
        beats = min(burst_beats or self.max_burst_beats, self.max_burst_beats)
        if beats <= 0:
            raise BusError("burst must be positive")
        cycles_per_burst = beats + self.overhead_cycles_per_burst
        return self.bytes_per_beat * beats * self.clock_hz / cycles_per_burst

    def transfer_time(self, n_bytes: int, burst_beats: int | None = None) -> float:
        """Seconds to move ``n_bytes`` over an uncontended link."""
        if n_bytes < 0:
            raise BusError(f"bytes must be >= 0, got {n_bytes}")
        if n_bytes == 0:
            return 0.0
        beats = min(burst_beats or self.max_burst_beats, self.max_burst_beats)
        beats_total = -(-n_bytes // self.bytes_per_beat)
        bursts = -(-beats_total // beats)
        cycles = beats_total + bursts * self.overhead_cycles_per_burst
        return cycles / self.clock_hz


@dataclass(slots=True)
class _LinkJob:
    n_bytes: int
    burst_beats: int | None
    on_done: Callable[[], None]
    label: str


class BusLink:
    """A shared link with FIFO arbitration in a discrete-event simulation."""

    def __init__(self, sim: Simulator, spec: LinkSpec):
        self.sim = sim
        self.spec = spec
        self._queue: deque[_LinkJob] = deque()
        self._busy = False
        #: The transfer occupying the link (None while idle).
        self._job: _LinkJob | None = None
        self.bytes_moved = 0
        self.busy_time = 0.0
        self.jobs_completed = 0

    def request(
        self,
        n_bytes: int,
        on_done: Callable[[], None],
        burst_beats: int | None = None,
        label: str = "",
    ) -> None:
        """Enqueue a transfer; ``on_done`` fires at completion time."""
        if n_bytes < 0:
            raise BusError(f"bytes must be >= 0, got {n_bytes}")
        self._queue.append(_LinkJob(n_bytes, burst_beats, on_done, label))
        if not self._busy:
            self._start_next()

    def _start_next(self) -> None:
        if not self._queue:
            self._busy = False
            self._job = None
            return
        self._busy = True
        job = self._job = self._queue.popleft()
        duration = self.spec.transfer_time(job.n_bytes, job.burst_beats)
        self.busy_time += duration
        self.sim.schedule(duration, self._finish)

    def _finish(self) -> None:
        job = self._job
        assert job is not None
        self.bytes_moved += job.n_bytes
        self.jobs_completed += 1
        job.on_done()
        self._start_next()

    @property
    def queue_depth(self) -> int:
        """Transfers waiting behind the one in flight."""
        return len(self._queue)

    @property
    def busy(self) -> bool:
        """True while a transfer occupies the link."""
        return self._busy


class Path:
    """An ordered chain of links a transfer must traverse.

    Store-and-forward at burst granularity collapses, for long transfers,
    to the bottleneck link's effective bandwidth — so the path time is
    modelled as the max per-link time plus the smaller links' single-burst
    fill latencies.
    """

    def __init__(self, name: str, links: list[LinkSpec]):
        if not links:
            raise BusError(f"path {name!r} needs at least one link")
        self.name = name
        self.links = links

    def bottleneck(self, burst_beats: int | None = None) -> LinkSpec:
        """The slowest link of the chain at this burst size."""
        return min(self.links, key=lambda l: l.effective_bandwidth(burst_beats))

    def effective_bandwidth(self, burst_beats: int | None = None) -> float:
        """Sustained bytes/s through the chain (bottleneck-bound)."""
        return self.bottleneck(burst_beats).effective_bandwidth(burst_beats)

    def transfer_time(self, n_bytes: int, burst_beats: int | None = None) -> float:
        """Seconds to move ``n_bytes`` end to end, including hop fill."""
        slowest = max(l.transfer_time(n_bytes, burst_beats) for l in self.links)
        # Pipeline fill: one burst through each non-bottleneck hop.
        beats = burst_beats or min(l.max_burst_beats for l in self.links)
        fill = sum(
            l.transfer_time(min(n_bytes, beats * l.bytes_per_beat), burst_beats)
            for l in self.links
        ) - max(
            l.transfer_time(min(n_bytes, beats * l.bytes_per_beat), burst_beats)
            for l in self.links
        )
        return slowest + fill


# Calibrated link specs for the Zynq-7000 configuration paths --------------

# ICAPE2 / PCAP port ceiling: 32 bit at 100 MHz = 400 MB/s.
ICAP_PORT = LinkSpec("icap-port", clock_hz=100e6, bytes_per_beat=4, max_burst_beats=256, overhead_cycles_per_burst=0.0)

# PS central interconnect as seen by the PCAP DMA: short bursts, heavy
# arbitration -> ~145 MB/s.
PS_CENTRAL_INTERCONNECT = LinkSpec(
    "ps-central-interconnect", clock_hz=100e6, bytes_per_beat=4, max_burst_beats=4, overhead_cycles_per_burst=7.0
)

# GP port carrying AXI-Lite single-beat writes (AXI HWICAP) -> ~19 MB/s.
GP_PORT_LITE = LinkSpec(
    "gp-port-axi-lite", clock_hz=100e6, bytes_per_beat=4, max_burst_beats=1, overhead_cycles_per_burst=20.0
)

# HP port with long bursts (ZyCAP's DMA) -> ~382 MB/s at the config clock.
HP_PORT = LinkSpec(
    "hp-port", clock_hz=100e6, bytes_per_beat=4, max_burst_beats=256, overhead_cycles_per_burst=12.0
)

# PL-side DDR3 controller port (the paper's controller) -> ~390 MB/s.
PL_DDR_PORT = LinkSpec(
    "pl-ddr-port", clock_hz=100e6, bytes_per_beat=4, max_burst_beats=256, overhead_cycles_per_burst=6.5
)

# High-bandwidth HP port at the fabric data width for video traffic
# (64 bit @ 150 MHz = 1.2 GB/s), used by the frame DMAs in Fig. 6.
HP_PORT_VIDEO = LinkSpec(
    "hp-port-video", clock_hz=150e6, bytes_per_beat=8, max_burst_beats=256, overhead_cycles_per_burst=12.0
)

# PS DDR controller serving the HP/central masters.
PS_DDR_PORT = LinkSpec(
    "ps-ddr-port", clock_hz=150e6, bytes_per_beat=8, max_burst_beats=256, overhead_cycles_per_burst=8.0
)
