"""The Fig. 6 system: PS + PL, HP/GP ports, DMAs, detectors, PR controller.

Builds the paper's block diagram in the discrete-event simulator:

* pedestrian detection (static partition) fed by an AXI DMA pair on HP0;
* vehicle detection (reconfigurable partition) fed by DMA pairs on HP1/HP2;
* a PR controller (the paper's PL-DDR one by default, or any of the
  comparison controllers) driving the vehicle partition's bitstreams;
* an interrupt controller collecting the done/error lines.

Frames are modelled as byte payloads (HDTV YCbCr 4:2:2 = ~4.15 MB) moving
through shared :class:`BusLink` s, so port contention — the reason the
paper keeps reconfiguration traffic off the HP ports — falls out of the
queueing rather than being asserted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import ReconfigurationError, SimulationError
from repro.faults.plan import DegradationEvent, FaultPlan
from repro.hw.timing import HDTV_TIMING, VideoTiming
from repro.telemetry.session import NULL_TELEMETRY, Telemetry
from repro.zynq.bitstream import BitstreamRepository, paper_bitstreams
from repro.zynq.bus import HP_PORT_VIDEO, BusLink, LinkSpec
from repro.zynq.dma import DmaDescriptor, DmaEngine, DmaState
from repro.zynq.events import Simulator, Trace
from repro.zynq.interrupts import InterruptController
from repro.zynq.pr import BasePrController, PaperPrController, ReconfigReport

# HDTV frame payload: 1920 x 1080 x 2 B (YCbCr 4:2:2).
FRAME_BYTES = HDTV_TIMING.width * HDTV_TIMING.height * 2
# Detection result payload: a few hundred boxes worth of records.
RESULT_BYTES = 4 * 1024


@dataclass
class HwDetector:
    """A detection accelerator as seen by the system: a frame-rate sink.

    Attributes:
        name: "pedestrian" or "vehicle".
        processing_time_s: Frame latency of the accelerator pipeline.
        available: False while its partition is being reconfigured.
        configuration: Active configuration name (vehicle partition only).
    """

    name: str
    processing_time_s: float
    available: bool = True
    configuration: str | None = None
    frames_processed: int = 0
    frames_dropped: int = 0
    busy: bool = False


class ZynqSoC:
    """The paper's implemented system (Fig. 6) in the event simulator."""

    def __init__(
        self,
        controller_cls: type[BasePrController] = PaperPrController,
        repository: BitstreamRepository | None = None,
        vehicle_processing_s: float = 0.0198,
        pedestrian_processing_s: float = 0.0198,
        timing: VideoTiming = HDTV_TIMING,
        faults: FaultPlan | None = None,
        pr_timeout_s: float | None = None,
        telemetry: Telemetry | None = None,
    ):
        sim = self.sim = Simulator()
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        # The clock closes over the simulator, not the SoC: the SoC holds
        # the telemetry session, so a clock over ``self`` closes a cycle.
        self.telemetry.bind_clock(lambda: sim.now)
        self.trace = Trace(tracer=self.telemetry.tracer)
        #: Detector name -> its ``frames_processed`` series, bound on first use.
        self._processed_series: dict[str, Any] = {}
        self.interrupts = InterruptController(self.sim, tracer=self.telemetry.tracer)
        self.timing = timing
        self.repository = repository or paper_bitstreams()
        self.faults = faults
        # Degradation actions (driver-level recoveries) are reported here;
        # the system level subscribes to fold them into its drive report.
        self.on_degradation: Callable[[DegradationEvent], None] | None = None

        # HP-port links (shared, FIFO-arbitrated).
        self.hp0 = BusLink(self.sim, LinkSpec(**{**HP_PORT_VIDEO.__dict__, "name": "hp0"}))
        self.hp1 = BusLink(self.sim, LinkSpec(**{**HP_PORT_VIDEO.__dict__, "name": "hp1"}))
        self.hp2 = BusLink(self.sim, LinkSpec(**{**HP_PORT_VIDEO.__dict__, "name": "hp2"}))

        # DMA engines, as in Fig. 6 (MM2S feeds a detector, S2MM returns
        # results).  Only the vehicle-side engines see the fault plan: the
        # static pedestrian partition sits on a protected path — the paper's
        # safety argument — so injected faults can never reach it.
        self.ped_in_dma = DmaEngine("dma-ped-mm2s", self.sim, self.hp0, self.interrupts, self.trace)
        self.ped_out_dma = DmaEngine("dma-ped-s2mm", self.sim, self.hp0, self.interrupts, self.trace)
        self.veh_in_dma = DmaEngine(
            "dma-veh-mm2s", self.sim, self.hp1, self.interrupts, self.trace, faults=faults
        )
        self.veh_out_dma = DmaEngine(
            "dma-veh-s2mm", self.sim, self.hp2, self.interrupts, self.trace, faults=faults
        )

        # Detectors.
        self.pedestrian = HwDetector("pedestrian", processing_time_s=pedestrian_processing_s)
        self.vehicle = HwDetector(
            "vehicle", processing_time_s=vehicle_processing_s, configuration="day_dusk"
        )
        # BRAM-resident SVM model currently selected by the day_dusk image.
        self.vehicle_model = "day"

        # PR controller for the vehicle partition.
        self.pr = controller_cls(
            self.sim,
            self.interrupts,
            self.repository,
            self.trace,
            faults=faults,
            timeout_s=pr_timeout_s,
        )
        self.pr.active_configuration = self.vehicle.configuration
        self.reconfigurations: list[ReconfigReport] = []

    def _degrade(self, kind: str, detail: str = "") -> None:
        self.trace.emit(self.sim.now, "soc", "soc.degrade", action=kind, detail=detail)
        self.telemetry.counter("degradations_total", kind=kind).inc()
        if self.on_degradation is not None:
            self.on_degradation(DegradationEvent(time_s=self.sim.now, kind=kind, detail=detail))

    # Frame processing -------------------------------------------------------

    def _detector_and_dmas(self, which: str) -> tuple[HwDetector, DmaEngine, DmaEngine]:
        if which == "pedestrian":
            return self.pedestrian, self.ped_in_dma, self.ped_out_dma
        if which == "vehicle":
            return self.vehicle, self.veh_in_dma, self.veh_out_dma
        raise SimulationError(f"unknown detector {which!r}")

    def submit_frame(
        self,
        which: str,
        on_result: Callable[[], None] | None = None,
        frame_bytes: int = FRAME_BYTES,
    ) -> bool:
        """Push one frame at a detector; returns False when it is dropped.

        A frame is dropped when the detector's partition is reconfiguring,
        or when the previous frame's *input transfer* has not finished (the
        accelerators are streaming pipelines, so processing of frame N
        overlaps the input of frame N+1; only the ingress DMA serialises).
        """
        detector, in_dma, out_dma = self._detector_and_dmas(which)
        if not detector.available or detector.busy:
            detector.frames_dropped += 1
            self.trace.emit(
                self.sim.now,
                detector.name,
                "frame.dropped",
                detector=detector.name,
                reason="reconfiguring" if not detector.available else "ingress-busy",
            )
            self.telemetry.counter("frames_dropped", detector=detector.name).inc()
            return False
        detector.busy = True

        def after_input() -> None:
            detector.busy = False
            self.sim.schedule(detector.processing_time_s, after_processing)

        def after_processing() -> None:
            if out_dma.state is not DmaState.IDLE:
                # Egress still tied up by the previous result (a stalled or
                # errored transfer): the new result has nowhere to go, so the
                # driver drops it rather than reprogramming a busy engine.
                detector.frames_dropped += 1
                self._degrade(
                    "result-backpressure", f"{out_dma.name} busy; {which} result lost"
                )
                return
            out_dma.start(
                DmaDescriptor(RESULT_BYTES, label=f"{which}-result"),
                on_done=finish,
                on_error=output_failed,
            )

        def finish() -> None:
            detector.frames_processed += 1
            series = self._processed_series.get(detector.name)
            if series is None:
                series = self.telemetry.counter("frames_processed", detector=detector.name)
                self._processed_series[detector.name] = series
            series.inc()
            if on_result is not None:
                on_result()

        def input_failed() -> None:
            # The ingress DMA aborted: the driver soft-resets the engine
            # through AXI-Lite so the stream resumes on the next frame.
            detector.busy = False
            detector.frames_dropped += 1
            in_dma.reset()
            self._degrade("dma-reset", f"{in_dma.name} after aborted {which} frame")

        def output_failed() -> None:
            # The result transfer aborted: the frame was processed but its
            # detections never reached the PS — count it dropped.
            detector.frames_dropped += 1
            out_dma.reset()
            self._degrade("dma-reset", f"{out_dma.name} after lost {which} result")

        in_dma.start(
            DmaDescriptor(frame_bytes, label=f"{which}-frame"),
            on_done=after_input,
            on_error=input_failed,
        )
        return True

    # Reconfiguration ---------------------------------------------------------

    def reconfigure_vehicle(
        self,
        configuration: str,
        on_done: Callable[[ReconfigReport], None] | None = None,
    ) -> ReconfigReport:
        """Load a vehicle-partition bitstream through the PR controller.

        The vehicle detector drops frames for the duration; the pedestrian
        detector is untouched unless the controller's data path occupies a
        shared HP port (ZyCAP), in which case its frame traffic queues.
        """
        if not self.vehicle.available:
            raise ReconfigurationError("vehicle partition is already reconfiguring")
        self.vehicle.available = False
        self.trace.emit(self.sim.now, "soc", "partition.down", configuration=configuration)

        if self.pr.occupies_hp_port():
            # ZyCAP-style: the bitstream pull occupies HP0 alongside the
            # pedestrian DMA traffic for the whole transfer.
            duration = self.pr.transfer_time(self.repository.get(configuration).size_bytes)
            equivalent_bytes = int(duration * self.hp0.spec.effective_bandwidth())
            self.hp0.request(equivalent_bytes, on_done=lambda: None, label="zycap-bitstream")

        def finished(report: ReconfigReport) -> None:
            self.vehicle.available = True
            if report.ok:
                self.vehicle.configuration = configuration
                self.trace.emit(self.sim.now, "soc", "partition.up", configuration=configuration)
                self.telemetry.histogram("reconfig_ms").observe(report.duration_s * 1e3)
                self.telemetry.gauge(
                    "pr_throughput_mbs", controller=report.controller
                ).set(report.throughput_mb_s)
            else:
                # Failed load: the partition keeps its last-good image (the
                # PR flow never altered the active frames before ICAP ran).
                self._degrade(
                    "pr-fallback",
                    f"{report.error}; partition restored to {self.vehicle.configuration}",
                )
            self.reconfigurations.append(report)
            if on_done is not None:
                on_done(report)

        try:
            return self.pr.reconfigure(configuration, on_done=finished)
        except ReconfigurationError:
            # Synchronous rejection (e.g. integrity check): the partition
            # was never touched, so bring it straight back up.
            self.vehicle.available = True
            self._degrade(
                "pr-rejected",
                f"{configuration} rejected; partition stays on {self.vehicle.configuration}",
            )
            raise

    def swap_vehicle_model(self, model_name: str) -> None:
        """Day<->dusk: select the other BRAM-resident SVM model (no PR)."""
        if not self.vehicle.available:
            raise ReconfigurationError("cannot swap models during reconfiguration")
        self.vehicle_model = model_name
        self.trace.emit(self.sim.now, "soc", "model.swap", model=model_name)
        self.telemetry.counter("model_swaps").inc()

    # Reporting ----------------------------------------------------------------

    def record_telemetry(self) -> None:
        """Publish the SoC's cumulative counters into the metrics registry.

        Called at the end of a drive (or any time): bytes moved per HP-port
        hop and per DMA engine, link busy time, and interrupt deliveries all
        become labelled gauges, so an exported snapshot carries the full
        Fig. 6 data-movement audit.
        """
        if not self.telemetry.enabled:
            return
        for link in (self.hp0, self.hp1, self.hp2):
            self.telemetry.gauge("link_bytes_moved", link=link.spec.name).set(link.bytes_moved)
            self.telemetry.gauge("link_busy_s", link=link.spec.name).set(link.busy_time)
        for dma in (self.ped_in_dma, self.ped_out_dma, self.veh_in_dma, self.veh_out_dma):
            self.telemetry.gauge("dma_bytes_transferred", engine=dma.name).set(
                dma.bytes_transferred
            )
        for line in (
            self.ped_in_dma.irq_line,
            self.ped_out_dma.irq_line,
            self.veh_in_dma.irq_line,
            self.veh_out_dma.irq_line,
            self.pr.irq_line,
            self.pr.error_line,
        ):
            self.telemetry.gauge("irq_delivered", line=line).set(self.interrupts.count(line))

    def observability_snapshot(self) -> dict:
        """Small, deterministic counter snapshot for frame-level monitoring.

        Everything here is a pure function of the simulation (no wall
        clocks, no host state), so the runtime monitor can embed it in
        replayable frame records.  Distinct from :meth:`stats`, which is a
        human-facing digest and free to grow non-deterministic context.
        """
        return {
            "pedestrian_processed": self.pedestrian.frames_processed,
            "pedestrian_dropped": self.pedestrian.frames_dropped,
            "vehicle_processed": self.vehicle.frames_processed,
            "vehicle_dropped": self.vehicle.frames_dropped,
            "vehicle_model": self.vehicle_model,
            "reconfigurations": len(self.reconfigurations),
        }

    def stats(self) -> dict:
        """Point-in-time counters of every SoC component."""
        return {
            "time_s": self.sim.now,
            "pedestrian": {
                "processed": self.pedestrian.frames_processed,
                "dropped": self.pedestrian.frames_dropped,
            },
            "vehicle": {
                "processed": self.vehicle.frames_processed,
                "dropped": self.vehicle.frames_dropped,
                "configuration": self.vehicle.configuration,
            },
            "reconfigurations": [
                {
                    "bitstream": r.bitstream,
                    "duration_ms": r.duration_s * 1e3,
                    "throughput_mb_s": r.throughput_mb_s,
                }
                for r in self.reconfigurations
            ],
            "interrupts": {
                name: self.interrupts.count(name)
                for name in (
                    self.ped_in_dma.irq_line,
                    self.ped_out_dma.irq_line,
                    self.veh_in_dma.irq_line,
                    self.veh_out_dma.irq_line,
                    self.pr.irq_line,
                )
            },
        }
