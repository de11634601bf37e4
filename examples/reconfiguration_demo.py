"""Partial-reconfiguration demo: the paper's PR controller vs the field.

Drives an 8 MB partial bitstream through the four configuration paths of
Section IV-A — PCAP, AXI HWICAP, ZyCAP, and the paper's PL-DDR controller —
prints the Fig. 7 event trace for the paper controller, and demonstrates
the HP-port-contention argument by timing a pedestrian frame issued during
a ZyCAP-style vs a paper-style reconfiguration.

Run:  python examples/reconfiguration_demo.py
"""

from __future__ import annotations

from repro.zynq.pr import ALL_CONTROLLERS, THEORETICAL_MAX_MB_S, PaperPrController, ZycapController
from repro.zynq.soc import ZynqSoC

PAPER_NUMBERS = {"pcap": 145.0, "hwicap": 19.0, "zycap": 382.0, "paper-pr": 390.0}


def throughput_comparison() -> None:
    print("=== Section IV-A: configuration throughput, 8 MB partial bitstream ===")
    print(f"{'controller':<10} {'path':<42} {'MB/s':>7} {'paper':>7} {'ms':>8}")
    paths = {
        "pcap": "PS DDR -> central interconnect -> PCAP",
        "hwicap": "PS GP port -> AXI-Lite -> HWICAP",
        "zycap": "PS DDR -> HP port -> PL DMA -> ICAP",
        "paper-pr": "PL DDR -> PL DMA -> ICAP manager -> ICAPE2",
    }
    for cls in ALL_CONTROLLERS:
        soc = ZynqSoC(controller_cls=cls)
        report = soc.reconfigure_vehicle("dark")
        soc.sim.run()
        print(f"{cls.name:<10} {paths[cls.name]:<42} "
              f"{report.throughput_mb_s:7.1f} {PAPER_NUMBERS[cls.name]:7.1f} "
              f"{report.duration_s * 1e3:8.2f}")
    print(f"{'(ceiling)':<10} {'ICAP/PCAP port, 32 bit @ 100 MHz':<42} "
          f"{THEORETICAL_MAX_MB_S:7.1f} {400.0:7.1f} {'-':>8}")


def fig7_trace() -> None:
    print("\n=== Fig. 7: the paper PR controller, event by event ===")
    soc = ZynqSoC(controller_cls=PaperPrController)
    log = soc.trace.record()
    soc.reconfigure_vehicle("dark")
    soc.sim.run()
    for record in log:
        print(f"  t={record.time * 1e3:8.3f} ms  [{record.source}] {record.message}")
    print(f"  completion interrupts: {soc.interrupts.count(soc.pr.irq_line)}")


def contention_demo() -> None:
    print("\n=== HP-port contention: why the bitstream lives in PL DDR ===")

    def pedestrian_latency(cls) -> float:
        soc = ZynqSoC(controller_cls=cls)
        finished: list[float] = []
        soc.reconfigure_vehicle("dark")
        soc.sim.schedule(
            0.001,
            lambda: soc.submit_frame(
                "pedestrian", on_result=lambda: finished.append(soc.sim.now)
            ),
        )
        soc.sim.run()
        return (finished[0] - 0.001) * 1e3

    paper_ms = pedestrian_latency(PaperPrController)
    zycap_ms = pedestrian_latency(ZycapController)
    print(f"  pedestrian frame turnaround during a PR:")
    print(f"    paper controller (PL DDR path): {paper_ms:7.2f} ms")
    print(f"    ZyCAP placement (HP port path): {zycap_ms:7.2f} ms")
    print("  The paper controller leaves the HP ports to the video DMAs —")
    print('  "leave the AXI HP port of PS for other high speed data transfers".')


def failure_demo() -> None:
    print("\n=== Failure injection: corrupt bitstream ===")
    from repro.zynq.bitstream import BitstreamRepository, PartialBitstream

    repo = BitstreamRepository()
    repo.add(PartialBitstream(name="day_dusk", payload_seed=1))
    bad = PartialBitstream(name="dark", payload_seed=2)
    bad.corrupt()
    repo.add(bad)
    soc = ZynqSoC(repository=repo)
    try:
        soc.reconfigure_vehicle("dark")
    except Exception as exc:  # noqa: BLE001 - demo output
        print(f"  rejected before touching ICAP: {exc}")
    ok = soc.submit_frame("pedestrian")
    soc.sim.run()
    print(f"  pedestrian detection unaffected: frame accepted = {ok}")


if __name__ == "__main__":
    throughput_comparison()
    fig7_trace()
    contention_demo()
    failure_demo()
