"""Tests for the ``python -m repro`` CLI."""

from __future__ import annotations

import pytest

from repro.cli import COMMANDS, main


class TestCli:
    def test_list_runs(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in COMMANDS:
            assert name in out

    def test_table2_prints_measured_table(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "XC7Z100" in out
        assert "Reconfigurable Partition" in out
        assert "shape checks" in out

    def test_throughput_prints_controllers(self, capsys):
        assert main(["throughput"]) == 0
        out = capsys.readouterr().out
        for name in ("pcap", "hwicap", "zycap", "paper-pr"):
            assert name in out

    def test_fig7_prints_trace(self, capsys):
        assert main(["fig7"]) == 0
        out = capsys.readouterr().out
        assert "reconfigure -> dark" in out

    def test_fig2_prints_fps(self, capsys):
        assert main(["fig2"]) == 0
        assert "50.5 fps" in capsys.readouterr().out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["definitely-not-a-command"])

    def test_scale_flag_parsed(self, capsys):
        # fig1 honours --scale (capped internally); tiny scale keeps it fast.
        assert main(["fig1", "--scale", "0.1"]) == 0
        assert "divergence" in capsys.readouterr().out


class TestCliErrorPaths:
    def test_unknown_trace_rejected(self):
        with pytest.raises(SystemExit):
            main(["drive", "--trace", "volcano"])

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(SystemExit):
            main(["drive", "--duration", "0"])
        with pytest.raises(SystemExit):
            main(["drive", "--duration", "-5"])

    def test_unknown_fault_plan_rejected(self):
        with pytest.raises(SystemExit):
            main(["drive", "--fault-plan", "gremlins"])

    def test_unknown_telemetry_format_rejected(self):
        with pytest.raises(SystemExit):
            main(["drive", "--telemetry-format", "xml"])

    def test_telemetry_command_requires_input(self, capsys):
        assert main(["telemetry"]) == 2
        assert "--telemetry-in" in capsys.readouterr().err

    def test_telemetry_command_missing_file(self, capsys):
        assert main(["telemetry", "--telemetry-in", "/nonexistent/dump.jsonl"]) == 1
        assert "telemetry:" in capsys.readouterr().err

    def test_telemetry_command_rejects_garbage_file(self, tmp_path, capsys):
        path = tmp_path / "garbage.jsonl"
        path.write_text("this is not json\n")
        assert main(["telemetry", "--telemetry-in", str(path)]) == 1
        assert "not valid JSONL" in capsys.readouterr().err


class TestCliTelemetry:
    def test_drive_exports_chrome_trace_that_round_trips(self, tmp_path, capsys):
        """Acceptance: drive --telemetry-out produces a Chrome trace that
        ``python -m repro telemetry`` summarises."""
        path = str(tmp_path / "drive.trace.json")
        assert main([
            "drive", "--duration", "10",
            "--telemetry-out", path, "--telemetry-format", "chrome",
        ]) == 0
        out = capsys.readouterr().out
        assert "telemetry:" in out and "(chrome)" in out

        import json

        with open(path) as fh:
            document = json.load(fh)
        assert any(e["name"] == "drive.frame" for e in document["traceEvents"])

        assert main(["telemetry", "--telemetry-in", path]) == 0
        summary = capsys.readouterr().out
        assert "telemetry report" in summary
        assert "drive.frame" in summary
        assert "drive_frames: 500" in summary

    def test_drive_without_telemetry_prints_no_telemetry_line(self, capsys):
        assert main(["drive", "--duration", "5"]) == 0
        assert "telemetry:" not in capsys.readouterr().out

    def test_telemetry_top_appends_hot_span_table(self, tmp_path, capsys):
        path = str(tmp_path / "drive.jsonl")
        assert main(["drive", "--duration", "5", "--telemetry-out", path]) == 0
        capsys.readouterr()
        assert main(["telemetry", "--telemetry-in", path, "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "telemetry report" in out
        assert "hot spans" in out
        assert "drive.frame wall ms: p50=" in out

    def test_telemetry_without_top_omits_hot_span_table(self, tmp_path, capsys):
        path = str(tmp_path / "drive.jsonl")
        assert main(["drive", "--duration", "5", "--telemetry-out", path]) == 0
        capsys.readouterr()
        assert main(["telemetry", "--telemetry-in", path]) == 0
        assert "hot spans" not in capsys.readouterr().out

    def test_telemetry_format_openmetrics_is_a_scrapable_exposition(
        self, tmp_path, capsys
    ):
        path = str(tmp_path / "drive.jsonl")
        assert main(["drive", "--duration", "5", "--telemetry-out", path]) == 0
        capsys.readouterr()
        assert main(
            ["telemetry", "--telemetry-in", path, "--format", "openmetrics"]
        ) == 0
        out = capsys.readouterr().out
        assert out.rstrip().endswith("# EOF")
        assert "# TYPE drive_frames counter" in out
        assert "drive_frames_total" in out
        assert "frame_wall_ms_bucket" in out
        # It parses back with the module's own inverse.
        from repro.telemetry.openmetrics import parse_openmetrics

        assert parse_openmetrics(out)


class TestExtensibility:
    def test_animal_configuration_fits_paper_partition(self):
        """The paper's motivating extra ADS feature drops into the same RP."""
        from repro.hw.designs import animal_design, dark_design, day_dusk_design
        from repro.hw.floorplan import plan_vehicle_partition

        partition = plan_vehicle_partition([day_dusk_design().total, dark_design().total])
        assert partition.fits(animal_design().total)

    def test_soc_hosts_third_bitstream(self):
        from repro.zynq.bitstream import BitstreamRepository, PartialBitstream
        from repro.zynq.soc import ZynqSoC

        repo = BitstreamRepository()
        repo.add(PartialBitstream(name="day_dusk", payload_seed=1))
        repo.add(PartialBitstream(name="dark", payload_seed=2))
        repo.add(PartialBitstream(name="animal", payload_seed=3, size_bytes=8_000_000))
        soc = ZynqSoC(repository=repo)
        soc.reconfigure_vehicle("animal")
        soc.sim.run()
        assert soc.vehicle.configuration == "animal"
        # ... and back, with the same ~20 ms cost.
        report = soc.reconfigure_vehicle("day_dusk")
        soc.sim.run()
        assert report.duration_s * 1e3 == pytest.approx(20.5, abs=0.5)
