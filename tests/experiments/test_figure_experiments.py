"""Tests for the figure experiments (F1-F7, FPS) at reduced scale."""

from __future__ import annotations

import pytest

from repro.experiments.figures import (
    run_fig2_pipeline,
    run_fig4_pipeline,
    run_fig5_samples,
    run_fig6_system,
    run_fig7_pr_controller,
    run_fps,
    run_pedestrian_pipeline,
    run_training_flow,
)


class TestTrainingFlow:
    @pytest.fixture(scope="class")
    def result(self):
        return run_training_flow(scale=0.2)

    def test_three_models(self, result):
        assert set(result.model_meta) == {"day", "dusk", "combined"}

    def test_models_look_very_different(self, result):
        assert result.shape_checks()["models_look_very_different"]

    def test_render(self, result):
        assert "divergence" in result.render()


class TestPipelineTiming:
    @pytest.mark.parametrize(
        "runner", [run_fig2_pipeline, run_fig4_pipeline, run_pedestrian_pipeline]
    )
    def test_achieves_50fps(self, runner):
        result = runner()
        assert result.shape_checks()["achieves_50fps"]

    def test_fig4_has_dbn_stage(self):
        result = run_fig4_pipeline()
        assert any("DBN" in s["name"] for s in result.report["stages"])

    def test_render_shows_bottleneck(self):
        assert "bottleneck" in run_fig2_pipeline().render()


class TestFig5:
    def test_samples_render_and_detect(self):
        result = run_fig5_samples(n_frames=3, seed=3)
        assert result.n_frames == 3
        assert len(result.renders) == 3
        assert result.shape_checks()["detects_in_most_vehicle_frames"]


class TestFig6:
    def test_system_audit(self):
        result = run_fig6_system(n_frames=5)
        checks = result.shape_checks()
        assert all(checks.values()), checks
        assert result.stats["pedestrian"]["processed"] == 5


class TestFig7:
    def test_pr_trace(self):
        result = run_fig7_pr_controller()
        checks = result.shape_checks()
        assert all(checks.values()), checks
        assert any("reconfigure -> dark start" in e for e in result.events)

    def test_render_is_byte_identical(self):
        # Captured when the SoC trace still kept every record itself.
        assert run_fig7_pr_controller().render() == (
            "Fig. 7 PR controller: PL DDR -> AXI DMA -> ICAP manager -> ICAPE2: 390 MB/s, 20.5 ms\n"
            "  t=   0.000 ms  [soc] vehicle partition down for PR -> dark\n"
            "  t=   0.000 ms  [paper-pr] reconfigure -> dark start\n"
            "  t=  20.512 ms  [paper-pr] reconfigure -> dark done (390 MB/s)\n"
            "  t=  20.512 ms  [soc] vehicle partition up (dark)\n"
            "  t=  20.513 ms  [ps] paper-pr.reconfig_done interrupts delivered: 1"
        )


class TestFps:
    def test_headline_claim(self):
        result = run_fps(drive_duration_s=20.0)
        checks = result.shape_checks()
        assert all(checks.values()), checks
