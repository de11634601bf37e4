"""Tests for the exception hierarchy and error-path behaviour."""

from __future__ import annotations

import numpy as np
import pytest

from repro import errors


class TestHierarchy:
    def test_every_library_error_is_repro_error(self):
        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                assert issubclass(obj, errors.ReproError), name

    def test_hardware_branch(self):
        for cls in (
            errors.ResourceError,
            errors.SimulationError,
            errors.BusError,
            errors.DmaError,
            errors.BitstreamError,
            errors.ReconfigurationError,
        ):
            assert issubclass(cls, errors.HardwareError)

    def test_not_trained_is_model_error(self):
        assert issubclass(errors.NotTrainedError, errors.ModelError)

    def test_catching_base_class_at_api_boundary(self):
        from repro.imaging.geometry import Rect

        with pytest.raises(errors.ReproError):
            Rect(0, 0, -1, 1)


class TestErrorMessagesCarryContext:
    def test_image_error_names_shape(self):
        from repro.imaging.image import ensure_gray

        with pytest.raises(errors.ImageError, match=r"\(2, 2, 3\)"):
            ensure_gray(np.zeros((2, 2, 3)))

    def test_model_error_names_dimensions(self):
        from repro.ml.linear import LinearModel

        model = LinearModel(weights=np.ones(4), bias=0.0)
        with pytest.raises(errors.ModelError, match="4"):
            model.decision_values(np.ones(5))

    def test_bitstream_error_lists_inventory(self):
        from repro.zynq.bitstream import BitstreamRepository, PartialBitstream

        repo = BitstreamRepository()
        repo.add(PartialBitstream(name="dark"))
        with pytest.raises(errors.BitstreamError, match="loaded.*dark"):
            repo.get("missing")

    def test_feature_error_names_window(self):
        from repro.features.hog import HogConfig

        with pytest.raises(errors.FeatureError, match="60"):
            HogConfig(window=(60, 64))

    def test_dataset_error_names_bounds(self):
        from repro.datasets.scene import SceneConfig

        with pytest.raises(errors.DatasetError, match="horizon"):
            SceneConfig(horizon=0.9)


class TestErrorStatesAreRecoverable:
    def test_dma_reset_clears_error(self):
        from repro.zynq.bus import HP_PORT, BusLink
        from repro.zynq.dma import DmaDescriptor, DmaEngine, DmaState
        from repro.zynq.events import Simulator, Trace
        from repro.zynq.interrupts import InterruptController

        sim = Simulator()
        engine = DmaEngine("d", sim, BusLink(sim, HP_PORT), InterruptController(sim), Trace())
        engine.inject_error()
        engine.start(DmaDescriptor(64))
        sim.run()
        assert engine.state is DmaState.ERROR
        engine.reset()
        assert engine.state is DmaState.IDLE

    def test_pr_controller_usable_after_corrupt_bitstream(self):
        from repro.zynq.bitstream import BitstreamRepository, PartialBitstream
        from repro.zynq.events import Simulator, Trace
        from repro.zynq.interrupts import InterruptController
        from repro.zynq.pr import PaperPrController, PrState

        repo = BitstreamRepository()
        bad = PartialBitstream(name="dark")
        bad.corrupt()
        repo.add(bad)
        repo.add(PartialBitstream(name="day_dusk"))
        sim = Simulator()
        ctrl = PaperPrController(sim, InterruptController(sim), repo, Trace())
        with pytest.raises(errors.ReconfigurationError):
            ctrl.reconfigure("dark")
        assert ctrl.state is PrState.IDLE
        report = ctrl.reconfigure("day_dusk")
        sim.run()
        assert report.ok
