"""Static-partition pedestrian detection (HOG + linear SVM).

The main functional block of the paper's *static* partition: "Similar to the
method that is used for detection of vehicles in day ... it extracts HOG
features of input image and use linear SVM classifier to detect pedestrians
on the road", after the real-time pipeline of Hemmati et al. (DAC'17).  It
is :class:`~repro.pipelines.hog_svm.HogSvmDetector` with the pedestrian kind.

It exists in the system "to showcase the seamless operation of other
detection modules during the partial reconfiguration": the system-level
tests assert it keeps detecting while the vehicle partition reconfigures.
"""

from __future__ import annotations

# bench/tests/test_layers.py checks that the traced NMS is rebound here too.
from repro.imaging.geometry import non_max_suppression  # noqa: F401
from repro.ml.linear import LinearModel
from repro.pipelines.hog_svm import HogSvmConfig, HogSvmDetector
from repro.telemetry.session import Telemetry


class PedestrianDetector(HogSvmDetector):
    """The pedestrian detector under the name bench/layers.py traces."""

    def __init__(
        self,
        config: HogSvmConfig | None = None,
        model: LinearModel | None = None,
        telemetry: Telemetry | None = None,
    ):
        super().__init__(config or HogSvmConfig(kind="pedestrian"), model, telemetry)

    # bench/layers.py times the pedestrian pipeline and its training as
    # these two, looked up in this class's own namespace.
    detect = HogSvmDetector.detect
    train_from_frames = HogSvmDetector.train_from_frames
