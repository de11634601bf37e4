"""Day / dusk vehicle detection: HOG features + linear SVM (paper Fig. 1/2).

The pipeline has the paper's three hardware stages — HOG descriptor,
normaliser, SVM classifier — with the trained model swapped per condition:
the *day* model, the *dusk* model, or the *combined* model trained on both
corpora (the Table-I ablation).  The detector is
:class:`~repro.pipelines.hog_svm.HogSvmDetector` with the vehicle kind;
this module trains its three models.
"""

from __future__ import annotations

import numpy as np

from repro.datasets.samples import ClassificationDataset
from repro.features.hog import HogDescriptor
from repro.imaging.color import luminance

# bench/tests/test_layers.py checks that the traced NMS is rebound here too.
from repro.imaging.geometry import non_max_suppression  # noqa: F401
from repro.imaging.resize import resize_bilinear
from repro.ml.linear import LinearModel
from repro.ml.svm import LinearSvm, SvmConfig
from repro.pipelines.hog_svm import SVM_C, HogSvmConfig, HogSvmDetector

# bench/workloads.py builds its vehicle configuration as DayDuskConfig(...).
DayDuskConfig = HogSvmConfig


class HogSvmVehicleDetector(HogSvmDetector):
    """The day/dusk vehicle detector under the name bench/layers.py traces."""

    # bench/layers.py times the day/dusk pipeline as this class's own
    # detect_multiscale, so the adaptive detector calls it by that name.
    detect_multiscale = HogSvmDetector.detect


def hog_features_for_dataset(dataset: ClassificationDataset, hog: HogDescriptor) -> np.ndarray:
    """HOG feature matrix of every crop's luminance plane."""
    win_h, win_w = hog.config.window
    features = np.empty((len(dataset), hog.feature_length), dtype=np.float64)
    for i in range(len(dataset)):
        plane = luminance(dataset.images[i])
        if plane.shape != (win_h, win_w):
            plane = resize_bilinear(plane, win_h, win_w)
        features[i] = hog.extract(plane)
    return features


def train_condition_models(
    day_train: ClassificationDataset,
    dusk_train: ClassificationDataset,
) -> dict[str, LinearModel]:
    """Train the paper's three models: day, dusk, combined (Fig. 1).

    Returns:
        {"day": ..., "dusk": ..., "combined": ...} LinearModels.
    """
    hog = HogDescriptor(HogSvmConfig().hog)
    svm = LinearSvm(SvmConfig(c=SVM_C))
    # Each HOG row depends only on its crop, so the combined model trains on
    # the two corpora's feature matrices stacked: no second HOG pass.
    day, dusk = (hog_features_for_dataset(corpus, hog) for corpus in (day_train, dusk_train))
    combined_labels = np.concatenate([day_train.labels, dusk_train.labels])
    models = {}
    for name, features, labels, corpus in (
        ("day", day, day_train.labels, day_train.name),
        ("dusk", dusk, dusk_train.labels, dusk_train.name),
        ("combined", np.vstack([day, dusk]), combined_labels, "combined"),
    ):
        models[name] = svm.train(features, labels, name=name)
        models[name].meta["train_corpus"] = corpus
    return models
