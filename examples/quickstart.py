"""Quickstart: train the paper's detectors and run them on synthetic scenes.

Covers the core API surface in one script:

1. render day/dusk corpora (UPM / SYSU stand-ins) and train the three SVM
   models of paper Fig. 1;
2. evaluate them per lighting condition (a miniature Table I);
3. train the dark pipeline (threshold -> DBN -> pairing SVM, paper Fig. 3)
   and detect vehicles in a rendered night scene.

Run:  python examples/quickstart.py [--scale 0.15]
"""

from __future__ import annotations

import argparse

from repro.datasets.lighting import DARK_LIGHTING, LightingCondition
from repro.datasets.scene import SceneConfig, render_scene
from repro.datasets.synthetic import make_sysu_like, make_upm_like
from repro.imaging.color import luminance
from repro.imaging.draw import ascii_render_with_boxes
from repro.pipelines.dark import DarkVehicleDetector
from repro.pipelines.day_dusk import train_condition_models
from repro.pipelines.evaluation import evaluate_crop_classifier
from repro.pipelines.hog_svm import HogSvmDetector


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.15, help="corpus scale (1.0 = paper sizes)")
    args = parser.parse_args()
    n_train = max(30, int(400 * args.scale))
    n_test_pos = max(20, int(200 * args.scale))

    print("=== 1. Train the day / dusk / combined SVM models (Fig. 1) ===")
    day_train = make_upm_like(n_positive=n_train, n_negative=n_train, seed=1)
    dusk_train = make_sysu_like(
        n_positive=n_train, n_negative=n_train, n_very_dark_positive=0, seed=2
    )
    models = train_condition_models(day_train, dusk_train)
    for name, model in models.items():
        print(f"  {name:9s} trained on {model.meta['n_train']} crops "
              f"({model.meta['epochs']} solver epochs)")

    print("\n=== 2. Evaluate per condition (miniature Table I) ===")
    day_test = make_upm_like(n_positive=n_test_pos, n_negative=max(5, n_test_pos // 8), seed=3)
    dusk_test = make_sysu_like(
        n_positive=n_test_pos, n_negative=n_test_pos, n_very_dark_positive=max(2, n_test_pos // 10), seed=4
    )
    detector = HogSvmDetector()
    for name, model in models.items():
        bound = detector.with_model(model)
        on_day = evaluate_crop_classifier(bound, day_test)
        on_dusk = evaluate_crop_classifier(bound, dusk_test)
        print(f"  {name:9s} day={on_day.accuracy:6.1%}  dusk={on_dusk.accuracy:6.1%}")
    print("  (the paper's point: no single model covers both conditions)")

    print("\n=== 3. Train and run the dark pipeline (Fig. 3) ===")
    dark = DarkVehicleDetector()
    report = dark.train()
    print(f"  DBN 81-20-8-4 trained: {report['dbn_train_accuracy']:.1%} window accuracy")
    scene = render_scene(
        SceneConfig(height=360, width=640, n_vehicles=2, n_oncoming=1,
                    vehicle_fill=(0.08, 0.16), seed=7),
        DARK_LIGHTING,
    )
    detections = dark.detect(scene.rgb)
    print(f"  detections in a dark scene: {len(detections)} "
          f"(ground truth: {len(scene.vehicles)})")
    for det in detections:
        x, y, w, h = det.rect.as_int()
        print(f"    vehicle at x={x} y={y} w={w} h={h} (pair score {det.score:.2f})")
    print()
    print(ascii_render_with_boxes(luminance(scene.rgb), [d.rect for d in detections], width=78))


if __name__ == "__main__":
    main()
