"""Experiment T1 — paper Table I.

Trains the day, dusk, and combined SVM models and evaluates each against
the three test scenarios: day (UPM-like), dusk (SYSU-like), and the dusk
subset with the very dark samples excluded.  Reports accuracy and the raw
TP/TN/FP/FN counts, exactly the columns of Table I.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import check_scale, corpora_and_models
from repro.experiments.tables import format_table, pct
from repro.pipelines.evaluation import ConfusionCounts, evaluate_crop_classifier
from repro.pipelines.hog_svm import HogSvmDetector

# The paper's Table I, for side-by-side comparison in reports:
# model -> scenario -> (accuracy, TP, TN, FP, FN)
PAPER_TABLE1 = {
    "day": {
        "day": (0.9600, 195, 21, 4, 5),
        "dusk": (0.7378, 659, 680, 72, 404),
        "dusk-subset": (0.7755, 650, 680, 72, 313),
    },
    "dusk": {
        "day": (0.2089, 23, 24, 1, 177),
        "dusk": (0.8237, 744, 751, 1, 319),
        "dusk-subset": (0.8688, 739, 751, 1, 224),
    },
    "combined": {
        "day": (0.9156, 185, 21, 4, 15),
        "dusk": (0.8534, 809, 740, 12, 254),
        "dusk-subset": (0.9009, 805, 740, 12, 158),
    },
}

SCENARIOS = ("day", "dusk", "dusk-subset")
MODELS = ("day", "dusk", "combined")


@dataclass
class Table1Result:
    """Measured Table I: counts per (model, scenario)."""

    cells: dict[str, dict[str, ConfusionCounts]]
    scale: float

    def accuracy(self, model: str, scenario: str) -> float:
        return self.cells[model][scenario].accuracy

    def render(self) -> str:
        headers = ["SVM Model"]
        for scenario in SCENARIOS:
            headers += [f"{scenario} acc", "TP", "TN", "FP", "FN"]
        rows = []
        for model in MODELS:
            row: list[object] = [model]
            for scenario in SCENARIOS:
                c = self.cells[model][scenario]
                row += [pct(c.accuracy), c.tp, c.tn, c.fp, c.fn]
            rows.append(row)
        return format_table(headers, rows, title=f"Table I (measured, scale={self.scale})")

    def render_with_paper(self) -> str:
        headers = ["SVM Model", "scenario", "accuracy", "paper", "TP", "TN", "FP", "FN"]
        rows = []
        for model in MODELS:
            for scenario in SCENARIOS:
                c = self.cells[model][scenario]
                paper_acc = PAPER_TABLE1[model][scenario][0]
                rows.append(
                    [model, scenario, pct(c.accuracy), pct(paper_acc), c.tp, c.tn, c.fp, c.fn]
                )
        return format_table(headers, rows, title=f"Table I vs paper (scale={self.scale})")

    def shape_checks(self) -> dict[str, bool]:
        """The qualitative claims the paper draws from Table I."""
        acc = self.accuracy
        return {
            # "the accuracy in the day is higher than in the dusk"
            "day_easier_than_dusk": acc("day", "day") > acc("combined", "dusk"),
            # "the best classifier model for detection in day is the day model"
            "day_model_best_on_day": acc("day", "day")
            >= max(acc("dusk", "day"), acc("combined", "day")) - 1e-9,
            # "Combined SVM model outperforms the other two models in dusk"
            "combined_best_on_dusk": acc("combined", "dusk")
            >= max(acc("day", "dusk"), acc("dusk", "dusk")) - 1e-9,
            # dusk model collapses on day with FN-dominated errors
            "dusk_model_degrades_on_day": acc("dusk", "day") < acc("day", "day") - 0.15
            and self.cells["dusk"]["day"].fn > self.cells["dusk"]["day"].fp,
            # "considerable improvement in the accuracy" on the subset
            "subset_improves_all_models": all(
                acc(m, "dusk-subset") >= acc(m, "dusk") for m in MODELS
            ),
        }


def run_table1(scale: float = 1.0, seed: int = 0) -> Table1Result:
    """Reproduce Table I at the given corpus scale (1.0 = paper sizes)."""
    check_scale(scale)
    corpora, models = corpora_and_models(scale=scale, seed=seed)
    dusk_subset = corpora.dusk_test.without_very_dark()
    cells: dict[str, dict[str, ConfusionCounts]] = {}
    for model_name in MODELS:
        detector = HogSvmDetector(model=models[model_name])
        cells[model_name] = {
            "day": evaluate_crop_classifier(detector, corpora.day_test),
            "dusk": evaluate_crop_classifier(detector, corpora.dusk_test),
            "dusk-subset": evaluate_crop_classifier(detector, dusk_subset),
        }
    return Table1Result(cells=cells, scale=scale)
