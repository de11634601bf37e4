"""The layer table and the outside-in tracer behind ``--trace``.

Every layer names the public callables that make it up.  A traced run
wraps each callable by rebinding every module-level reference to it in the
``repro`` and ``bench`` packages: functions such as ``non_max_suppression``
are imported *by name* into ``day_dusk`` and ``pedestrian``, so patching
only the defining module would miss those calls.  Methods are patched on
the class that defines them.  :meth:`Instrumentation.uninstall` puts every
original back, and :class:`Tracing` uses the pair to trace alternate blocks
of a run's items.

Spans are timed by a :class:`Recorder`: a stack of open spans whose closing
adds the span's duration to its parent's child time, so a layer's *self*
time (its duration minus the time of the layers nested in it) accumulates
online over every frame, while the span dump kept for the Chrome trace is
capped.  Self time is keyed by phase (``setup`` or ``measure``) and by the
pipeline subtree it ran in (``pipelines.day_dusk``, ``pipelines.pedestrian``,
``pipelines.dark`` or none), which is what the shape checks read.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

#: Module prefixes whose module-level references are rebound.
PATCHED_PACKAGES = ("repro", "bench")

#: The three pipeline subtrees self time is split by.
PIPELINES = frozenset({"pipelines.day_dusk", "pipelines.pedestrian", "pipelines.dark"})

#: Key the bench's own per-item span accumulates under: the part of an
#: item's wall time spent outside every declared layer.
RESIDUAL = "bench.residual"


def _rows(args, result) -> float:
    return float(len(result))


def _summary_field(key: str) -> Callable[[tuple, Any], float]:
    def count(args, outcome) -> float:
        return float(outcome.summary.get(key, 0))

    return count


@dataclass(frozen=True)
class Layer:
    """One named layer: the callables timed as it, and counts read off them.

    ``targets`` are ``"module:function"`` or ``"module:Class.method"``.
    ``counts`` maps a count name to ``(target index, fn(args, result))``;
    the count is summed over every call of that target.
    """

    name: str
    targets: tuple[str, ...]
    counts: dict[str, tuple[int, Callable[[tuple, Any], float]]] = field(default_factory=dict)


LAYERS: tuple[Layer, ...] = (
    # Day/dusk and pedestrian HOG+SVM.
    Layer("imaging.luminance", ("repro.imaging.color:luminance",)),
    Layer("imaging.resize", ("repro.imaging.resize:resize_bilinear",)),
    Layer("features.gradient", ("repro.features.gradients:gradient_field",)),
    Layer("features.histograms", ("repro.features.hog:cell_histograms_from_field",)),
    Layer("features.normalize", ("repro.features.hog:normalize_blocks",)),
    Layer("features.extract_dense", ("repro.features.hog:HogDescriptor.extract_dense",)),
    Layer(
        "features.window_gather",
        (
            "repro.features.hog:DenseHogLayout.window_feature_matrix",
            "repro.features.hog:DenseHogLayout.window_index_grid",
        ),
        counts={"windows": (1, _rows)},
    ),
    Layer("ml.svm_score", ("repro.ml.linear:LinearModel.decision_batch",)),
    Layer(
        "imaging.nms",
        ("repro.imaging.geometry:non_max_suppression",),
        counts={"in": (0, lambda args, result: float(len(args[0]))), "kept": (0, _rows)},
    ),
    Layer("pipelines.day_dusk", ("repro.pipelines.day_dusk:HogSvmVehicleDetector.detect_multiscale",)),
    Layer("pipelines.pedestrian", ("repro.pipelines.pedestrian:PedestrianDetector.detect",)),
    # Dark DBN pipeline.
    Layer("pipelines.dark", ("repro.pipelines.dark:DarkVehicleDetector.detect",)),
    Layer("pipelines.dark.preprocess", ("repro.pipelines.dark:DarkVehicleDetector.preprocess",)),
    Layer("imaging.split_channels", ("repro.imaging.color:split_channels",)),
    Layer(
        "imaging.threshold",
        ("repro.imaging.threshold:otsu_threshold", "repro.imaging.threshold:binary_threshold"),
    ),
    Layer("imaging.downsample", ("repro.imaging.resize:downsample_binary",)),
    Layer("imaging.morphology", ("repro.imaging.morphology:closing", "repro.imaging.morphology:dilate")),
    Layer(
        "imaging.components",
        ("repro.imaging.components:label_components", "repro.imaging.components:blob_statistics"),
    ),
    Layer(
        "pipelines.dark.dbn_grid",
        ("repro.pipelines.dark:DarkVehicleDetector.dbn_grid",),
        counts={"windows": (0, lambda args, result: float(result.size))},
    ),
    Layer(
        "ml.dbn_predict",
        ("repro.ml.dbn:DeepBeliefNetwork.predict_batch",),
        counts={
            "windows": (0, lambda args, result: float(len(args[1]))),
            "hits": (0, lambda args, result: float((result > 0).sum())),
        },
    ),
    Layer(
        "pipelines.dark.candidates",
        ("repro.pipelines.dark:DarkVehicleDetector.extract_candidates",),
        counts={"found": (0, _rows)},
    ),
    Layer(
        "pipelines.taillight_match",
        ("repro.pipelines.taillight:TaillightPairMatcher.match_pairs",),
        counts={"pairs": (0, _rows)},
    ),
    # Adaptive routing.
    Layer("core.functional", ("repro.core.functional:AdaptiveVehicleDetector.process",)),
    Layer(
        "adaptive.controller",
        ("repro.adaptive.controller:LightingController.update",),
        counts={"changes": (0, lambda args, result: float(result is not None))},
    ),
    # Set-up (timed per set-up, not per frame).
    Layer("setup.corpora", ("repro.experiments.common:build_corpora",)),
    Layer("setup.svm_train", ("repro.ml.svm:LinearSvm.train",)),
    Layer("setup.dbn_train", ("repro.ml.dbn:DeepBeliefNetwork.fit",)),
    Layer("setup.pair_train", ("repro.pipelines.taillight:TaillightPairMatcher.train",)),
    Layer("setup.pedestrian_train", ("repro.pipelines.pedestrian:PedestrianDetector.train_from_frames",)),
    # Sim-only fleet drives.
    Layer(
        "fleet.execute",
        ("repro.fleet.worker:execute_spec",),
        counts={
            "frames": (0, _summary_field("frames")),
            "reconfigurations": (0, _summary_field("reconfigurations")),
            "faults": (0, _summary_field("frames_with_faults")),
        },
    ),
    Layer("core.from_spec", ("repro.core.system:AdaptiveDetectionSystem.from_spec",)),
    Layer("core.run_drive", ("repro.core.system:AdaptiveDetectionSystem.run_drive",)),
    Layer("zynq.sim", ("repro.zynq.events:Simulator.run_until",)),
    Layer("zynq.submit_frame", ("repro.zynq.soc:ZynqSoC.submit_frame",)),
    Layer("zynq.reconfigure", ("repro.zynq.soc:ZynqSoC.reconfigure_vehicle",)),
    # Tracer.begin/end are left unwrapped: at nine calls a frame their
    # wrappers alone would cost fleet_sim ~6% of its throughput.  Span time
    # stays in the self time of core.run_drive and the zynq layers.
    Layer("monitor.observe", ("repro.monitor.session:Monitor.observe_frame",)),
    Layer("quality.observe", ("repro.quality.observer:ModelQualityObserver.observe_frame",)),
    Layer("core.digest", ("repro.core.spec:frames_digest",)),
    Layer("fleet.rollup", ("repro.fleet.rollup:build_rollup",)),
)

#: Useful-work ratios: name -> (numerator count, denominator count).
RATIOS = {
    "imaging.nms.hit_ratio": ("imaging.nms.in", "features.window_gather.windows"),
    "ml.dbn_predict.useful_ratio": ("ml.dbn_predict.hits", "ml.dbn_predict.windows"),
}


class Recorder:
    """Online self-time rollup plus a capped span dump.

    Nothing is recorded while ``phase`` is None, so wrappers left installed
    between phases cost one attribute test.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter, max_spans: int = 50_000):
        self.clock = clock
        self.max_spans = max_spans
        self.phase: str | None = None
        self.item: int | None = None
        #: (phase, pipeline, layer) -> [self seconds, calls]
        self.rollup: dict[tuple[str, str | None, str], list] = {}
        #: (phase, "<layer>.<count>") -> summed count
        self.counts: dict[tuple[str, str], float] = {}
        #: (name, start, end, parent id, item, phase), in closing order.
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self._stack: list[list] = []
        self._next_id = 0

    def enter(self, name: str) -> None:
        stack = self._stack
        pipeline = stack[-1][2] if stack else None
        if pipeline is None and name in PIPELINES:
            pipeline = name
        self._next_id += 1
        stack.append([self.clock(), 0.0, pipeline, name, self._next_id])

    def exit(self, key: str | None = None) -> float:
        """Close the innermost span; returns its duration in seconds.

        ``key`` overrides the rollup key (the bench's item spans roll up as
        :data:`RESIDUAL` but are dumped under their own name).
        """
        end = self.clock()
        stack = self._stack
        start, child_s, pipeline, name, span_id = stack.pop()
        duration = end - start
        slot_key = (self.phase, pipeline, key or name)
        slot = self.rollup.get(slot_key)
        if slot is None:
            slot = self.rollup[slot_key] = [0.0, 0]
        slot[0] += duration - child_s
        slot[1] += 1
        parent = None
        if stack:
            stack[-1][1] += duration
            parent = stack[-1][4]
        if len(self.spans) < self.max_spans:
            self.spans.append((name, start, end, parent, self.item, self.phase))
        else:
            self.spans_dropped += 1
        return duration

    def count(self, name: str, value: float) -> None:
        key = (self.phase, name)
        self.counts[key] = self.counts.get(key, 0.0) + value

    def self_s(self, phase: str, layer: str | None = None, pipeline: str | None = "*") -> float:
        """Summed self seconds in ``phase``, optionally for one layer/pipeline."""
        return sum(
            slot[0]
            for (ph, pipe, name), slot in self.rollup.items()
            if ph == phase and (layer is None or name == layer) and (pipeline == "*" or pipe == pipeline)
        )

    def calls(self, phase: str, layer: str) -> int:
        return sum(
            slot[1] for (ph, _pipe, name), slot in self.rollup.items() if ph == phase and name == layer
        )

    def write_chrome_trace(self, path: Path) -> None:
        """Dump the kept spans in Chrome's trace-event format (µs)."""
        events = [
            {
                "name": name,
                "cat": phase,
                "ph": "X",
                "ts": start * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 0,
                "tid": 0,
                "args": {"item": item, "parent": parent},
            }
            for name, start, end, parent, item, phase in self.spans
        ]
        doc = {"traceEvents": events, "otherData": {"spans_dropped": self.spans_dropped}}
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc))


def _resolve(target: str) -> tuple[Any, str, Any]:
    """(owner, attribute, raw value) for a ``module:qualname`` target."""
    module_name, qualname = target.split(":")
    owner: Any = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    raw = owner.__dict__[attr] if path else getattr(owner, attr)
    return owner, attr, raw


class Instrumentation:
    """Wraps every callable in a layer table around one :class:`Recorder`."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self._functions: list[tuple[Callable, Any]] = []  # (wrapper, original)
        self._class_attrs: list[tuple[type, str, Any]] = []

    def _wrap(self, fn: Callable, layer: Layer, target_index: int) -> Callable:
        recorder = self.recorder
        name = layer.name
        counts = [
            (f"{name}.{count}", count_fn)
            for count, (index, count_fn) in layer.counts.items()
            if index == target_index
        ]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if recorder.phase is None:
                return fn(*args, **kwargs)
            recorder.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.exit()
            for count_name, count_fn in counts:
                recorder.count(count_name, count_fn(args, result))
            return result

        return traced

    @property
    def installed(self) -> bool:
        return bool(self._functions or self._class_attrs)

    def install(self) -> None:
        for layer in LAYERS:
            for index, target in enumerate(layer.targets):
                owner, attr, raw = _resolve(target)
                if isinstance(owner, type):
                    if isinstance(raw, (classmethod, staticmethod)):
                        wrapped = type(raw)(self._wrap(raw.__func__, layer, index))
                    else:
                        wrapped = self._wrap(raw, layer, index)
                    self._class_attrs.append((owner, attr, raw))
                    setattr(owner, attr, wrapped)
                else:
                    self._functions.append((self._wrap(raw, layer, index), raw))
        _rebind({id(raw): wrapper for wrapper, raw in self._functions})

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._class_attrs):
            setattr(owner, attr, raw)
        self._class_attrs.clear()
        # Modules imported while tracing took the wrappers by name too, so
        # every module is searched again, not just the ones patched.
        _rebind({id(wrapper): raw for wrapper, raw in self._functions})
        self._functions.clear()


class Tracing:
    """Which parts of a run are traced, and the wrappers installed for them.

    An untraced run installs nothing.  A traced run keeps the wrappers
    installed for set-up, warm-up and the even-numbered blocks of ``block``
    measured items, and removes them for the odd-numbered blocks, whose
    items run in the ``bare`` phase.  The wrappers' cost is then read off
    neighbouring blocks of one process, which share the machine's state.
    """

    def __init__(self, recorder: Recorder, enabled: bool, block: int):
        self.recorder = recorder
        self.enabled = enabled
        self.block = block
        self.instrumentation = Instrumentation(recorder)

    def traced(self, item: int) -> bool:
        return self.enabled and (item // self.block) % 2 == 0

    def begin(self, phase: str) -> None:
        """Enter a phase outside the measured items (set-up, warm-up, a rollup)."""
        self._install(self.enabled)
        self.recorder.phase = phase
        self.recorder.item = None

    def item(self, item: int) -> None:
        """Start measured item ``item``; its block decides whether it is traced."""
        traced = self.traced(item)
        self._install(traced)
        self.recorder.phase = "measure" if traced or not self.enabled else "bare"
        self.recorder.item = item

    def end(self) -> None:
        self.recorder.phase = None
        self._install(False)

    def _install(self, on: bool) -> None:
        if on and not self.instrumentation.installed:
            self.instrumentation.install()
        elif not on and self.instrumentation.installed:
            self.instrumentation.uninstall()


def _rebind(replacements: dict[int, Any]) -> None:
    """Replace every module-level value whose id is a key, in the patched packages."""
    for module in _patched_modules():
        for attr, value in list(vars(module).items()):
            if id(value) in replacements:
                setattr(module, attr, replacements[id(value)])


def _patched_modules() -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and name.split(".")[0] in PATCHED_PACKAGES
    ]


def layer_metrics(recorder: Recorder, items: int, setups: int, slowdown: float = 1.0) -> dict[str, float]:
    """Per-layer numbers: self ms and calls per item (per set-up for
    ``setup.*`` layers), counts per item, and the useful-work ratios.

    Self times are divided by ``slowdown``, the run's machine slowdown
    (see bench.speed), like the end-to-end times.
    """
    out: dict[str, float] = {}
    for layer in LAYERS:
        phase, per = ("setup", setups) if layer.name.startswith("setup.") else ("measure", items)
        out[f"{layer.name}.self_ms"] = recorder.self_s(phase, layer.name) * 1e3 / per / slowdown
        out[f"{layer.name}.calls"] = recorder.calls(phase, layer.name) / per
        for count in layer.counts:
            out[f"{layer.name}.{count}"] = recorder.counts.get(("measure", f"{layer.name}.{count}"), 0.0) / items
    out[f"{RESIDUAL}.self_ms"] = recorder.self_s("measure", RESIDUAL) * 1e3 / items / slowdown
    for name, (num, den) in RATIOS.items():
        out[name] = out[num] / out[den] if out[den] else 0.0
    return out
