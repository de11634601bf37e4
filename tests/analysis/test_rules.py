"""Per-rule tests: each rule fires on a synthetic violation and stays
quiet on compliant code."""

import pytest

from repro.analysis.core import analyze_source

pytestmark = pytest.mark.analysis

SIM_MODULE = "repro.zynq.fake"
NON_SIM_MODULE = "repro.imaging.fake"
API_MODULE = "repro.pipelines.fake"


def ids(source: str, module: str = SIM_MODULE) -> list[str]:
    return [v.rule_id for v in analyze_source(source, module=module)]


def only(source: str, rule_id: str, module: str = SIM_MODULE) -> list[str]:
    return [v.rule_id for v in analyze_source(source, module=module) if v.rule_id == rule_id]


class TestDeterminismClock:
    def test_fires_on_wall_clock_calls(self):
        src = "import time\nx = time.time()\ny = time.perf_counter()\n"
        assert only(src, "determinism-clock") == ["determinism-clock"] * 2

    def test_fires_on_datetime_now(self):
        src = "import datetime\nx = datetime.datetime.now()\n"
        assert only(src, "determinism-clock") == ["determinism-clock"]

    def test_quiet_outside_sim_domains(self):
        src = "import time\nx = time.time()\n"
        assert only(src, "determinism-clock", module=NON_SIM_MODULE) == []

    def test_quiet_in_telemetry_injection_point(self):
        src = "import time\nx = time.perf_counter()\n"
        assert only(src, "determinism-clock", module="repro.telemetry.spans") == []

    def test_quiet_on_injected_clock(self):
        src = "def f(clock):\n    return clock()\n"
        assert only(src, "determinism-clock") == []


class TestDeterminismRng:
    def test_fires_on_stdlib_random_import(self):
        assert only("import random\n", "determinism-rng") == ["determinism-rng"]

    def test_fires_on_stdlib_random_call(self):
        src = "x = random.Random('seed').randbytes(8)\n"
        assert "determinism-rng" in ids(src)

    def test_fires_on_numpy_default_rng(self):
        src = "import numpy as np\nrng = np.random.default_rng(7)\n"
        assert only(src, "determinism-rng") == ["determinism-rng"]

    def test_fires_on_from_import(self):
        src = "from numpy.random import default_rng\n"
        assert only(src, "determinism-rng") == ["determinism-rng"]

    def test_quiet_on_helper(self):
        src = "from repro.rng import make_rng\nrng = make_rng(7)\n"
        assert only(src, "determinism-rng") == []

    def test_quiet_outside_sim_domains(self):
        src = "import numpy as np\nrng = np.random.default_rng(7)\n"
        assert only(src, "determinism-rng", module="tests.fake") == []

    def test_quiet_in_the_helper_module_itself(self):
        src = "import random\n"
        assert only(src, "determinism-rng", module="repro.rng") == []

    def test_generator_annotations_are_fine(self):
        src = "import numpy as np\ndef f(rng: np.random.Generator) -> None:\n    pass\n"
        assert only(src, "determinism-rng") == []

    def test_fires_on_bit_generator_state_assignment_in_any_package(self):
        src = "rng.bit_generator.state = saved\n"
        for module in (SIM_MODULE, NON_SIM_MODULE, "repro.quality.fake"):
            assert only(src, "determinism-rng", module=module) == ["determinism-rng"]

    def test_fires_on_unpacked_state_assignment(self):
        src = "rng.bit_generator.state, n = saved, 1\n"
        assert only(src, "determinism-rng", module=NON_SIM_MODULE) == ["determinism-rng"]

    def test_quiet_on_reading_state_and_other_state_attributes(self):
        src = "saved = rng.bit_generator.state\nself.state = 1\nsim.clock.state = 2\n"
        assert only(src, "determinism-rng", module=NON_SIM_MODULE) == []

    def test_helper_module_may_assign_state(self):
        src = "rng.bit_generator.state = saved\n"
        assert only(src, "determinism-rng", module="repro.rng") == []


class TestUnitSuffix:
    def test_fires_on_unsuffixed_parameter(self):
        src = "def f(duration):\n    return duration\n"
        assert only(src, "unit-suffix") == ["unit-suffix"]

    def test_fires_on_unsuffixed_field(self):
        src = "class C:\n    latency: float = 0.0\n"
        assert only(src, "unit-suffix") == ["unit-suffix"]

    def test_quiet_with_suffix(self):
        src = "def f(duration_s, timeout_ms, throughput_mbs):\n    pass\n"
        assert only(src, "unit-suffix") == []

    def test_quiet_on_clearly_non_numeric(self):
        src = "def f(delay_label: str) -> str:\n    return delay_label\n"
        assert only(src, "unit-suffix") == []

    def test_quiet_on_unrelated_names(self):
        src = "def f(frame, count, name):\n    pass\n"
        assert only(src, "unit-suffix") == []


class TestSpanContext:
    def test_fires_on_leaked_span(self):
        src = "s = tracer.span('drive.frame')\n"
        assert only(src, "span-context") == ["span-context"]

    def test_quiet_as_context_manager(self):
        src = "with tracer.span('drive.frame') as s:\n    pass\n"
        assert only(src, "span-context") == []

    def test_quiet_on_begin_end(self):
        src = "s = tracer.begin('pr.reconfigure')\ntracer.end(s)\n"
        assert only(src, "span-context") == []

    def test_quiet_inside_telemetry_package(self):
        src = "def span(self, name):\n    return self.tracer.span(name)\n"
        assert only(src, "span-context", module="repro.telemetry.session") == []


class TestEventVocabulary:
    """The ``event-vocabulary`` cases, run once per emitter in
    ``LintConfig.event_vocabularies``: this class checks ``Trace.emit``
    and each subclass re-runs every case on one more emitter."""

    EMITTER = "emit"
    CALL = "trace.emit(0.0, 'pr', {kind}, bitstream='dark')\n"
    DECLARED = ("pr.done",)
    UNKNOWN = "soc.mystery"

    def call(self, kind: str) -> str:
        return self.CALL.format(kind=kind)

    def test_fires_on_unknown_kind(self):
        src = self.call(repr(self.UNKNOWN))
        assert only(src, "event-vocabulary") == ["event-vocabulary"]

    def test_fires_on_non_literal_kind(self):
        assert only(self.call("kind_var"), "event-vocabulary") == ["event-vocabulary"]

    def test_quiet_on_declared_kinds(self):
        src = "".join(self.call(repr(kind)) for kind in self.DECLARED)
        assert only(src, "event-vocabulary") == []

    def test_kind_keyword_is_checked_too(self):
        for kind in self.DECLARED:
            assert only(self.call(f"kind={kind!r}"), "event-vocabulary") == []
        src = self.call(f"kind={self.UNKNOWN!r}")
        assert only(src, "event-vocabulary") == ["event-vocabulary"]

    def test_applies_outside_sim_domains(self):
        src = self.call(repr(self.UNKNOWN))
        assert only(src, "event-vocabulary", module=NON_SIM_MODULE) == ["event-vocabulary"]


class TestMonitorEventVocabulary(TestEventVocabulary):
    EMITTER = "emit_event"
    CALL = "monitor.emit_event({kind}, time_s=1.0)\n"
    DECLARED = ("monitor.trigger", "monitor.incident", "slo.violation", "health.transition")
    UNKNOWN = "monitor.bogus"


class TestFleetEventVocabulary(TestEventVocabulary):
    EMITTER = "fleet_event"
    CALL = "scheduler.fleet_event({kind}, drives=4)\n"
    DECLARED = (
        "fleet.run.start",
        "fleet.submit",
        "fleet.worker.crash",
        "fleet.rollup.write",
        "fleet.reject",
    )
    UNKNOWN = "fleet.party"


class TestQualityEventVocabulary(TestEventVocabulary):
    EMITTER = "quality_event"
    CALL = "observer.quality_event({kind}, trace='sunset')\n"
    DECLARED = ("quality.drive.start", "quality.compare")
    UNKNOWN = "quality.party"


def test_every_emitter_has_vocabulary_cases():
    from repro.analysis.config import DEFAULT_CONFIG

    cases = [TestEventVocabulary, *TestEventVocabulary.__subclasses__()]
    assert sorted(c.EMITTER for c in cases) == sorted(DEFAULT_CONFIG.event_vocabularies)


class TestSwallowedError:
    def test_fires_on_bare_except(self):
        src = "try:\n    f()\nexcept:\n    g()\n"
        assert only(src, "swallowed-error") == ["swallowed-error"]

    def test_fires_on_silent_broad_handler(self):
        src = "try:\n    f()\nexcept Exception:\n    pass\n"
        assert only(src, "swallowed-error") == ["swallowed-error"]

    def test_quiet_when_handler_records(self):
        src = "try:\n    f()\nexcept Exception as exc:\n    log(exc)\n"
        assert only(src, "swallowed-error") == []

    def test_quiet_on_narrow_handler(self):
        src = "try:\n    f()\nexcept ValueError:\n    pass\n"
        assert only(src, "swallowed-error") == []


class TestMutableDefault:
    def test_fires_on_list_literal(self):
        src = "def f(items=[]):\n    pass\n"
        assert only(src, "mutable-default") == ["mutable-default"]

    def test_fires_on_dict_constructor(self):
        src = "def f(options=dict()):\n    pass\n"
        assert only(src, "mutable-default") == ["mutable-default"]

    def test_quiet_on_none_default(self):
        src = "def f(items=None):\n    pass\n"
        assert only(src, "mutable-default") == []

    def test_quiet_on_immutable_defaults(self):
        src = "def f(a=0, b='x', c=(1, 2)):\n    pass\n"
        assert only(src, "mutable-default") == []


class TestPublicApi:
    GOOD = (
        "def detect(frame: object) -> list:\n"
        "    \"\"\"Run detection.\"\"\"\n"
        "    return []\n"
    )

    def test_fires_on_missing_docstring(self):
        src = "def detect(frame: object) -> list:\n    return []\n"
        assert only(src, "public-api", module=API_MODULE) == ["public-api"]

    def test_fires_on_missing_annotations(self):
        src = "def detect(frame) -> list:\n    \"\"\"Doc.\"\"\"\n    return []\n"
        assert only(src, "public-api", module=API_MODULE) == ["public-api"]

    def test_fires_on_missing_return_annotation(self):
        src = "def detect(frame: object):\n    \"\"\"Doc.\"\"\"\n    return []\n"
        assert only(src, "public-api", module=API_MODULE) == ["public-api"]

    def test_fires_on_undocumented_class_and_method(self):
        src = (
            "class Pipe:\n"
            "    def run(self, n):\n"
            "        return n\n"
        )
        found = only(src, "public-api", module=API_MODULE)
        assert len(found) == 4  # class doc, method doc, return ann, param ann

    def test_quiet_on_compliant_function(self):
        assert only(self.GOOD, "public-api", module=API_MODULE) == []

    def test_quiet_on_private_helpers(self):
        src = "def _helper(x):\n    return x\n"
        assert only(src, "public-api", module=API_MODULE) == []

    def test_quiet_outside_api_packages(self):
        src = "def detect(frame):\n    return []\n"
        assert only(src, "public-api", module="repro.imaging.fake") == []


class TestSuppressions:
    def test_line_skip_all(self):
        src = "import random  # reprolint: skip\n"
        assert ids(src) == []

    def test_line_skip_named_rule(self):
        src = "import random  # reprolint: skip=determinism-rng\n"
        assert only(src, "determinism-rng") == []

    def test_line_skip_other_rule_does_not_apply(self):
        src = "import random  # reprolint: skip=unit-suffix\n"
        assert only(src, "determinism-rng") == ["determinism-rng"]

    def test_skip_file(self):
        src = "# reprolint: skip-file\nimport random\nx = time.time()\n"
        assert ids(src) == []

    def test_skip_file_named_rules_only(self):
        src = "# reprolint: skip-file=determinism-rng\nimport random\nimport time\nx = time.time()\n"
        assert only(src, "determinism-rng") == []
        assert only(src, "determinism-clock") == ["determinism-clock"]

    def test_skip_file_ignored_deep_in_the_file(self):
        src = "\n" * 20 + "# reprolint: skip-file\nimport random\n"
        assert only(src, "determinism-rng") == ["determinism-rng"]

    def test_late_skip_file_is_reported_not_silently_ignored(self):
        src = "\n" * 20 + "# reprolint: skip-file\nimport random\n"
        assert only(src, "suppression-hygiene") == ["suppression-hygiene"]

    def test_unknown_rule_in_skip_warns(self):
        src = "x = 1  # reprolint: skip=determinsm-clock\n"
        found = analyze_source(src, module=SIM_MODULE)
        assert [v.rule_id for v in found] == ["suppression-hygiene"]
        assert "determinsm-clock" in found[0].message

    def test_known_rule_in_skip_is_quiet(self):
        src = "import random  # reprolint: skip=determinism-rng\n"
        assert only(src, "suppression-hygiene") == []

    def test_pragma_inside_string_literal_is_inert(self):
        # Pragma-shaped text in a docstring neither suppresses the line
        # nor counts as a (possibly bogus) suppression comment.
        src = (
            'DOC = """\n'
            "    # reprolint: skip=no-such-rule\n"
            '"""\n'
            "import random  # the string above must not suppress this\n"
        )
        assert only(src, "determinism-rng") == ["determinism-rng"]
        assert only(src, "suppression-hygiene") == []


class TestFramework:
    def test_syntax_error_reported_not_raised(self):
        found = analyze_source("def broken(:\n", module=SIM_MODULE)
        assert [v.rule_id for v in found] == ["syntax-error"]

    def test_violations_sorted_by_location(self):
        src = "import random\nimport time\nx = time.time()\ny = random.random()\n"
        found = analyze_source(src, module=SIM_MODULE)
        assert [v.line for v in found] == sorted(v.line for v in found)

    def test_select_filter(self):
        from dataclasses import replace

        from repro.analysis.config import DEFAULT_CONFIG

        src = "import random\nx = time.time()\n"
        cfg = replace(DEFAULT_CONFIG, select=("determinism-clock",))
        found = analyze_source(src, module=SIM_MODULE, config=cfg)
        assert {v.rule_id for v in found} == {"determinism-clock"}

    def test_ignore_filter(self):
        from dataclasses import replace

        from repro.analysis.config import DEFAULT_CONFIG

        src = "import random\nx = time.time()\n"
        cfg = replace(DEFAULT_CONFIG, ignore=("determinism-rng",))
        found = analyze_source(src, module=SIM_MODULE, config=cfg)
        assert "determinism-rng" not in {v.rule_id for v in found}


class TestBatchedHotPath:
    PIPELINE = "repro.pipelines.fake"

    def test_fires_on_per_window_loop(self):
        src = (
            "def scan(model, windows):\n"
            "    out = []\n"
            "    for w in windows:\n"
            "        out.append(model.decision_values(w))\n"
            "    return out\n"
        )
        assert only(src, "batched-hot-path", module=self.PIPELINE) == ["batched-hot-path"]

    def test_fires_on_predict_in_while_loop(self):
        src = (
            "def scan(dbn, flat):\n"
            "    i = 0\n"
            "    while i < 10:\n"
            "        dbn.predict(flat[i])\n"
            "        i += 1\n"
        )
        assert only(src, "batched-hot-path", module=self.PIPELINE) == ["batched-hot-path"]

    def test_fires_on_listcomp(self):
        src = "def scan(model, ws):\n    return [model.predict_proba(w) for w in ws]\n"
        assert only(src, "batched-hot-path", module=self.PIPELINE) == ["batched-hot-path"]

    def test_fires_in_reference_named_function(self):
        # No name exempts a loop: the per-window references live in tests.
        src = (
            "def _scan_plane_reference(model, windows):\n"
            "    return [float(model.decision_values(w)) for w in windows]\n"
        )
        assert only(src, "batched-hot-path", module=self.PIPELINE) == ["batched-hot-path"]

    def test_quiet_on_batch_entry_points(self):
        src = (
            "def scan(model, chunks):\n"
            "    for chunk in chunks:\n"
            "        model.predict_batch(chunk)\n"
            "        model.decision_batch(chunk)\n"
        )
        assert only(src, "batched-hot-path", module=self.PIPELINE) == []

    def test_quiet_on_argless_predict(self):
        # A kinematic track.predict() is not a classifier scorer.
        src = "def step(tracks):\n    return [t.predict() for t in tracks]\n"
        assert only(src, "batched-hot-path", module=self.PIPELINE) == []

    def test_quiet_outside_loops(self):
        src = "def classify(model, crop):\n    return model.decision_values(crop)\n"
        assert only(src, "batched-hot-path", module=self.PIPELINE) == []

    def test_quiet_outside_hot_path_packages(self):
        src = (
            "def scan(model, windows):\n"
            "    return [model.decision_values(w) for w in windows]\n"
        )
        assert only(src, "batched-hot-path", module="repro.experiments.fake") == []

    def test_loop_in_caller_does_not_taint_helper(self):
        src = (
            "def score_one(model, w):\n"
            "    return model.decision_values(w)\n"
        )
        assert only(src, "batched-hot-path", module=self.PIPELINE) == []
