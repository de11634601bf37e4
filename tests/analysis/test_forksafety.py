"""The fork-safety family: untimed blocking waits, unpicklable payloads,
and fork-shared mutable state."""

import pytest

from repro.analysis.core import analyze_source

pytestmark = pytest.mark.analysis

FLEET = "repro.fleet.fake"


def only(source: str, rule_id: str, module: str = FLEET) -> list[str]:
    return [
        v.rule_id
        for v in analyze_source(source, module=module)
        if v.rule_id == rule_id
    ]


class TestQueueTimeout:
    RULE = "fork-queue-timeout"

    def test_fires_on_bare_queue_get(self):
        src = "def f(task_queue):\n    return task_queue.get()\n"
        assert only(src, self.RULE) == [self.RULE]

    def test_fires_on_bare_join(self):
        src = "def f(proc):\n    proc.join()\n"
        assert only(src, self.RULE) == [self.RULE]

    def test_quiet_with_timeout(self):
        src = (
            "def f(task_queue, proc):\n"
            "    item = task_queue.get(timeout=1.0)\n"
            "    proc.join(timeout=2.0)\n"
            "    return item\n"
        )
        assert only(src, self.RULE) == []

    def test_quiet_on_dict_get(self):
        src = "def f(options_queue, options):\n    return options.get('mode')\n"
        assert only(src, self.RULE) == []

    def test_quiet_on_str_join(self):
        src = "def f(parts):\n    return ', '.join(parts)\n"
        assert only(src, self.RULE) == []

    def test_quiet_on_non_queue_get(self):
        src = "def f(cache):\n    return cache.get()\n"
        assert only(src, self.RULE) == []

    def test_quiet_outside_fork_packages(self):
        src = "def f(task_queue):\n    return task_queue.get()\n"
        assert only(src, self.RULE, module="repro.imaging.fake") == []


class TestUnpicklable:
    RULE = "fork-unpicklable"

    def test_lambda_into_queue_put(self):
        src = "def f(task_queue):\n    task_queue.put(lambda x: x)\n"
        assert only(src, self.RULE) == [self.RULE]

    def test_lambda_via_local_binding(self):
        src = (
            "def f(task_queue, spec):\n"
            "    fn = lambda x: x\n"
            "    task_queue.put((spec, fn))\n"
        )
        assert only(src, self.RULE) == [self.RULE]

    def test_nested_function_is_a_closure(self):
        src = (
            "def f(task_queue):\n"
            "    def hook(frame):\n"
            "        return frame\n"
            "    task_queue.put(hook)\n"
        )
        assert only(src, self.RULE) == [self.RULE]

    def test_open_handle_into_payload(self):
        src = "def f(task_queue, path):\n    task_queue.put(open(path))\n"
        assert only(src, self.RULE) == [self.RULE]

    def test_tracer_into_drive_spec(self):
        src = (
            "def f():\n"
            "    return DriveSpec(name='d', trace=Tracer())\n"
        )
        assert only(src, self.RULE) == [self.RULE]

    def test_generator_expression_payload(self):
        src = "def f(task_queue, xs):\n    task_queue.put(x for x in xs)\n"
        assert only(src, self.RULE) == [self.RULE]

    def test_plain_data_is_quiet(self):
        src = (
            "def f(task_queue, spec):\n"
            "    task_queue.put((0, spec.to_dict()))\n"
        )
        assert only(src, self.RULE) == []

    def test_module_level_function_reference_is_quiet(self):
        src = (
            "def handler(frame):\n"
            "    return frame\n"
            "def f(task_queue):\n"
            "    task_queue.put(handler)\n"
        )
        assert only(src, self.RULE) == []

    def test_put_on_non_queue_is_quiet(self):
        src = "def f(bucket):\n    bucket.put(lambda x: x)\n"
        assert only(src, self.RULE) == []

    def test_quiet_outside_fork_packages(self):
        src = "def f(task_queue):\n    task_queue.put(lambda x: x)\n"
        assert only(src, self.RULE, module="repro.imaging.fake") == []


class TestSharedState:
    RULE = "fork-shared-state"
    WORKER = "repro.fleet.worker"

    def test_mutating_method_on_module_global(self):
        src = (
            "SEEN = []\n"
            "def worker_loop(q):\n"
            "    SEEN.append(q)\n"
        )
        assert only(src, self.RULE, module=self.WORKER) == [self.RULE]

    def test_subscript_assignment_on_module_global(self):
        src = (
            "CACHE = {}\n"
            "def worker_loop(q):\n"
            "    CACHE['x'] = q\n"
        )
        assert only(src, self.RULE, module=self.WORKER) == [self.RULE]

    def test_global_rebind(self):
        src = (
            "STATE = {}\n"
            "def worker_loop(q):\n"
            "    global STATE\n"
            "    STATE = {'q': q}\n"
        )
        assert only(src, self.RULE, module=self.WORKER) == [self.RULE]

    def test_local_mutation_is_quiet(self):
        src = (
            "def worker_loop(q):\n"
            "    seen = []\n"
            "    seen.append(q)\n"
            "    return seen\n"
        )
        assert only(src, self.RULE, module=self.WORKER) == []

    def test_module_level_mutation_is_quiet(self):
        # Import-time mutation happens identically pre-fork in every
        # process; only post-fork divergence is the hazard.
        src = "REGISTRY = {}\nREGISTRY['default'] = 1\n"
        assert only(src, self.RULE, module=self.WORKER) == []

    def test_non_worker_fleet_module_is_quiet(self):
        src = (
            "SEEN = []\n"
            "def record(q):\n"
            "    SEEN.append(q)\n"
        )
        assert only(src, self.RULE, module="repro.fleet.scheduler") == []
