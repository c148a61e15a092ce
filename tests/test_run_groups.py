"""Run groups: one workload and one warm-up per warm class, same outputs.

The engine runs the run requests of a batch that share (benchmark, seed,
warm-up) as one group: the workload is built once, and in the fast
kernel each warm class warms up once while its other members load a copy
of the warmed hierarchy.  These tests pin that sharing changes nothing:
documents and cache keys equal standalone runs across the whole
mitigation lattice, whichever member warms first, at any ``--jobs``; and
every field the warm class ignores really is invisible to warm-up.
"""

import gc
import random
from dataclasses import fields, replace

import pytest

from repro.analysis.engine import (
    JOB_KINDS,
    PAPER_VARIANTS,
    WARM_KEY_EXCLUSIONS,
    EvaluationSettings,
    ParallelRunner,
    ScenarioRequest,
    _tasks,
    evaluation_config,
    execute_request,
    execute_run_group,
    request_for,
    warm_class,
)
from repro.common.fastpath import SLOW_PATH_ENV_VAR
from repro.core.config import MI6Config
from repro.core.processor import MI6Processor
from repro.core.serialization import run_to_dict
from repro.mem.dram import DramConfig
from repro.workloads.generator import PreparedWorkload, SyntheticWorkload
from repro.workloads.spec_cint2006 import profile_for

SETTINGS = EvaluationSettings(instructions=2_000, seed=2019)

#: bit i of a lattice mask selects ``_MITIGATIONS[i]``.
_MITIGATIONS = ("FLUSH", "PART", "MISS", "ARB", "NONSPEC")

LATTICE = [
    "+".join(name for bit, name in enumerate(_MITIGATIONS) if mask & (1 << bit)) or "BASE"
    for mask in range(32)
]

BENCHMARKS = ("hmmer", "mcf")


@pytest.fixture(autouse=True)
def fast_path(monkeypatch):
    """Sharing exists only in the fast kernel; pin it for every test."""
    monkeypatch.delenv(SLOW_PATH_ENV_VAR, raising=False)


def lattice_requests():
    return [request_for(spec, benchmark, SETTINGS) for spec in LATTICE for benchmark in BENCHMARKS]


def first_warmers(requests):
    """The first member of each (benchmark, warm class), by position."""
    first = {}
    for request in requests:
        first.setdefault((request.benchmark, warm_class(request.config)), request)
    return first


@pytest.fixture(scope="module")
def standalone():
    """Each lattice cell run on its own: (cache key, run document) by cell."""
    with pytest.MonkeyPatch.context() as patch:
        patch.delenv(SLOW_PATH_ENV_VAR, raising=False)
        return {
            (request.config.name, request.benchmark): (
                request.cache_key(),
                run_to_dict(execute_request(request)),
            )
            for request in lattice_requests()
        }


def batch_documents(requests, jobs=1):
    runner = ParallelRunner(jobs=jobs)
    runs = runner.run(requests)
    return {
        (request.config.name, request.benchmark): (key, run_to_dict(run))
        for request, key, run in zip(requests, runner.last_keys, runs)
    }


class TestSharingChangesNothing:
    def test_lattice_batch_equals_standalone_runs(self, standalone):
        requests = lattice_requests()
        # Two warm classes (PART or not) per benchmark.
        assert len(first_warmers(requests)) == 2 * len(BENCHMARKS)
        assert batch_documents(requests) == standalone

    def test_shuffled_batch_gives_the_same_documents(self, standalone):
        requests = lattice_requests()
        shuffled = list(requests)
        # A seed whose shuffle puts another member of every class first.
        random.Random(2020).shuffle(shuffled)
        before, after = first_warmers(requests), first_warmers(shuffled)
        assert before.keys() == after.keys()
        assert all(before[cls] is not after[cls] for cls in before)
        assert batch_documents(shuffled) == standalone

    def test_mixed_length_group_same_at_one_and_two_jobs(self):
        # At 2,400 instructions NONSPEC runs its 2,000 floor: a prefix of
        # the group's stream.
        settings = EvaluationSettings(instructions=2_400, seed=7)
        requests = [request_for(variant, "gobmk", settings) for variant in PAPER_VARIANTS]
        assert {request.instructions for request in requests} == {2_000, 2_400}
        serial = batch_documents(requests, jobs=1)
        assert batch_documents(requests, jobs=2) == serial
        alone = execute_request(requests[-1])
        assert serial[(requests[-1].config.name, "gobmk")][1] == run_to_dict(alone)

    def test_every_machine_warms_itself_on_the_slow_path(self, monkeypatch):
        requests = [request_for(spec, "mcf", SETTINGS) for spec in ("BASE", "ARB")]
        warmed = []
        original = MI6Processor.warm_up

        def counting_warm_up(self, workload):
            warmed.append(self.config.name)
            original(self, workload)

        monkeypatch.setattr(MI6Processor, "warm_up", counting_warm_up)
        execute_run_group(requests)
        assert warmed == ["BASE"]
        monkeypatch.setenv(SLOW_PATH_ENV_VAR, "1")
        execute_run_group(requests)
        assert warmed == ["BASE", "BASE", "ARB"]


def captured_warm_state(config):
    with pytest.MonkeyPatch.context() as patch:
        patch.delenv(SLOW_PATH_ENV_VAR, raising=False)
        workload = PreparedWorkload(SyntheticWorkload(profile_for("libquantum"), seed=3), 10)
        processor = MI6Processor(config, seed=3)
        processor.load_workload(workload)
        return processor.capture_warm_state()


#: A value differing from the evaluation default, per excluded field.
EXCLUDED_FIELD_VALUES = {
    "name": "ANOTHER",
    "core": replace(MI6Config().core, rob_entries=48, mispredict_penalty=9),
    "dram": DramConfig(latency_cycles=90),
    "flush_on_context_switch": True,
    "partition_mshrs": True,
    "llc_arbiter": True,
    "nonspec_memory": True,
    "trap_interval_instructions": 7_777,
}


class TestWarmClasses:
    @pytest.fixture(scope="class")
    def base(self):
        return evaluation_config("BASE", 2_000)

    @pytest.fixture(scope="class")
    def base_state(self, base):
        return captured_warm_state(base)

    def test_exclusion_table_names_real_fields_with_reasons(self):
        names = {item.name for item in fields(MI6Config)}
        assert set(WARM_KEY_EXCLUSIONS) <= names
        assert set(EXCLUDED_FIELD_VALUES) == set(WARM_KEY_EXCLUSIONS)
        for name, reason in WARM_KEY_EXCLUSIONS.items():
            assert isinstance(reason, str) and reason.strip(), name

    @pytest.mark.parametrize("name", sorted(WARM_KEY_EXCLUSIONS))
    def test_excluded_field_leaves_the_warm_state_equal(self, name, base, base_state):
        changed = replace(base, **{name: EXCLUDED_FIELD_VALUES[name]})
        assert getattr(changed, name) != getattr(base, name)
        assert warm_class(changed) == warm_class(base)
        assert captured_warm_state(changed) == base_state

    def test_included_field_splits_the_class(self, base, base_state):
        partitioned = replace(base, set_partition_llc=True)
        assert warm_class(partitioned) != warm_class(base)
        assert captured_warm_state(partitioned) != base_state


class TestGrouping:
    def test_only_runs_group(self):
        assert [kind for kind, job in JOB_KINDS.items() if job.group_key is not None] == [
            "run"
        ]
        scenarios = [ScenarioRequest("spectre", MI6Config(), seed) for seed in (1, 2, 1)]
        assert _tasks(JOB_KINDS["scenario"], scenarios, 1) == [[0], [1], [2]]

    def test_tasks_spread_one_group_over_every_worker(self):
        requests = [request_for(spec, "gcc", SETTINGS) for spec in LATTICE]
        tasks = _tasks(JOB_KINDS["run"], requests, 16)
        assert [len(task) for task in tasks] == [2] * 16
        assert sorted(index for task in tasks for index in task) == list(range(32))
        assert [len(task) for task in _tasks(JOB_KINDS["run"], requests, 1)] == [32]

    def test_tasks_keep_groups_whole_in_first_appearance_order(self):
        requests = [
            request_for(variant, benchmark, SETTINGS)
            for variant in ("BASE", "PART")
            for benchmark in ("gcc", "mcf", "gcc")
        ]
        assert _tasks(JOB_KINDS["run"], requests, 1) == [[0, 2, 3, 5], [1, 4]]


class TestMachinesFreeByReferenceCounting:
    @pytest.fixture(autouse=True)
    def collector_off(self):
        gc.collect()
        gc.disable()
        yield
        gc.enable()

    def test_single_run_leaves_no_cyclic_garbage(self):
        execute_request(request_for("F+P+M+A", "hmmer", SETTINGS))
        assert gc.collect() == 0

    def test_seven_variant_group_leaves_no_cyclic_garbage(self):
        execute_run_group([request_for(variant, "hmmer", SETTINGS) for variant in PAPER_VARIANTS])
        assert gc.collect() == 0
