"""Tests for the parallel campaign runner: tasks, executors, determinism."""

import pickle

import pytest

from repro.agent import autopilot_agent_factory, nn_agent_factory
from repro.agent.ilcnn import ILCNN, ILCNNConfig
from repro.core import (
    Campaign,
    ProcessExecutor,
    SerialExecutor,
    episode_seed,
    execute_task,
    make_executor,
    metrics_by_injector,
    standard_scenarios,
    summary_frame,
)
from repro.core.faults import GaussianNoise, OutputDelay
from repro.sim.builders import SimulationBuilder
from repro.sim.render import CameraModel
from repro.sim.town import GridTownConfig

TOWN = GridTownConfig(rows=2, cols=3)
TINY = ILCNNConfig(input_hw=(16, 24), conv_channels=(4, 6, 6), trunk_dim=16,
                   speed_dim=4, branch_hidden=8, dropout=0.0)


@pytest.fixture(scope="module")
def builder():
    return SimulationBuilder(camera=CameraModel(width=24, height=16), with_lidar=False)


@pytest.fixture(scope="module")
def scenarios():
    return standard_scenarios(2, seed=9, town_config=TOWN, min_distance=60, max_distance=160)


INJECTORS = {
    "none": [],
    "delay": [OutputDelay(8)],
    "gaussian": [GaussianNoise(0.05)],
}


def _campaign(builder, scenarios, **kw):
    return Campaign(
        scenarios, autopilot_agent_factory(), INJECTORS, builder=builder, **kw
    )


class TestTaskGrid:
    def test_canonical_order_and_seeds(self, builder, scenarios):
        runner = _campaign(builder, scenarios, base_seed=3)
        tasks = runner.tasks()
        assert len(tasks) == runner.total_runs() == 6
        assert [t.index for t in tasks] == list(range(6))
        # Injector-major, scenario-minor, with the paired-design formula.
        assert [t.injector for t in tasks[:2]] == ["none", "none"]
        assert tasks[3].seed == episode_seed(3, 1, 1)

    def test_seed_formula_matches_serial_campaign(self, builder, scenarios):
        """Runner seeds must equal the historical Campaign formula."""
        runner = _campaign(builder, scenarios, base_seed=7)
        for task in runner.tasks():
            inj_idx = list(INJECTORS).index(task.injector)
            scn_idx = [s.name for s in scenarios].index(task.scenario.name)
            assert task.seed == 7 * 1_000_003 + inj_idx * 10_007 + scn_idx

    def test_validation(self, builder, scenarios):
        with pytest.raises(ValueError):
            Campaign([], autopilot_agent_factory(), INJECTORS)
        with pytest.raises(ValueError):
            Campaign(scenarios, autopilot_agent_factory(), {})


class TestExecutorSelection:
    def test_default_is_serial(self):
        assert isinstance(make_executor(), SerialExecutor)
        assert isinstance(make_executor(workers=1), SerialExecutor)

    def test_workers_select_process(self):
        ex = make_executor(workers=4)
        assert isinstance(ex, ProcessExecutor)
        assert ex.workers == 4

    def test_explicit_names_and_instances(self):
        assert isinstance(make_executor("serial"), SerialExecutor)
        assert isinstance(make_executor("process", workers=2), ProcessExecutor)
        ex = SerialExecutor()
        assert make_executor(ex) is ex
        with pytest.raises(ValueError):
            make_executor("threads")

    def test_serial_with_multiple_workers_conflicts(self):
        with pytest.raises(ValueError, match="conflicts"):
            make_executor("serial", workers=8)
        with pytest.raises(ValueError, match="conflicts"):
            make_executor(SerialExecutor(), workers=2)

    def test_executor_instance_is_authoritative(self):
        ex = ProcessExecutor(workers=2)
        assert make_executor(ex, workers=8) is ex

    def test_process_chunking_covers_all_tasks(self, builder, scenarios):
        runner = _campaign(builder, scenarios)
        tasks = runner.tasks()
        ex = ProcessExecutor(workers=2, chunksize=4)
        chunks = ex._chunks(tasks)
        assert [len(c) for c in chunks] == [4, 2]
        flat = [t.index for c in chunks for t in c]
        assert flat == list(range(6))


class TestPicklability:
    """Everything crossing the process boundary must pickle."""

    def test_context_roundtrip(self, builder, scenarios):
        runner = _campaign(builder, scenarios)
        context = pickle.loads(pickle.dumps(runner.context()))
        record = execute_task(context, runner.tasks()[0])
        assert record.injector == "none"

    def test_nn_factory_roundtrip(self):
        model = ILCNN(TINY)
        model.set_training(False)
        factory = pickle.loads(pickle.dumps(nn_agent_factory(model)))
        assert factory.model.config.trunk_dim == TINY.trunk_dim


class TestDeterminism:
    def test_serial_vs_parallel_identical(self, builder, scenarios):
        """The hard invariant: worker count must not change any result.

        Serial Campaign, serial-executor runner and a 2-worker process
        pool must produce identical RunRecord rows, identical per-injector
        metrics and identical summary rows for the same scenario suite
        and seeds.
        """
        serial = Campaign(
            scenarios, autopilot_agent_factory(), INJECTORS, builder=builder
        ).run()
        in_process = _campaign(builder, scenarios, executor="serial").run()
        pooled = _campaign(builder, scenarios, workers=2, executor="process").run()

        serial_rows = [r.to_dict() for r in serial.records]
        assert [r.to_dict() for r in in_process.records] == serial_rows
        assert [r.to_dict() for r in pooled.records] == serial_rows
        assert metrics_by_injector(pooled.records) == metrics_by_injector(serial.records)
        assert summary_frame(pooled.records) == summary_frame(serial.records)

    def test_campaign_workers_kwarg(self, builder, scenarios):
        """Campaign(..., workers=2) routes through the pool, same results."""
        base = Campaign(
            scenarios[:1], autopilot_agent_factory(), {"none": [], "delay": [OutputDelay(8)]},
            builder=builder,
        ).run()
        pooled = Campaign(
            scenarios[:1], autopilot_agent_factory(), {"none": [], "delay": [OutputDelay(8)]},
            builder=builder, workers=2,
        ).run()
        assert [r.to_dict() for r in pooled.records] == [r.to_dict() for r in base.records]


class TestCliWiring:
    def test_workers_flag_parsed(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["campaign", "--workers", "3"])
        assert args.workers == 3

    def test_workers_default_serial(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["sweep-delay"])
        assert args.workers == 1


class TestWarmStart:
    def test_context_carries_deduplicated_town_configs(self, builder, scenarios):
        runner = _campaign(builder, scenarios)
        context = runner.context()
        assert context.warm_configs == (TOWN,)

    def test_init_worker_prewarms_scene_cache(self, builder, scenarios):
        from repro.core.runner import _init_worker
        from repro.sim.builders import SceneCache, SimulationBuilder
        from repro.sim.render import CameraModel

        cache = SceneCache()
        warm_builder = SimulationBuilder(
            camera=CameraModel(width=24, height=16),
            with_lidar=False,
            scene_cache=cache,
        )
        runner = Campaign(
            scenarios, autopilot_agent_factory(), INJECTORS, builder=warm_builder
        )
        _init_worker(runner.context())
        stats = cache.stats()
        assert stats["towns"] == 1 and stats["renderers"] == 1
