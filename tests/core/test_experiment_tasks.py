"""Tests for experiment orchestration (sweeps, resumable campaigns) and task tiers."""

import json

import numpy as np
import pytest

from repro.agent import autopilot_agent_factory
from repro.agent.planner import Command, RoutePlanner
from repro.core import Campaign, summary_frame, sweep
from repro.core.faults import GaussianNoise, OutputDelay
from repro.sim import Task, TASK_SPECS, make_task_scenarios
from repro.sim.builders import SimulationBuilder
from repro.sim.render import CameraModel
from repro.sim.town import GridTownConfig, build_grid_town

TOWN = GridTownConfig(rows=2, cols=3)


@pytest.fixture(scope="module")
def builder():
    return SimulationBuilder(camera=CameraModel(width=24, height=16), with_lidar=False)


class TestSweep:
    def test_builds_named_injectors(self):
        injectors = sweep(lambda k: OutputDelay(int(k)), [5, 10], name_format="delay-{value:g}")
        assert list(injectors) == ["none", "delay-5", "delay-10"]
        assert injectors["none"] == []
        assert injectors["delay-5"][0].delay_frames == 5

    def test_without_baseline(self):
        injectors = sweep(lambda s: GaussianNoise(s), [0.1], include_baseline=False)
        assert "none" not in injectors

    def test_each_value_gets_fresh_instance(self):
        injectors = sweep(lambda s: GaussianNoise(s), [0.1, 0.2])
        a = injectors["0.1"][0]
        b = injectors["0.2"][0]
        assert a is not b
        assert a.sigma != b.sigma


class TestStudy:
    """A campaign used as a resumable study: checkpoint, resume, metrics."""

    def _scenarios(self):
        from repro.core import standard_scenarios

        return standard_scenarios(
            2, seed=9, town_config=TOWN, min_distance=60, max_distance=160
        )

    def test_validation(self, builder):
        with pytest.raises(ValueError):
            Campaign([], autopilot_agent_factory(), {"none": []}, builder=builder)
        with pytest.raises(ValueError):
            Campaign(self._scenarios(), autopilot_agent_factory(), {}, builder=builder)

    def test_run_executes_all(self, builder):
        study = Campaign(
            self._scenarios(),
            autopilot_agent_factory(),
            {"none": [], "delay": [OutputDelay(8)]},
            builder=builder,
        )
        result = study.run()
        assert len(result.records) == 4
        assert study.pending() == []
        assert set(result.metrics()) == {"none", "delay"}

    def test_checkpoint_resume_skips_done(self, builder, tmp_path):
        path = tmp_path / "study.jsonl"
        scenarios = self._scenarios()
        study1 = Campaign(
            scenarios[:1], autopilot_agent_factory(), {"none": []},
            checkpoint_path=path, builder=builder,
        )
        study1.run()
        assert path.exists()
        assert len(path.read_text().splitlines()) == 1

        # A second study over a superset resumes: only the new work runs.
        study2 = Campaign(
            scenarios, autopilot_agent_factory(), {"none": []},
            checkpoint_path=path, builder=builder,
        )
        assert len(study2.grid_records()) == 1  # loaded from checkpoint
        assert len(study2.pending()) == 1
        records = study2.run().records
        assert len(records) == 2
        assert len(path.read_text().splitlines()) == 2

    def test_checkpoint_rows_are_valid_records(self, builder, tmp_path):
        path = tmp_path / "study.jsonl"
        study = Campaign(
            self._scenarios()[:1], autopilot_agent_factory(), {"none": []},
            checkpoint_path=path, builder=builder,
        )
        study.run()
        row = json.loads(path.read_text().splitlines()[0])
        assert row["injector"] == "none"
        assert "distance_km" in row


class TestSummaryFrame:
    def test_rows_per_injector(self, builder):
        from repro.core import standard_scenarios

        scenarios = standard_scenarios(
            1, seed=9, town_config=TOWN, min_distance=60, max_distance=160
        )
        study = Campaign(
            scenarios, autopilot_agent_factory(),
            {"none": [], "delay": [OutputDelay(8)]}, builder=builder,
        )
        rows = summary_frame(study.run().records)
        assert [r["injector"] for r in rows] == ["none", "delay"]
        assert all("msr_percent" in r and "vpk" in r for r in rows)
        assert json.dumps(rows)  # fully serialisable


class TestTaskTiers:
    def test_specs_cover_all_tasks(self):
        assert set(TASK_SPECS) == set(Task)

    @staticmethod
    def _lr_turns(route):
        turning = {Command.LEFT, Command.RIGHT}
        turns, prev = 0, False
        for c in route.commands:
            now = c in turning
            if now and not prev:
                turns += 1
            prev = now
        return turns

    def test_straight_has_no_turns(self):
        scenarios = make_task_scenarios(Task.STRAIGHT, 3, seed=1, town_config=TOWN)
        town = build_grid_town(TOWN)
        planner = RoutePlanner(town)
        for scn in scenarios:
            route = planner.plan(
                scn.mission.start.position, scn.mission.goal,
                start_yaw=scn.mission.start.yaw,
            )
            assert self._lr_turns(route) == 0, scn.name

    def test_one_turn_has_exactly_one(self):
        scenarios = make_task_scenarios(Task.ONE_TURN, 3, seed=2, town_config=TOWN)
        town = build_grid_town(TOWN)
        planner = RoutePlanner(town)
        for scn in scenarios:
            route = planner.plan(
                scn.mission.start.position, scn.mission.goal,
                start_yaw=scn.mission.start.yaw,
            )
            assert self._lr_turns(route) == 1, scn.name

    def test_dynamic_navigation_has_traffic(self):
        scenarios = make_task_scenarios(
            Task.DYNAMIC_NAVIGATION, 2, seed=3, town_config=TOWN
        )
        for scn in scenarios:
            assert scn.n_npc_vehicles > 0
            assert scn.n_pedestrians > 0

    def test_accepts_string_task(self):
        scenarios = make_task_scenarios("straight", 1, seed=4, town_config=TOWN)
        assert scenarios[0].name.startswith("straight")

    def test_rejects_unknown_task(self):
        with pytest.raises(ValueError):
            make_task_scenarios("teleportation", 1, town_config=TOWN)

    def test_deterministic(self):
        a = make_task_scenarios(Task.NAVIGATION, 2, seed=5, town_config=TOWN)
        b = make_task_scenarios(Task.NAVIGATION, 2, seed=5, town_config=TOWN)
        assert [s.mission.goal for s in a] == [s.mission.goal for s in b]
