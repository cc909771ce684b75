"""Unit tests for :mod:`repro.sim.scenario` and :mod:`repro.sim.builders`."""

import numpy as np
import pytest

from repro.sim.builders import SimulationBuilder
from repro.sim.geometry import Transform, Vec2
from repro.sim.render import CameraModel
from repro.sim.scenario import Mission, Scenario, generate_missions, make_scenarios
from repro.sim.town import GridTownConfig, build_grid_town


@pytest.fixture(scope="module")
def town():
    return build_grid_town(GridTownConfig(rows=3, cols=3))


class TestMission:
    def test_validation(self):
        with pytest.raises(ValueError):
            Mission(Transform(Vec2(0, 0), 0.0), Vec2(1, 1), time_limit_s=0.0)
        with pytest.raises(ValueError):
            Mission(Transform(Vec2(0, 0), 0.0), Vec2(1, 1), time_limit_s=10.0, success_radius=0)

    def test_straight_line_distance(self):
        m = Mission(Transform(Vec2(0, 0), 0.0), Vec2(3, 4), time_limit_s=10.0)
        assert m.straight_line_distance() == pytest.approx(5.0)


class TestGenerateMissions:
    def test_respects_distance_band(self, town):
        rng = np.random.default_rng(0)
        missions = generate_missions(town, 10, rng, min_distance=80, max_distance=200)
        for m in missions:
            manhattan = abs(m.start.position.x - m.goal.x) + abs(m.start.position.y - m.goal.y)
            assert 80 <= manhattan <= 200

    def test_deterministic_per_seed(self, town):
        a = generate_missions(town, 5, np.random.default_rng(7))
        b = generate_missions(town, 5, np.random.default_rng(7))
        assert [m.goal for m in a] == [m.goal for m in b]

    def test_invalid_band_rejected(self, town):
        with pytest.raises(ValueError):
            generate_missions(town, 1, np.random.default_rng(0), 200, 100)

    def test_impossible_band_raises(self, town):
        with pytest.raises(RuntimeError):
            generate_missions(
                town, 3, np.random.default_rng(0), min_distance=5000, max_distance=6000
            )

    def test_route_length_fn_sets_time_limits(self, town):
        def fake_route_length(start, goal):
            return 500.0

        missions = generate_missions(
            town, 3, np.random.default_rng(1), route_length_fn=fake_route_length
        )
        # Time limit from the 500 m "route": 500/5*1.8 + 15
        for m in missions:
            assert m.time_limit_s == pytest.approx(500.0 / 5.0 * 1.8 + 15.0)

    def test_route_length_fn_can_reject(self, town):
        calls = {"n": 0}

        def reject_every_other(start, goal):
            calls["n"] += 1
            return None if calls["n"] % 2 else 150.0

        missions = generate_missions(
            town, 4, np.random.default_rng(2), route_length_fn=reject_every_other
        )
        assert len(missions) == 4


class TestMakeScenarios:
    def test_reproducible_suite(self):
        a = make_scenarios(4, seed=3)
        b = make_scenarios(4, seed=3)
        assert [s.mission.goal for s in a] == [s.mission.goal for s in b]
        assert [s.seed for s in a] == [s.seed for s in b]

    def test_distinct_seeds_per_scenario(self):
        suite = make_scenarios(5, seed=1)
        assert len({s.seed for s in suite}) == 5

    def test_with_seed_copy(self):
        scn = make_scenarios(1, seed=0)[0]
        copy = scn.with_seed(99)
        assert copy.seed == 99
        assert copy.mission == scn.mission


class TestSimulationBuilder:
    def test_town_cached(self):
        builder = SimulationBuilder()
        cfg = GridTownConfig(rows=2, cols=3)
        assert builder.town_for(cfg) is builder.town_for(cfg)

    def test_renderer_cached(self):
        builder = SimulationBuilder()
        cfg = GridTownConfig(rows=2, cols=3)
        assert builder.renderer_for(cfg) is builder.renderer_for(cfg)

    def test_distinct_configs_distinct_towns(self):
        builder = SimulationBuilder()
        t1 = builder.town_for(GridTownConfig(rows=2, cols=3))
        t2 = builder.town_for(GridTownConfig(rows=3, cols=3))
        assert t1 is not t2

    def test_build_episode_spawns_everything(self):
        builder = SimulationBuilder(camera=CameraModel(width=32, height=24))
        scn = make_scenarios(1, seed=5, town_config=GridTownConfig(rows=2, cols=3),
                             n_npc_vehicles=2, n_pedestrians=2)[0]
        handles = builder.build_episode(scn)
        assert handles.world.ego is not None
        roles = [a.role for a in handles.world.actors]
        assert roles.count("npc_vehicle") <= 2
        bundle = handles.sensors.read_frame(handles.world, handles.world.ego, 0)
        assert bundle.image.shape == (24, 32, 3)

    def test_fresh_world_each_episode(self):
        builder = SimulationBuilder()
        scn = make_scenarios(1, seed=5, town_config=GridTownConfig(rows=2, cols=3))[0]
        w1 = builder.build_episode(scn).world
        w2 = builder.build_episode(scn).world
        assert w1 is not w2
        assert w1.town is w2.town  # but the town is shared

    def test_lidar_optional(self):
        scn = make_scenarios(1, seed=5, town_config=GridTownConfig(rows=2, cols=3))[0]
        without = SimulationBuilder(with_lidar=False).build_episode(scn)
        assert without.sensors.lidar is None
        with_l = SimulationBuilder(with_lidar=True).build_episode(scn)
        assert with_l.sensors.lidar is not None

    def test_episode_seeding_reproducible(self):
        builder = SimulationBuilder()
        scn = make_scenarios(
            1, seed=5, town_config=GridTownConfig(rows=2, cols=3), n_npc_vehicles=3
        )[0]
        w1 = builder.build_episode(scn).world
        w2 = builder.build_episode(scn).world
        pos1 = [(a.position.x, a.position.y) for a in w1.actors]
        pos2 = [(a.position.x, a.position.y) for a in w2.actors]
        assert pos1 == pos2


class TestSceneCache:
    def test_process_cache_shared_across_builders(self):
        from repro.sim.builders import SimulationBuilder, process_scene_cache

        cfg = GridTownConfig(rows=2, cols=3)
        a = SimulationBuilder()
        b = SimulationBuilder()
        assert a.scene_cache is b.scene_cache is process_scene_cache()
        assert a.town_for(cfg) is b.town_for(cfg)
        assert a.renderer_for(cfg) is b.renderer_for(cfg)

    def test_private_cache_isolates(self):
        from repro.sim.builders import SceneCache, SimulationBuilder

        cfg = GridTownConfig(rows=2, cols=3)
        private = SceneCache()
        a = SimulationBuilder(scene_cache=private)
        b = SimulationBuilder()
        assert a.town_for(cfg) is not b.town_for(cfg)
        assert a.town_for(cfg) is a.town_for(cfg)

    def test_camera_config_keys_renderers_separately(self):
        from repro.sim.builders import SceneCache, SimulationBuilder
        from repro.sim.render import CameraModel

        cfg = GridTownConfig(rows=2, cols=3)
        cache = SceneCache()
        small = SimulationBuilder(
            camera=CameraModel(width=24, height=16), scene_cache=cache
        )
        big = SimulationBuilder(
            camera=CameraModel(width=48, height=32), scene_cache=cache
        )
        assert small.renderer_for(cfg) is not big.renderer_for(cfg)
        # One town serves both renderers.
        assert small.town_for(cfg) is big.town_for(cfg)

    def test_lru_eviction_bounded(self):
        from repro.sim.builders import SceneCache

        cache = SceneCache(max_entries=2)
        configs = [GridTownConfig(rows=2, cols=c) for c in (3, 4, 5)]
        towns = [cache.town(c) for c in configs]
        stats = cache.stats()
        assert stats["towns"] == 2
        assert stats["misses"] == 3
        # Oldest evicted: rebuilding it is a miss producing a new object.
        assert cache.town(configs[0]) is not towns[0]

    def test_pickled_builder_drops_cache_but_rebuilds_equal_scenes(self):
        import pickle

        from repro.sim.builders import SceneCache, SimulationBuilder

        cfg = GridTownConfig(rows=2, cols=3)
        builder = SimulationBuilder(scene_cache=SceneCache())
        town = builder.town_for(cfg)
        clone = pickle.loads(pickle.dumps(builder))
        # The clone re-derives scene state (here: via the process cache).
        rebuilt = clone.town_for(cfg)
        assert rebuilt is not town
        assert rebuilt.name == town.name
        assert len(rebuilt.buildings) == len(town.buildings)

    def test_builder_pickle_stays_small_when_warm(self):
        import pickle

        from repro.sim.builders import SimulationBuilder

        builder = SimulationBuilder()
        builder.renderer_for(GridTownConfig(rows=2, cols=3))  # warm the cache
        # Rasterised textures are megabytes; the builder must not ship them.
        assert len(pickle.dumps(builder)) < 10_000
