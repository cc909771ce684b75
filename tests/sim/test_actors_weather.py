"""Unit tests for :mod:`repro.sim.actors` and :mod:`repro.sim.weather`."""

import math

import numpy as np
import pytest

from repro.sim.actors import NPCVehicle, Pedestrian, Vehicle
from repro.sim.geometry import Transform, Vec2
from repro.sim.physics import VehicleControl, VehicleSpec
from repro.sim.town import GridTownConfig, SurfaceType, build_grid_town
from repro.sim.weather import PRESETS, Weather, get_preset
from repro.sim.world import World


@pytest.fixture(scope="module")
def town():
    return build_grid_town(GridTownConfig(rows=3, cols=3))


@pytest.fixture
def world(town):
    return World(town, seed=3)


class TestWeather:
    def test_presets_include_paper_conditions(self):
        # CARLA's sunny / rainy / foggy trio must exist.
        assert "ClearNoon" in PRESETS
        assert any("Rain" in name for name in PRESETS)
        assert any("Fog" in name for name in PRESETS)

    def test_get_preset_unknown_raises_with_choices(self):
        with pytest.raises(KeyError, match="ClearNoon"):
            get_preset("SnowStorm")

    def test_validation_fog_range(self):
        with pytest.raises(ValueError):
            Weather("bad", fog_density=1.5)

    def test_validation_brightness(self):
        with pytest.raises(ValueError):
            Weather("bad", brightness=0.0)

    def test_presets_are_frozen(self):
        with pytest.raises(AttributeError):
            PRESETS["ClearNoon"].fog_density = 0.9  # type: ignore[misc]


class TestVehicleActor:
    def test_unique_ids(self):
        a = Vehicle(Transform(Vec2(0, 0), 0.0))
        b = Vehicle(Transform(Vec2(0, 0), 0.0))
        assert a.id != b.id

    def test_tick_integrates_and_tracks_odometer(self, world):
        v = Vehicle(Transform(Vec2(50, 50), 0.0))
        v.apply_control(VehicleControl(throttle=1.0))
        for _ in range(30):
            v.tick(world, world.dt, world.rng)
        assert v.position.x > 50.0
        assert v.odometer_m == pytest.approx(v.position.x - 50.0, rel=1e-6)

    def test_bounding_box_tracks_pose(self):
        v = Vehicle(Transform(Vec2(5, 5), math.pi / 2), VehicleSpec(length=4.0, width=2.0))
        box = v.bounding_box()
        assert box.contains_point(Vec2(5, 6.9))
        assert not box.contains_point(Vec2(6.9, 5))

    def test_teleport(self):
        v = Vehicle(Transform(Vec2(0, 0), 0.0))
        v.teleport(Transform(Vec2(9, 9), 1.0), speed=3.0)
        assert v.position.distance_to(Vec2(9, 9)) < 1e-9
        assert v.speed() == 3.0


class TestNPCVehicle:
    def _npc(self, town, speed=6.0):
        lane = town.roads[0].lane(+1)
        return NPCVehicle(lane, 10.0, town, target_speed=speed)

    def test_follows_lane(self, town):
        world = World(town, seed=1)
        npc = self._npc(town)
        world.add_actor(npc)
        for _ in range(15 * 8):
            world.tick()
        # It moved, stayed on pavement, and went in the lane direction.
        assert npc.odometer_m > 20.0
        cls = town.classify_points(np.array([[npc.position.x, npc.position.y]]))[0]
        assert cls == SurfaceType.ROAD

    def test_traverses_junction_without_leaving_road(self, town):
        world = World(town, seed=2)
        npc = self._npc(town)
        world.add_actor(npc)
        offroad_frames = 0
        for _ in range(15 * 30):
            world.tick()
            cls = town.classify_points(np.array([[npc.position.x, npc.position.y]]))[0]
            if cls != SurfaceType.ROAD:
                offroad_frames += 1
        assert npc.odometer_m > 100.0
        # Tolerate brief clips at junction corners, not systematic off-roading.
        assert offroad_frames < 15

    def test_brakes_for_vehicle_ahead(self, town):
        world = World(town, seed=3)
        lane = town.roads[0].lane(+1)
        npc = NPCVehicle(lane, 10.0, town, target_speed=8.0)
        world.add_actor(npc)
        blocker_wp = lane.waypoint_at(26.0)
        blocker = Vehicle(Transform(blocker_wp.position, blocker_wp.yaw))
        world.add_actor(blocker)
        for _ in range(15 * 6):
            world.tick()
        assert not npc.bounding_box().overlaps(blocker.bounding_box())
        assert npc.speed() < 1.0  # stopped behind the blocker

    def test_path_length_estimate_tracks_the_scan(self, town):
        """``_extend_path`` decides on ``|pos - path[0]| + _tail`` away
        from 40 m and scans only near it; its proof needs ``_seg`` to hold
        the scan's own summands and the estimate to stay far inside the
        1e-6 m band it leaves to the scan."""
        world = World(town, seed=11)
        world.populate(6, 3)
        npcs = [a for a in world.actors if isinstance(a, NPCVehicle)]
        assert npcs
        for _ in range(15 * 40):
            world.tick()
            for npc in npcs:
                path = npc._path
                assert len(npc._seg) == len(path) - 1
                for (ax, ay), (bx, by), step in zip(path, path[1:], npc._seg):
                    assert step == math.hypot(ax - bx, ay - by)
                ax, ay = path[0]
                estimate = math.hypot(npc._x - ax, npc._y - ay) + npc._tail
                assert abs(estimate - npc._path_length_ahead()) < 1e-9

    def test_deterministic_under_same_seed(self, town):
        def run():
            world = World(town, seed=42)
            npc = self._npc(town)
            world.add_actor(npc)
            for _ in range(100):
                world.tick()
            return (npc.position.x, npc.position.y, npc.yaw)

        assert run() == run()


class TestPedestrian:
    def test_walks(self, town):
        world = World(town, seed=5)
        lane = town.roads[0].lane(+1)
        base = lane.centerline.point_at(20.0)
        ped = Pedestrian(Transform(Vec2(base.x, base.y + 6.0), 0.0), town)
        world.add_actor(ped)
        start = ped.position
        for _ in range(15 * 10):
            world.tick()
        assert ped.position.distance_to(start) > 2.0

    def test_speed_reflects_goal_state(self, town):
        ped = Pedestrian(Transform(Vec2(40, 46), 0.0), town)
        assert ped.speed() == 0.0  # no goal yet

    def test_crossing_goal_lands_on_far_side(self, town):
        lane = town.roads[0].lane(+1)
        base = lane.centerline.point_at(20.0)
        road = lane.road
        near_side = Vec2(base.x, base.y - road.half_width - 1.0)
        ped = Pedestrian(Transform(near_side, 0.0), town)
        goal = ped._crossing_goal()
        # Goal must be on the other side of the road centreline.
        road_mid = road.centerline.point_at(20.0)
        assert (near_side.y - road_mid.y) * (goal.y - road_mid.y) < 0


class TestWorld:
    def test_tick_advances_frame_and_time(self, world):
        world.tick()
        world.tick()
        assert world.frame == 2
        assert world.time_s == pytest.approx(2 / 15.0)

    def test_single_ego_enforced(self, world):
        world.spawn_ego(Transform(Vec2(40, 38.25), 0.0))
        with pytest.raises(RuntimeError):
            world.spawn_ego(Transform(Vec2(50, 38.25), 0.0))

    def test_populate_respects_clearance(self, town):
        world = World(town, seed=7)
        ego_pos = Vec2(40, 78.25)
        world.spawn_ego(Transform(ego_pos, 0.0))
        world.populate(6, 4, keep_clear=ego_pos, clear_radius=25.0)
        vehicles = [a for a in world.actors if a.role == "npc_vehicle"]
        assert vehicles, "should place some NPC vehicles"
        for v in vehicles:
            assert v.position.distance_to(ego_pos) >= 25.0

    def test_populate_counts(self, town):
        world = World(town, seed=8)
        world.populate(5, 7)
        roles = [a.role for a in world.actors]
        assert roles.count("npc_vehicle") == 5
        assert roles.count("pedestrian") <= 7  # clearance may skip a few

    def test_actors_near(self, town):
        world = World(town, seed=9)
        v = world.spawn_ego(Transform(Vec2(40, 78.25), 0.0))
        world.populate(4, 0, keep_clear=v.position, clear_radius=15.0)
        near = world.actors_near(v.position, 1.0, exclude_id=v.id)
        assert near == []

    def test_invalid_fps(self, town):
        with pytest.raises(ValueError):
            World(town, fps=0.0)

    def test_set_weather_by_name(self, world):
        world.set_weather("FoggyNoon")
        assert world.weather.fog_density > 0.0
