"""Unit tests for :mod:`repro.sim.render` and :mod:`repro.sim.sensors`."""

import math

import numpy as np
import pytest

from repro.sim.actors import Pedestrian, Vehicle
from repro.sim.geometry import Transform, Vec2
from repro.sim.render import SURFACE_COLORS, CameraModel, Renderer, TownTexture
from repro.sim.sensors import GPS, Camera, Lidar2D, SensorFrame, SensorSuite, Speedometer
from repro.sim.town import GridTownConfig, SurfaceType, build_grid_town
from repro.sim.weather import get_preset
from repro.sim.world import World


@pytest.fixture(scope="module")
def town():
    return build_grid_town(GridTownConfig(rows=2, cols=3))


@pytest.fixture(scope="module")
def renderer(town):
    return Renderer(town, CameraModel(width=64, height=48))


@pytest.fixture
def ego_pose(town):
    wp = town.spawn_points()[0]
    return Transform(wp.position, wp.yaw)


class TestCameraModel:
    def test_rejects_tiny_resolution(self):
        with pytest.raises(ValueError):
            CameraModel(width=4, height=4)

    def test_rejects_extreme_fov(self):
        with pytest.raises(ValueError):
            CameraModel(fov_deg=170.0)

    @pytest.mark.parametrize("max_depth", [0.0, -5.0, math.nan, math.inf])
    def test_rejects_degenerate_max_depth(self, max_depth):
        with pytest.raises(ValueError, match="max_depth"):
            CameraModel(max_depth=max_depth)

    def test_focal_length(self):
        cam = CameraModel(width=100, fov_deg=90.0)
        assert cam.focal_px == pytest.approx(50.0)


class TestTownTexture:
    def test_texture_contains_all_surfaces(self, town):
        tex = TownTexture(town, resolution=0.5)
        flat = tex.texture.reshape(-1, 3)
        for color in SURFACE_COLORS.values():
            assert np.any(np.all(flat == color, axis=1)), f"missing surface color {color}"

    def test_markings_stamped(self, town):
        tex = TownTexture(town, resolution=0.25)
        flat = tex.texture.reshape(-1, 3)
        yellow = np.array([200, 180, 40])
        assert np.any(np.all(flat == yellow, axis=1)), "centre lines missing"

    def test_sample_inside_matches_classification(self, town):
        tex = TownTexture(town, resolution=0.25)
        lane = town.roads[0].lane(+1)
        p = lane.centerline.point_at(lane.length / 2)
        color = tex.sample(np.array([[p.x, p.y]]))[0]
        road = np.array(SURFACE_COLORS[int(SurfaceType.ROAD)])
        marking_like = color.max() > 100  # the sample may land on paint
        assert marking_like or np.array_equal(color, road)

    def test_sample_outside_is_grass(self, town):
        tex = TownTexture(town, resolution=0.5)
        color = tex.sample(np.array([[-1000.0, -1000.0]]))[0]
        assert tuple(color) == SURFACE_COLORS[int(SurfaceType.OFFROAD)]

    def test_invalid_resolution(self, town):
        with pytest.raises(ValueError):
            TownTexture(town, resolution=0.0)


class TestRenderer:
    def test_output_shape_dtype(self, renderer, ego_pose):
        img = renderer.render(ego_pose, [], None, np.random.default_rng(0))
        assert img.shape == (48, 64, 3)
        assert img.dtype == np.uint8

    def test_deterministic_given_rng(self, renderer, ego_pose):
        a = renderer.render(ego_pose, [], None, np.random.default_rng(5))
        b = renderer.render(ego_pose, [], None, np.random.default_rng(5))
        assert np.array_equal(a, b)

    def test_sky_above_horizon(self):
        # Building-free town: the whole top row must be sky (blue dominates).
        town = build_grid_town(GridTownConfig(rows=2, cols=3, with_buildings=False))
        renderer = Renderer(town, CameraModel(width=64, height=48))
        wp = town.spawn_points()[0]
        img = renderer.render(Transform(wp.position, wp.yaw), [])
        top = img[0].astype(int)
        assert (top[:, 2] > top[:, 0]).mean() > 0.9

    def test_road_visible_ahead(self, renderer, town, ego_pose):
        img = renderer.render(ego_pose, [])
        # Bottom-centre pixels look at the road right in front: dark asphalt.
        patch = img[-6:, 24:40].reshape(-1, 3).astype(int)
        road = np.array(SURFACE_COLORS[int(SurfaceType.ROAD)], dtype=int)
        close = (np.abs(patch - road).sum(axis=1) < 90).mean()
        assert close > 0.5, f"road not visible ahead: {patch.mean(axis=0)}"

    def test_actor_changes_image(self, renderer, ego_pose):
        base = renderer.render(ego_pose, [])
        blocker_pos = ego_pose.to_world(Vec2(10.0, 0.0))
        blocker = Vehicle(Transform(blocker_pos, ego_pose.yaw))
        with_actor = renderer.render(ego_pose, [blocker])
        assert not np.array_equal(base, with_actor)
        # The car ahead must occupy a meaningful chunk of the view.
        assert (base != with_actor).any(axis=2).mean() > 0.01

    def test_actor_behind_invisible(self, renderer, ego_pose):
        base = renderer.render(ego_pose, [])
        behind_pos = ego_pose.to_world(Vec2(-10.0, 0.0))
        behind = Vehicle(Transform(behind_pos, ego_pose.yaw))
        img = renderer.render(ego_pose, [behind])
        assert np.array_equal(base, img)

    def test_fog_washes_out_distance(self, town, ego_pose):
        renderer = Renderer(town, CameraModel(width=64, height=48))
        clear = renderer.render(ego_pose, [], get_preset("ClearNoon"))
        foggy = renderer.render(ego_pose, [], get_preset("FoggyNoon"))
        # Fog reduces contrast in the horizon band.
        band_clear = clear[20:26].astype(float).std()
        band_foggy = foggy[20:26].astype(float).std()
        assert band_foggy < band_clear

    def test_night_darker(self, renderer, ego_pose):
        day = renderer.render(ego_pose, [], get_preset("ClearNoon"))
        night = renderer.render(ego_pose, [], get_preset("Night"))
        assert night.mean() < day.mean() * 0.7

    def test_rain_streaks_change_pixels(self, renderer, ego_pose):
        dry = renderer.render(ego_pose, [], get_preset("ClearNoon"), np.random.default_rng(1))
        wet = renderer.render(ego_pose, [], get_preset("HardRainNoon"), np.random.default_rng(1))
        assert not np.array_equal(dry, wet)


class TestSensors:
    @pytest.fixture
    def world_with_ego(self, town):
        world = World(town, seed=11)
        wp = town.spawn_points()[0]
        ego = world.spawn_ego(Transform(wp.position, wp.yaw))
        return world, ego

    def test_gps_noise_scales_with_weather(self, world_with_ego):
        world, ego = world_with_ego
        gps = GPS(noise_std=1.0)
        clear_err, foggy_err = [], []
        rng = np.random.default_rng(0)
        world.set_weather("ClearNoon")
        for _ in range(300):
            fix = gps.read(world, ego, rng)
            clear_err.append(math.hypot(fix[0] - ego.position.x, fix[1] - ego.position.y))
        world.set_weather("FoggyNoon")
        for _ in range(300):
            fix = gps.read(world, ego, rng)
            foggy_err.append(math.hypot(fix[0] - ego.position.x, fix[1] - ego.position.y))
        assert np.mean(foggy_err) > np.mean(clear_err)

    def test_gps_zero_noise_exact(self, world_with_ego):
        world, ego = world_with_ego
        fix = GPS(noise_std=0.0).read(world, ego, np.random.default_rng(0))
        assert fix == (ego.position.x, ego.position.y)

    def test_gps_rejects_negative_noise(self):
        with pytest.raises(ValueError):
            GPS(noise_std=-1.0)

    def test_speedometer_tracks_speed(self, world_with_ego):
        world, ego = world_with_ego
        ego.state = ego.model.teleport(ego.state, ego.transform, speed=10.0)
        reading = Speedometer(noise_frac=0.0).read(world, ego, np.random.default_rng(0))
        assert reading == pytest.approx(10.0)

    def test_lidar_detects_vehicle_ahead(self, world_with_ego):
        world, ego = world_with_ego
        blocker_pos = ego.transform.to_world(Vec2(12.0, 0.0))
        world.add_actor(Vehicle(Transform(blocker_pos, ego.yaw)))
        lidar = Lidar2D(n_rays=31, fov_deg=90.0, max_range=40.0)
        ranges = lidar.read(world, ego, np.random.default_rng(0))
        centre = ranges[len(ranges) // 2]
        assert centre == pytest.approx(12.0 - 2.25, abs=0.6)  # minus half lengths

    def test_lidar_max_range_when_clear(self, town):
        world = World(town, seed=12)
        wp = town.spawn_points()[0]
        ego = world.spawn_ego(Transform(wp.position, wp.yaw))
        lidar = Lidar2D(n_rays=5, fov_deg=20.0, max_range=15.0)
        ranges = lidar.read(world, ego, np.random.default_rng(0))
        assert np.all(ranges <= 15.0)
        assert ranges.shape == (5,)

    def test_lidar_ray_angles_left_to_right(self):
        lidar = Lidar2D(n_rays=3, fov_deg=90.0)
        angles = lidar.ray_angles()
        assert angles[0] > angles[-1]
        assert angles[1] == pytest.approx(0.0)

    def test_sensor_suite_bundle(self, town, renderer):
        world = World(town, seed=13)
        wp = town.spawn_points()[0]
        ego = world.spawn_ego(Transform(wp.position, wp.yaw))
        suite = SensorSuite(Camera(renderer), GPS(), Speedometer(), Lidar2D(n_rays=7))
        bundle = suite.read_frame(world, ego, 5)
        assert bundle.frame == 5
        assert bundle.image.shape == (48, 64, 3)
        assert bundle.lidar is not None and bundle.lidar.shape == (7,)
        assert math.isfinite(bundle.speed)

    def test_sensor_frame_copy_is_deep_enough(self, town, renderer):
        world = World(town, seed=14)
        wp = town.spawn_points()[0]
        ego = world.spawn_ego(Transform(wp.position, wp.yaw))
        suite = SensorSuite(Camera(renderer))
        bundle = suite.read_frame(world, ego, 0)
        clone = bundle.copy()
        clone.image[:] = 0
        assert bundle.image.any(), "copy must not share image memory"
