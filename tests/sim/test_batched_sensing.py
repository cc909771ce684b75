"""An E-slot of batched sensing equals E singleton calls, bit for bit.

Sensing has one path: the episode multiplexer stacks per-episode sensor
work into ``(E, ...)`` slabs (`repro.sim.geometry.batch_ray_hits_multi`,
`repro.sim.render.Renderer.render_batch`,
`repro.sim.sensors.read_frames_batch`), and a serial episode runs the
same kernels with ``E = 1``.  The multiplexed backend's byte-identity
guarantee therefore rests on an episode's output not depending on its
slot neighbours, so every comparison here is exact (``array_equal`` on
float arrays) and the RNG end states are compared too: a slot that
consumed a different number of draws would silently diverge every frame
after the first.
"""

import copy
from dataclasses import replace

import numpy as np
import pytest

from repro.sim.builders import SimulationBuilder
from repro.sim.geometry import Vec2, batch_ray_hits_multi, pad_box_packs
from repro.sim.render import CameraModel
from repro.sim.sensors import Camera, Lidar2D, SensorSuite, read_frames_batch
from repro.sim.physics import VehicleControl
from repro.sim.scenario import make_scenarios
from repro.sim.town import GridTownConfig


def _rng_state(world):
    return copy.deepcopy(world.rng.bit_generator.state)


def _episodes(n, with_lidar=True, weathers=("ClearNoon", "HardRainNoon", "FoggyNoon")):
    """``n`` live episodes on one shared town/renderer, advanced a few
    frames so actors have moved off their spawn poses."""
    builder = SimulationBuilder(with_lidar=with_lidar)
    scenarios = make_scenarios(
        n,
        seed=5,
        town_config=GridTownConfig(rows=3, cols=3),
        n_npc_vehicles=3,
        n_pedestrians=2,
        min_distance=40.0,
        max_distance=200.0,
    )
    episodes = []
    for i, scenario in enumerate(scenarios):
        scenario = replace(scenario, weather=weathers[i % len(weathers)])
        handles = builder.build_episode(scenario)
        world = handles.world
        ego = world.actors[0]
        for _ in range(3):
            ego.apply_control(VehicleControl(throttle=0.6, steer=0.05 * i))
            world.tick()
        episodes.append((handles.sensors, world, ego))
    return episodes


def _reset(episodes, states):
    for (_, world, _), state in zip(episodes, states):
        world.rng.bit_generator.state = copy.deepcopy(state)


class TestBatchRayHitsMulti:
    def test_matches_per_episode_kernel_bitwise(self):
        rng = np.random.default_rng(42)
        origins, dir_stack, packs = [], [], []
        n_rays = 17
        for e in range(4):
            origins.append(Vec2(*rng.uniform(-50, 50, size=2)))
            angles = rng.uniform(0, 2 * np.pi, size=n_rays)
            dir_stack.append(np.stack([np.cos(angles), np.sin(angles)], axis=1))
            n_boxes = int(rng.integers(0, 6))  # ragged on purpose, incl. empty
            boxes = np.empty((n_boxes, 6))
            boxes[:, 0:2] = rng.uniform(-40, 40, size=(n_boxes, 2))
            yaw = rng.uniform(0, 2 * np.pi, size=n_boxes)
            boxes[:, 2] = np.cos(yaw)
            boxes[:, 3] = np.sin(yaw)
            boxes[:, 4:6] = rng.uniform(0.5, 4.0, size=(n_boxes, 2))
            packs.append(boxes)
        serial = [
            batch_ray_hits_multi(np.array([[o.x, o.y]]), dirs[None], boxes[None], 60.0)[0]
            for o, dirs, boxes in zip(origins, dir_stack, packs)
        ]
        batched = batch_ray_hits_multi(
            np.array([[o.x, o.y] for o in origins]),
            np.stack(dir_stack),
            pad_box_packs(packs),
            60.0,
        )
        assert batched.shape == (4, n_rays)
        for e in range(4):
            assert np.array_equal(batched[e], serial[e])

    def test_pad_box_packs_pads_with_guaranteed_misses(self):
        packs = [np.zeros((0, 6)), np.array([[1.0, 2.0, 1.0, 0.0, 2.0, 1.0]])]
        packed = pad_box_packs(packs)
        assert packed.shape == (2, 1, 6)
        # The all-empty episode is padded with a box no ray can reach.
        ranges = batch_ray_hits_multi(
            np.zeros((2, 2)),
            np.tile(np.array([[1.0, 0.0]]), (2, 1, 1)),
            packed,
            50.0,
        )
        assert ranges[0, 0] == 50.0  # pure miss: clamped to max range


def _assert_slot_equals_singletons(episodes):
    """``read_frames_batch`` over ``episodes`` equals one ``read_frame``
    per episode: same bundles, same RNG end states."""
    states = [_rng_state(world) for _, world, _ in episodes]
    singles = [suite.read_frame(world, ego, world.frame) for suite, world, ego in episodes]
    single_states = [_rng_state(world) for _, world, _ in episodes]
    _reset(episodes, states)
    batched = read_frames_batch(
        [(suite, world, ego, world.frame) for suite, world, ego in episodes]
    )
    for (suite, _, _), a, b in zip(episodes, singles, batched):
        assert a.frame == b.frame
        assert np.array_equal(a.image, b.image)
        assert a.gps == b.gps
        assert a.speed == b.speed
        assert a.heading == b.heading
        if suite.lidar is None:
            assert a.lidar is None and b.lidar is None
        else:
            assert np.array_equal(a.lidar, b.lidar)
    # Same number of RNG draws in the same order — the next frame
    # would diverge otherwise even with identical outputs here.
    for (_, world, _), state in zip(episodes, single_states):
        assert world.rng.bit_generator.state == state


class TestReadFramesBatch:
    @pytest.mark.parametrize("with_lidar", [True, False])
    def test_bitwise_identical_to_serial_reads(self, with_lidar):
        _assert_slot_equals_singletons(_episodes(3, with_lidar=with_lidar))

    def test_mixed_suites_one_episode_groups(self):
        # One slot mixing a shared renderer/scan shape (a group of two)
        # with one-episode groups: no LIDAR, another scan shape, and
        # another camera.  Every group size runs the same kernels.
        episodes = _episodes(4)
        town_config = GridTownConfig(rows=3, cols=3)
        small = SimulationBuilder(camera=CameraModel(width=32, height=24))
        suite, world, ego = episodes[1]
        episodes[1] = (SensorSuite(suite.camera, lidar=None), world, ego)
        suite, world, ego = episodes[2]
        episodes[2] = (
            SensorSuite(
                Camera(small.renderer_for(town_config)),
                lidar=Lidar2D(n_rays=9, fov_deg=90.0),
            ),
            world,
            ego,
        )
        _assert_slot_equals_singletons(episodes)

    def test_empty_batch(self):
        assert read_frames_batch([]) == []


class TestRenderBatch:
    def test_render_batch_matches_render_bitwise(self):
        episodes = _episodes(3)
        renderer = episodes[0][0].camera.renderer
        assert all(s.camera.renderer is renderer for s, _, _ in episodes)
        states = [_rng_state(world) for _, world, _ in episodes]
        serial = [
            renderer.render(
                ego.transform, world.other_actors(ego.id), world.weather, world.rng
            )
            for _, world, ego in episodes
        ]
        serial_states = [_rng_state(world) for _, world, _ in episodes]
        _reset(episodes, states)
        batched = renderer.render_batch(
            [
                (ego.transform, world.other_actors(ego.id), world.weather, world.rng)
                for _, world, ego in episodes
            ]
        )
        for a, b in zip(serial, batched):
            assert np.array_equal(a, b)
        for (_, world, _), state in zip(episodes, serial_states):
            assert world.rng.bit_generator.state == state
