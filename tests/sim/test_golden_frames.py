"""Golden-frame regression tests for the sensor hot path.

The baselines are SHA-256 digests of raw output buffers captured from
the pre-vectorisation scalar renderer and LIDAR; they are the scalar
reference that the single, batched sensing path must reproduce bit for
bit: same RNG draws, same paint order, same pixels.  These tests render
a fixed set of scenes — chosen to cover every branch of the hot path
(billboards, fog, rain streaks including overlapping ones, night
brightness, semantic/depth layers, LIDAR) — one view per call
(``E = 1``), and the RGB views once more together in one
``render_batch`` slot (``E = 6``).

Regenerate the baselines (only after an *intentional* visual change) with:

    PYTHONPATH=src python tests/sim/test_golden_frames.py --regen
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.sim.actors import Pedestrian, Vehicle
from repro.sim.geometry import Transform, Vec2
from repro.sim.render import CameraModel, Renderer
from repro.sim.sensors import Lidar2D
from repro.sim.town import GridTownConfig, build_grid_town
from repro.sim.weather import get_preset
from repro.sim.world import World

BASELINE_PATH = Path(__file__).parent / "golden_frames.json"

#: Fixed scene configuration every golden frame derives from.
TOWN_CONFIG = GridTownConfig(rows=3, cols=3)
CAMERA = CameraModel()  # the default 96x64 hood camera


def _digest(arr: np.ndarray) -> str:
    return hashlib.sha256(arr.tobytes()).hexdigest()


def _scene():
    """Deterministic town + ego pose + actor set used by every frame."""
    town = build_grid_town(TOWN_CONFIG)
    wp = town.spawn_points()[0]
    ego_pose = Transform(wp.position, wp.yaw)
    actors = [
        # A car dead ahead, a turned car off to the left, a pedestrian on
        # the right — exercises near/far sorting and oblique billboards.
        Vehicle(Transform(ego_pose.to_world(Vec2(12.0, 0.0)), ego_pose.yaw)),
        Vehicle(
            Transform(
                ego_pose.to_world(Vec2(22.0, 4.0)), ego_pose.yaw + math.pi / 3.0
            )
        ),
        Pedestrian(Transform(ego_pose.to_world(Vec2(8.0, -3.0)), 0.0), town),
    ]
    return town, ego_pose, actors


def _rgb_views(ego_pose, actors) -> dict:
    """Every golden RGB view as ``{name: (ego, actors, weather, rng)}``."""
    rain = get_preset("HardRainNoon")
    return {
        "rgb_clear": (ego_pose, actors, None, None),
        "rgb_clear_no_actors": (ego_pose, [], None, None),
        "rgb_fog": (ego_pose, actors, get_preset("FoggyNoon"), None),
        "rgb_night": (ego_pose, actors, get_preset("Night"), None),
        # Heavy rain draws ~43 streaks on a 96x64 frame, which reliably
        # includes *overlapping* streaks — the case a naive fancy-indexed
        # rain pass gets wrong (sequential double-darkening vs single write).
        "rgb_rain": (ego_pose, actors, rain, np.random.default_rng(7)),
        "rgb_rain_alt_seed": (ego_pose, actors, rain, np.random.default_rng(1234)),
    }


def compute_frames() -> dict[str, str]:
    """Render every golden scene and return ``{name: sha256}``."""
    town, ego_pose, actors = _scene()
    renderer = Renderer(town, CAMERA)
    out = {
        name: _digest(renderer.render(*view))
        for name, view in _rgb_views(ego_pose, actors).items()
    }

    semantic, depth = renderer.render_semantic_depth(ego_pose, actors)
    out["semantic"] = _digest(semantic)
    out["depth"] = _digest(depth)

    # LIDAR sweep over the same scene (buildings + actors in range).
    world = World(town, seed=3)
    world.spawn_ego(Transform(ego_pose.position, ego_pose.yaw))
    for actor in actors:
        world.add_actor(actor)
    lidar = Lidar2D(n_rays=36, fov_deg=180.0, max_range=40.0)
    out["lidar"] = _digest(lidar.read(world, world.ego, np.random.default_rng(0)))
    return out


def load_baselines() -> dict[str, str]:
    return json.loads(BASELINE_PATH.read_text())


@pytest.fixture(scope="module")
def frames() -> dict[str, str]:
    return compute_frames()


@pytest.mark.parametrize(
    "name",
    [
        "rgb_clear",
        "rgb_clear_no_actors",
        "rgb_fog",
        "rgb_night",
        "rgb_rain",
        "rgb_rain_alt_seed",
        "semantic",
        "depth",
        "lidar",
    ],
)
def test_golden_frame_digest(frames, name):
    baselines = load_baselines()
    assert name in baselines, f"no baseline for {name!r}; regenerate with --regen"
    assert frames[name] == baselines[name], (
        f"{name} diverged from the pre-vectorisation renderer; if the "
        "change is intentional, regenerate tests/sim/golden_frames.json "
        "with: PYTHONPATH=src python tests/sim/test_golden_frames.py --regen"
    )


def test_rgb_views_in_one_batch_match_digests():
    """The six RGB views as one ``render_batch`` slot — clear, fog, night
    and rain, with and without actors — reproduce every pinned digest."""
    town, ego_pose, actors = _scene()
    views = _rgb_views(ego_pose, actors)
    images = Renderer(town, CAMERA).render_batch(list(views.values()))
    baselines = load_baselines()
    assert {name: _digest(img) for name, img in zip(views, images)} == {
        name: baselines[name] for name in views
    }


def test_baseline_file_has_no_strays(frames):
    """Every recorded baseline corresponds to a frame we still render."""
    assert set(load_baselines()) == set(frames)


if __name__ == "__main__":
    import sys

    if "--regen" not in sys.argv:
        sys.exit("refusing to overwrite baselines without --regen")
    digests = compute_frames()
    BASELINE_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} baselines to {BASELINE_PATH}")
