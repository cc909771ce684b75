"""Sensor models attached to the ego vehicle.

Each sensor produces one reading per frame on the server side; readings are
bundled into a :class:`SensorFrame` and shipped to the agent client through
the sensor channel.  AVFI's *input fault injectors* operate on exactly this
bundle (between server and agent), so every reading type here is a fault
target.

Noise models are intentionally simple but real: Gaussian position noise on
GPS scaled by weather, multiplicative speedometer noise, and max-range
clipping on the 2-D LIDAR.  All randomness flows through the world RNG so
episodes replay exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

from .geometry import Vec2, batch_ray_hits_multi, pad_box_packs
from .render import CameraModel, Renderer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .actors import Vehicle
    from .world import World

__all__ = [
    "SensorFrame",
    "Sensor",
    "Camera",
    "SemanticCamera",
    "DepthCamera",
    "GPS",
    "Speedometer",
    "Lidar2D",
    "SensorSuite",
    "read_frames_batch",
]


@dataclass
class SensorFrame:
    """All sensor readings produced at one simulation frame.

    This is the payload of a "sensor" packet.  ``image`` is the RGB camera
    array (H, W, 3) uint8; ``gps`` is the measured world position (metres);
    ``speed`` the measured speed (m/s); ``lidar`` the range array (metres)
    or ``None`` when no LIDAR is mounted; ``heading`` the measured yaw.
    """

    frame: int
    image: np.ndarray
    gps: tuple[float, float]
    speed: float
    heading: float
    lidar: Optional[np.ndarray] = None

    def copy(self, share_image: bool = False) -> "SensorFrame":
        """Deep-enough copy so fault injectors can mutate safely.

        With ``share_image`` the copy holds this bundle's image array
        itself, for a caller that replaces the image rather than writing
        into it.
        """
        return SensorFrame(
            frame=self.frame,
            image=self.image if share_image else self.image.copy(),
            gps=tuple(self.gps),
            speed=float(self.speed),
            heading=float(self.heading),
            lidar=None if self.lidar is None else self.lidar.copy(),
        )


class Sensor:
    """Base sensor; subclasses implement :meth:`read`."""

    name = "sensor"

    def read(self, world: "World", vehicle: "Vehicle", rng: np.random.Generator):
        """Produce this sensor's reading for the current frame."""
        raise NotImplementedError


class Camera(Sensor):
    """Forward RGB camera rendered by :class:`repro.sim.render.Renderer`."""

    name = "camera"

    def __init__(self, renderer: Renderer):
        self.renderer = renderer

    @property
    def model(self) -> CameraModel:
        """The camera intrinsics in use."""
        return self.renderer.camera

    def read(self, world: "World", vehicle: "Vehicle", rng: np.random.Generator) -> np.ndarray:
        others = world.other_actors(vehicle.id)
        return self.renderer.render(vehicle.transform, others, world.weather, rng)


class SemanticCamera(Sensor):
    """Ground-truth semantic segmentation camera (CARLA parity).

    Not part of the standard :class:`SensorFrame` (the paper's ADA is
    RGB-only); used for perception-level fault studies and for labelling
    datasets.  Returns a ``uint8`` class map of
    :class:`~repro.sim.render.SemanticClass` ids.
    """

    name = "semantic"

    def __init__(self, renderer: Renderer):
        self.renderer = renderer

    def read(self, world: "World", vehicle: "Vehicle", rng: np.random.Generator) -> np.ndarray:
        others = world.other_actors(vehicle.id)
        semantic, _ = self.renderer.render_semantic_depth(vehicle.transform, others)
        return semantic


class DepthCamera(Sensor):
    """Ground-truth depth camera: metres per pixel, ``inf`` for sky."""

    name = "depth"

    def __init__(self, renderer: Renderer):
        self.renderer = renderer

    def read(self, world: "World", vehicle: "Vehicle", rng: np.random.Generator) -> np.ndarray:
        others = world.other_actors(vehicle.id)
        _, depth = self.renderer.render_semantic_depth(vehicle.transform, others)
        return depth


class GPS(Sensor):
    """Position sensor with weather-scaled Gaussian noise and optional bias."""

    name = "gps"

    def __init__(self, noise_std: float = 0.5, bias: Vec2 = Vec2(0.0, 0.0)):
        if noise_std < 0:
            raise ValueError("noise_std cannot be negative")
        self.noise_std = noise_std
        self.bias = bias

    def read(self, world: "World", vehicle: "Vehicle", rng: np.random.Generator) -> tuple[float, float]:
        scale = self.noise_std * world.weather.sensor_noise_scale
        nx, ny = rng.normal(0.0, scale, 2) if scale > 0 else (0.0, 0.0)
        return (
            vehicle.position.x + self.bias.x + float(nx),
            vehicle.position.y + self.bias.y + float(ny),
        )


class Speedometer(Sensor):
    """Speed sensor with multiplicative noise (wheel-encoder style)."""

    name = "speed"

    def __init__(self, noise_frac: float = 0.01):
        if noise_frac < 0:
            raise ValueError("noise_frac cannot be negative")
        self.noise_frac = noise_frac

    def read(self, world: "World", vehicle: "Vehicle", rng: np.random.Generator) -> float:
        noise = rng.normal(0.0, self.noise_frac) if self.noise_frac > 0 else 0.0
        return float(vehicle.speed() * (1.0 + noise))


class Lidar2D(Sensor):
    """Planar LIDAR: ``n_rays`` ranges over ``fov_deg`` centred forward.

    Rays hit actor bounding boxes and building boxes; misses return
    ``max_range``.  Readings are metres, ordered left-to-right.
    """

    name = "lidar"

    def __init__(self, n_rays: int = 36, fov_deg: float = 180.0, max_range: float = 40.0):
        if n_rays < 1:
            raise ValueError("need at least one ray")
        self.n_rays = n_rays
        self.fov = math.radians(fov_deg)
        self.max_range = max_range

    def ray_angles(self) -> np.ndarray:
        """Relative bearing of every ray, radians, left to right."""
        if self.n_rays == 1:
            return np.array([0.0])
        return np.linspace(self.fov / 2.0, -self.fov / 2.0, self.n_rays)

    def _angles(self) -> list[float]:
        """:meth:`ray_angles` as cached plain floats (hot-path helper)."""
        key = (self.n_rays, self.fov)
        cached = getattr(self, "_angles_cache", None)
        if cached is None or cached[0] != key:
            self._angles_cache = (key, self.ray_angles().tolist())
        return self._angles_cache[1]

    def scan_inputs(
        self, world: "World", vehicle: "Vehicle"
    ) -> tuple[Vec2, np.ndarray, np.ndarray]:
        """``(origin, directions, packed)`` for this frame's ray cast.

        The Python-side pruning/packing stays per episode; the returned
        arrays, stacked across episodes, feed
        :func:`~repro.sim.geometry.batch_ray_hits_multi`.
        """
        origin = vehicle.position
        ox, oy = origin.x, origin.y
        max_range = self.max_range
        # Actor boxes are dynamic: pack (and prune) them per frame —
        # plain-float math, identical to OrientedBox.ray_hit_distance's
        # per-call derivation.  Building boxes are static: packed once per
        # town and pruned here with the same reach test as the actors.
        rows = []
        ego_id = vehicle.id
        for a in world.actors:
            if a.id == ego_id or not a.alive:
                continue
            pos = a.position
            reach = max_range + max(a.half_length, a.half_width)
            if math.hypot(ox - pos.x, oy - pos.y) <= reach:
                yaw = a.yaw
                rows.append(
                    (
                        pos.x,
                        pos.y,
                        math.cos(-yaw),
                        math.sin(-yaw),
                        a.half_length,
                        a.half_width,
                    )
                )
        packed_buildings, prune = world.town.building_box_pack()
        keep = [
            i
            for i, (bx, by, max_half) in enumerate(prune)
            if math.hypot(ox - bx, oy - by) <= max_range + max_half
        ]
        kept_buildings = (
            packed_buildings if len(keep) == len(prune) else packed_buildings[keep]
        )
        if rows:
            actor_pack = np.array(rows, dtype=np.float64)
            packed = np.concatenate([actor_pack, kept_buildings])
        else:
            packed = kept_buildings
        # Per-ray unit directions, derived exactly as
        # ``Vec2.from_heading(h).normalized()`` does (the hypot of an
        # exact unit pair may still differ from 1.0 in the last bit).  The
        # rays depend only on the ego yaw, which repeats whenever the
        # vehicle holds its heading, so the last frame's array is memoised
        # and reused verbatim (callers treat it as read-only).
        ego_yaw = vehicle.yaw
        key = (self.n_rays, self.fov, ego_yaw)
        cached = getattr(self, "_dir_cache", None)
        if cached is not None and cached[0] == key:
            return origin, cached[1], packed
        directions = np.empty((self.n_rays, 2), dtype=np.float64)
        for i, rel in enumerate(self._angles()):
            heading = ego_yaw + rel
            dx, dy = math.cos(heading), math.sin(heading)
            norm = math.hypot(dx, dy)
            if norm < 1e-12:
                directions[i, 0] = 1.0
                directions[i, 1] = 0.0
            else:
                directions[i, 0] = dx / norm
                directions[i, 1] = dy / norm
        self._dir_cache = (key, directions)
        return origin, directions, packed

    def read(self, world: "World", vehicle: "Vehicle", rng: np.random.Generator) -> np.ndarray:
        origin, directions, packed = self.scan_inputs(world, vehicle)
        return batch_ray_hits_multi(
            np.array([[origin.x, origin.y]]), directions[None], packed[None], self.max_range
        )[0]


class SensorSuite:
    """The set of sensors mounted on the ego vehicle.

    ``read_frame`` produces the :class:`SensorFrame` bundle the server ships
    each tick.  The camera is mandatory (the ADA is camera-driven); LIDAR is
    optional.
    """

    def __init__(
        self,
        camera: Camera,
        gps: GPS | None = None,
        speedometer: Speedometer | None = None,
        lidar: Lidar2D | None = None,
    ):
        self.camera = camera
        self.gps = gps or GPS()
        self.speedometer = speedometer or Speedometer()
        self.lidar = lidar

    def read_frame(self, world: "World", vehicle: "Vehicle", frame: int) -> SensorFrame:
        """Read every sensor and bundle the results (a one-item batch)."""
        return read_frames_batch([(self, world, vehicle, frame)])[0]


def read_frames_batch(
    items: list[tuple[SensorSuite, "World", "Vehicle", int]],
) -> list[SensorFrame]:
    """Read many episodes' sensor bundles with cross-episode batching.

    ``items`` holds one ``(suite, world, vehicle, frame)`` tuple per live
    episode; the returned list pairs with it.  Camera work batches per
    shared renderer (episodes in one scene-fingerprint group share a
    cached renderer), LIDAR ray casts batch per scan shape
    ``(n_rays, fov, max_range)``; GPS/speedometer stay per episode.

    An episode's bundle does not depend on what it is batched with:
    every episode draws from its *own* ``world.rng`` in a fixed order
    (camera rain, then GPS, then speed; LIDAR consumes no randomness),
    and the batched numeric kernels are elementwise over the episode
    axis.  A serial episode is a batch of one
    (:meth:`SensorSuite.read_frame`).
    """
    if not items:
        return []
    n = len(items)

    # Camera pass, grouped by renderer identity.
    images: list[Optional[np.ndarray]] = [None] * n
    cam_groups: dict[int, tuple[Renderer, list[int]]] = {}
    for idx, (suite, world, vehicle, frame) in enumerate(items):
        renderer = suite.camera.renderer
        cam_groups.setdefault(id(renderer), (renderer, []))[1].append(idx)
    for renderer, idxs in cam_groups.values():
        views = []
        for idx in idxs:
            suite, world, vehicle, _ = items[idx]
            views.append(
                (
                    vehicle.transform,
                    world.other_actors(vehicle.id),
                    world.weather,
                    world.rng,
                )
            )
        for idx, img in zip(idxs, renderer.render_batch(views)):
            images[idx] = img

    # GPS / speed / heading: small per-episode reads in item order (each
    # episode's rng has already consumed its camera draws above).
    gps_l: list[tuple[float, float]] = []
    speed_l: list[float] = []
    heading_l: list[float] = []
    for suite, world, vehicle, frame in items:
        gps_l.append(suite.gps.read(world, vehicle, world.rng))
        speed_l.append(suite.speedometer.read(world, vehicle, world.rng))
        heading_l.append(vehicle.yaw)

    # LIDAR pass, grouped by scan shape so directions stack rectangularly.
    lidars: list[Optional[np.ndarray]] = [None] * n
    lidar_groups: dict[tuple[int, float, float], list[int]] = {}
    for idx, (suite, world, vehicle, frame) in enumerate(items):
        if suite.lidar is None:
            continue
        key = (suite.lidar.n_rays, suite.lidar.fov, suite.lidar.max_range)
        lidar_groups.setdefault(key, []).append(idx)
    for (n_rays, fov, max_range), idxs in lidar_groups.items():
        origins = np.empty((len(idxs), 2), dtype=np.float64)
        dir_stack = []
        packs = []
        for j, idx in enumerate(idxs):
            suite, world, vehicle, _ = items[idx]
            origin, directions, packed = suite.lidar.scan_inputs(world, vehicle)
            origins[j, 0] = origin.x
            origins[j, 1] = origin.y
            dir_stack.append(directions)
            packs.append(packed)
        ranges = batch_ray_hits_multi(
            origins, np.stack(dir_stack), pad_box_packs(packs), max_range
        )
        for j, idx in enumerate(idxs):
            lidars[idx] = ranges[j].copy()

    return [
        SensorFrame(
            frame=frame,
            image=images[i],
            gps=gps_l[i],
            speed=speed_l[i],
            heading=heading_l[i],
            lidar=lidars[i],
        )
        for i, (suite, world, vehicle, frame) in enumerate(items)
    ]
