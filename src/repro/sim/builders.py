"""Scenario realisation: turning a :class:`Scenario` into a live world.

Towns and renderers cost a setup step to build (texture rasterisation,
under 0.1 s for the 4x4 benchmark town) but are immutable and hold
megabytes, so they are cached *per process* in a :class:`SceneCache` keyed
by configuration fingerprints — the same hash-the-config idiom
:func:`~repro.core.campaign.episode_fingerprint` uses for checkpoint
identities.  :class:`SimulationBuilder` stamps out fresh
:class:`~repro.sim.world.World` instances per episode on top of the cached
scene state, which is what makes warm-started campaign workers cheap: the
first episode in a process rasterises the town texture, every later
episode (same campaign or the next one) reuses it.  Campaign code, dataset
collection and the examples all go through this one path, which keeps
episode construction identical everywhere.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass

from .actors import NPCVehicle, make_behavior
from .render import CameraModel, Renderer, check_texture_resolution
from .scenario import Scenario
from .sensors import GPS, Camera, Lidar2D, SensorSuite, Speedometer
from .town import GridTownConfig, LaneRef, ProceduralTownConfig, Town, build_town
from .world import World

__all__ = [
    "SimulationBuilder",
    "EpisodeHandles",
    "SceneCache",
    "scene_fingerprint",
    "process_scene_cache",
]


def scene_fingerprint(*parts) -> str:
    """A short stable hash of the immutable scene configuration.

    Town and camera configs are frozen dataclasses with value-complete
    ``repr``s, so hashing the joint repr gives a process-portable cache
    key — the same machinery checkpoint identities use for fault configs.
    """
    return hashlib.sha1(repr(parts).encode()).hexdigest()[:12]


class SceneCache:
    """Process-local cache of towns and renderers, keyed by fingerprint.

    Bounded LRU: an entry pins a rasterised town texture (megabytes), so
    sweeps over many distinct town configs recycle the oldest scenes
    instead of accumulating them.  Scene state is deterministic given its
    configuration, therefore safe to share between every builder (and
    campaign) in the process; it never travels across process boundaries —
    workers rebuild lazily on first use and keep the result warm.  A
    rebuild is cheap (rasterisation works in proportion to the painted
    area, under 0.1 s for the 4x4 benchmark town at 0.25 m per texel), so
    neither a fork-inherited nor an on-disk copy is worth its upkeep.
    """

    def __init__(self, max_entries: int = 8):
        if max_entries < 1:
            raise ValueError("cache needs at least one slot")
        self.max_entries = max_entries
        self._towns: OrderedDict[str, Town] = OrderedDict()
        self._renderers: OrderedDict[str, Renderer] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def _get(self, store: OrderedDict, key: str, build):
        with self._lock:
            if key in store:
                store.move_to_end(key)
                self.hits += 1
                return store[key]
        # Build outside the lock (texture rasterisation is slow); a rare
        # duplicate build in a racing thread is benign — last one wins.
        value = build()
        with self._lock:
            store[key] = value
            store.move_to_end(key)
            while len(store) > self.max_entries:
                store.popitem(last=False)
            self.misses += 1
        return value

    def town(self, config: GridTownConfig | ProceduralTownConfig) -> Town:
        """The (cached) town for a configuration (grid or procedural)."""
        return self._get(
            self._towns, scene_fingerprint(config), lambda: build_town(config)
        )

    def renderer(
        self,
        config: GridTownConfig | ProceduralTownConfig,
        camera: CameraModel,
        texture_resolution: float,
    ) -> Renderer:
        """The (cached) renderer for a town + camera configuration."""
        return self._get(
            self._renderers,
            scene_fingerprint(config, camera, texture_resolution),
            lambda: Renderer(self.town(config), camera, texture_resolution),
        )

    def clear(self) -> None:
        """Drop every cached scene (tests / memory pressure)."""
        with self._lock:
            self._towns.clear()
            self._renderers.clear()

    def stats(self) -> dict[str, int]:
        """Cache effectiveness counters."""
        with self._lock:
            return {
                "towns": len(self._towns),
                "renderers": len(self._renderers),
                "hits": self.hits,
                "misses": self.misses,
            }


#: The per-process scene cache every builder shares by default.
_PROCESS_CACHE = SceneCache()


def process_scene_cache() -> SceneCache:
    """This process's shared :class:`SceneCache`."""
    return _PROCESS_CACHE


@dataclass
class EpisodeHandles:
    """Everything an episode runner needs for one scenario."""

    world: World
    sensors: SensorSuite
    town: Town


class SimulationBuilder:
    """Builds worlds for scenarios on top of the process scene cache.

    ``scene_cache`` defaults to the process-wide cache; pass a private
    :class:`SceneCache` to isolate (tests that mutate towns, say).
    Builders are picklable and cheap to ship to worker processes: the
    cache never pickles with them (each process re-derives scene state
    from the configs and keeps it warm across episodes and campaigns).
    """

    def __init__(
        self,
        camera: CameraModel | None = None,
        texture_resolution: float = 0.25,
        with_lidar: bool = True,
        gps_noise_std: float = 0.4,
        scene_cache: SceneCache | None = None,
    ):
        check_texture_resolution(texture_resolution)
        self.camera = camera or CameraModel()
        self.texture_resolution = texture_resolution
        self.with_lidar = with_lidar
        self.gps_noise_std = gps_noise_std
        self._scene_cache = scene_cache

    @property
    def scene_cache(self) -> SceneCache:
        """The cache in use (private if one was injected, else process-wide)."""
        return self._scene_cache if self._scene_cache is not None else _PROCESS_CACHE

    def __getstate__(self) -> dict:
        # Scene state never crosses process boundaries: it is deterministic
        # from the configs, and shipping rasterised textures through pickle
        # is exactly the per-run cost the cache exists to avoid.
        state = dict(self.__dict__)
        state["_scene_cache"] = None
        return state

    def config_signature(self) -> str:
        """Stable identity for checkpoint fingerprints.

        Covers every episode-visible construction parameter (camera
        intrinsics, texture resolution, sensor suite shape, GPS noise) —
        but not the scene cache, which never changes what gets built.
        See :func:`repro.core.campaign.episode_fingerprint`.
        """
        return (
            f"SimulationBuilder(camera={self.camera!r}, "
            f"texture_resolution={self.texture_resolution!r}, "
            f"with_lidar={self.with_lidar!r}, "
            f"gps_noise_std={self.gps_noise_std!r})"
        )

    def to_config(self) -> dict:
        """JSON-serialisable construction parameters (spec files).

        Numeric fields coerce to canonical JSON types so equal builders
        emit identical JSON (spec hashes are content hashes).
        """
        camera = asdict(self.camera)
        for key in ("fov_deg", "mount_height", "pitch_deg", "forward_offset", "max_depth"):
            camera[key] = float(camera[key])
        camera["width"] = int(camera["width"])
        camera["height"] = int(camera["height"])
        return {
            "camera": camera,
            "texture_resolution": float(self.texture_resolution),
            "with_lidar": bool(self.with_lidar),
            "gps_noise_std": float(self.gps_noise_std),
        }

    @classmethod
    def from_config(cls, config: dict) -> "SimulationBuilder":
        """Rebuild a builder from :meth:`to_config` output."""
        if not isinstance(config, dict):
            raise TypeError(
                f"builder config must be an object, got {type(config).__name__}"
            )
        unknown = set(config) - {
            "camera",
            "texture_resolution",
            "with_lidar",
            "gps_noise_std",
        }
        if unknown:
            raise ValueError(f"builder config has unknown keys {sorted(unknown)}")
        camera_cfg = config.get("camera")
        camera = CameraModel(**camera_cfg) if camera_cfg is not None else None
        return cls(
            camera=camera,
            texture_resolution=config.get("texture_resolution", 0.25),
            with_lidar=config.get("with_lidar", True),
            gps_noise_std=config.get("gps_noise_std", 0.4),
        )

    def town_for(self, config: GridTownConfig | ProceduralTownConfig) -> Town:
        """The (cached) town for a configuration."""
        return self.scene_cache.town(config)

    def renderer_for(self, config: GridTownConfig | ProceduralTownConfig) -> Renderer:
        """The (cached) renderer for a configuration."""
        return self.scene_cache.renderer(config, self.camera, self.texture_resolution)

    def build_episode(self, scenario: Scenario) -> EpisodeHandles:
        """A fresh world + sensor suite realising ``scenario``.

        The ego spawns at the mission start; scripted NPCs
        (``scenario.npcs``) spawn at their exact lane stations (consuming
        no episode RNG, so adding one never perturbs the rest of the
        world); background NPC traffic and pedestrians are then placed
        from the scenario seed with a clearance zone around the ego.
        """
        town = self.town_for(scenario.town_config)
        world = World(town, weather=scenario.weather, seed=scenario.seed)
        world.spawn_ego(scenario.mission.start)
        for npc in scenario.npcs:
            ref = LaneRef(npc.road_id, npc.direction)
            try:
                lane = town.lanes[ref]
            except KeyError:
                raise ValueError(
                    f"scenario {scenario.name!r}: scripted npc references lane "
                    f"{ref} absent from town {town.name!r}"
                ) from None
            world.add_actor(
                NPCVehicle(
                    lane,
                    min(npc.station, lane.length),
                    town,
                    target_speed=npc.target_speed,
                    behavior=make_behavior(npc.behavior),
                )
            )
        world.populate(
            scenario.n_npc_vehicles,
            scenario.n_pedestrians,
            keep_clear=scenario.mission.start.position,
        )
        suite = SensorSuite(
            camera=Camera(self.renderer_for(scenario.town_config)),
            gps=GPS(noise_std=self.gps_noise_std),
            speedometer=Speedometer(),
            lidar=Lidar2D(n_rays=19, fov_deg=120.0) if self.with_lidar else None,
        )
        return EpisodeHandles(world=world, sensors=suite, town=town)
