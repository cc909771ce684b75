"""Data faults: corrupted sensor and world measurements.

These are the paper's *input fault injectors*.  The five camera models of
figs. 2-3 are here under their figure labels:

========================  =====================================
Figure label              Class
========================  =====================================
``Gaussian``              :class:`GaussianNoise`
``S&P``                   :class:`SaltAndPepper`
``SolidOcc``              :class:`SolidOcclusion`
``TranspOcc``             :class:`TransparentOcclusion`
``WaterDrop``             :class:`WaterDrop`
========================  =====================================

Occlusion positions and droplet layouts are drawn once per episode and then
persist (dirt and water stick to a lens); noise models redraw per frame,
gaussian's field one frame ahead on a helper thread when it is large
(see :class:`~.base.SensorFault`).
The module also provides GPS, speedometer, LIDAR and weather (world
measurement) faults mentioned in §II's data-fault description, plus the
telemetry-corruption catalog compound campaigns pair with the camera
models: :class:`SchemaChangeFault` (producer-side unit/axis change),
:class:`StuckAtFault` (a reading frozen at a constant),
:class:`SpikeFault` (transient large excursions),
:class:`SensorDriftFault` (slowly accumulating bias) and
:class:`DuplicationFault` (stale replayed bundles).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ...sim.sensors import SensorFrame
from ...sim.weather import get_preset
from .base import SensorFault, Trigger, WorldFault, register_fault

__all__ = [
    "GaussianNoise",
    "SaltAndPepper",
    "SolidOcclusion",
    "TransparentOcclusion",
    "WaterDrop",
    "CameraFreeze",
    "GPSNoiseFault",
    "GPSFreezeFault",
    "SpeedometerScaleFault",
    "LidarDropoutFault",
    "LidarGhostFault",
    "WeatherShiftFault",
    "SchemaChangeFault",
    "StuckAtFault",
    "SpikeFault",
    "SensorDriftFault",
    "DuplicationFault",
    "INPUT_FAULT_REGISTRY",
    "make_input_fault",
]


@register_fault
class GaussianNoise(SensorFault):
    """Additive white Gaussian noise on the camera image."""

    name = "gaussian"
    replaces_image = True

    def __init__(self, sigma: float = 0.08, trigger: Trigger | None = None):
        super().__init__(trigger)
        if sigma < 0:
            raise ValueError("sigma cannot be negative")
        self.sigma = sigma

    def draw_values(self, shape: tuple) -> int:
        return math.prod(shape)

    def draw(self, rng: np.random.Generator, shape: tuple) -> np.ndarray:
        return rng.standard_normal(shape)

    def corrupt(self, bundle: SensorFrame, noise: np.ndarray) -> SensorFrame:
        # normal(0, s) is 0.0 + s * standard_normal() per element, so this
        # is the field rng.normal(0, s) draws, ~1.4x faster.  In place in
        # the drawn field, which nothing else holds: pixel + noise in
        # float64, as float32(pixel) + noise was (exact either way).
        noise *= self.sigma * 255.0
        noise += bundle.image
        bundle.image = np.clip(noise, 0, 255, out=noise).astype(np.uint8)
        return bundle

    def describe(self) -> dict:
        return {**super().describe(), "sigma": self.sigma}


@register_fault
class SaltAndPepper(SensorFault):
    """Salt-and-pepper impulse noise: random pixels forced to 0 or 255."""

    name = "s&p"

    def __init__(self, density: float = 0.06, trigger: Trigger | None = None):
        super().__init__(trigger)
        if not 0.0 <= density <= 1.0:
            raise ValueError("density must be within [0, 1]")
        self.density = density

    def transform(self, bundle: SensorFrame) -> SensorFrame:
        h, w = bundle.image.shape[:2]
        mask = self.rng.random((h, w))
        bundle.image[mask < self.density / 2.0] = 0
        bundle.image[mask > 1.0 - self.density / 2.0] = 255
        return bundle

    def describe(self) -> dict:
        return {**super().describe(), "density": self.density}


class _PersistentPatchFault(SensorFault):
    """Shared logic for occlusions: a patch placed once per episode."""

    def __init__(
        self, size_frac: float, trigger: Trigger | None = None, bias_center: bool = True
    ):
        super().__init__(trigger)
        if not 0.0 < size_frac <= 1.0:
            raise ValueError("size_frac must be in (0, 1]")
        self.size_frac = size_frac
        self.bias_center = bias_center
        self._patch: tuple[int, int, int, int] | None = None

    def reset(self) -> None:
        super().reset()
        self._patch = None

    def _patch_for(self, image: np.ndarray) -> tuple[int, int, int, int]:
        if self._patch is None:
            h, w = image.shape[:2]
            ph = max(2, int(h * self.size_frac))
            pw = max(2, int(w * self.size_frac))
            if self.bias_center:
                # Occlusions matter most where the road is: sample the
                # centre of the lower two-thirds of the frame.
                y0 = int(self.rng.integers(h // 3, max(h // 3 + 1, h - ph)))
                x0 = int(self.rng.integers(w // 6, max(w // 6 + 1, w - pw - w // 6)))
            else:
                y0 = int(self.rng.integers(0, max(1, h - ph)))
                x0 = int(self.rng.integers(0, max(1, w - pw)))
            self._patch = (y0, x0, ph, pw)
        return self._patch

    def describe(self) -> dict:
        return {**super().describe(), "size_frac": self.size_frac}


@register_fault
class SolidOcclusion(_PersistentPatchFault):
    """Opaque patch stuck on the lens (mud, tape, sticker)."""

    name = "solid-occ"

    def __init__(
        self,
        size_frac: float = 0.35,
        color: tuple[int, int, int] = (15, 12, 10),
        trigger: Trigger | None = None,
    ):
        super().__init__(size_frac, trigger)
        self.color = color

    def transform(self, bundle: SensorFrame) -> SensorFrame:
        y0, x0, ph, pw = self._patch_for(bundle.image)
        bundle.image[y0 : y0 + ph, x0 : x0 + pw] = self.color
        return bundle


@register_fault
class TransparentOcclusion(_PersistentPatchFault):
    """Semi-transparent film over part of the lens (grease, scratch haze)."""

    name = "transp-occ"

    def __init__(
        self,
        size_frac: float = 0.45,
        alpha: float = 0.6,
        tint: tuple[int, int, int] = (200, 200, 205),
        trigger: Trigger | None = None,
    ):
        super().__init__(size_frac, trigger)
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.alpha = alpha
        self.tint = tint

    def transform(self, bundle: SensorFrame) -> SensorFrame:
        y0, x0, ph, pw = self._patch_for(bundle.image)
        patch = bundle.image[y0 : y0 + ph, x0 : x0 + pw].astype(np.float32)
        tint = np.array(self.tint, dtype=np.float32)
        blended = patch * (1.0 - self.alpha) + tint * self.alpha
        bundle.image[y0 : y0 + ph, x0 : x0 + pw] = blended.astype(np.uint8)
        return bundle

    def describe(self) -> dict:
        return {**super().describe(), "alpha": self.alpha}


@register_fault
class WaterDrop(SensorFault):
    """Water droplets on the lens: local pixelation + brightening.

    Droplet positions are drawn once per episode.  Each droplet distorts a
    disk by collapsing it to coarse blocks (cheap refraction-blur) and
    lifting brightness slightly.
    """

    name = "water-drop"

    def __init__(
        self,
        n_drops: int = 6,
        radius_frac: float = 0.10,
        block: int = 4,
        trigger: Trigger | None = None,
    ):
        super().__init__(trigger)
        if n_drops < 1:
            raise ValueError("need at least one droplet")
        self.n_drops = n_drops
        self.radius_frac = radius_frac
        self.block = block
        self._drops: list[tuple[int, int, int]] | None = None

    def reset(self) -> None:
        super().reset()
        self._drops = None

    def _drops_for(self, image: np.ndarray) -> list[tuple[int, int, int]]:
        if self._drops is None:
            h, w = image.shape[:2]
            radius = max(2, int(min(h, w) * self.radius_frac))
            self._drops = [
                (
                    int(self.rng.integers(radius, h - radius)),
                    int(self.rng.integers(radius, w - radius)),
                    radius,
                )
                for _ in range(self.n_drops)
            ]
        return self._drops

    def transform(self, bundle: SensorFrame) -> SensorFrame:
        img = bundle.image
        for cy, cx, r in self._drops_for(img):
            y0, y1 = max(0, cy - r), min(img.shape[0], cy + r)
            x0, x1 = max(0, cx - r), min(img.shape[1], cx + r)
            patch = img[y0:y1, x0:x1].astype(np.float32)
            ph, pw = patch.shape[:2]
            b = self.block
            # Pixelate: average b x b blocks (crop to whole blocks).
            hh, ww = (ph // b) * b, (pw // b) * b
            if hh >= b and ww >= b:
                coarse = patch[:hh, :ww].reshape(hh // b, b, ww // b, b, 3).mean(axis=(1, 3))
                patch[:hh, :ww] = np.repeat(np.repeat(coarse, b, axis=0), b, axis=1)
            yy, xx = np.mgrid[y0:y1, x0:x1]
            disk = (yy - cy) ** 2 + (xx - cx) ** 2 <= r * r
            region = img[y0:y1, x0:x1].astype(np.float32)
            region[disk] = np.clip(patch[disk] * 1.08 + 14.0, 0, 255)
            img[y0:y1, x0:x1] = region.astype(np.uint8)
        return bundle

    def describe(self) -> dict:
        return {**super().describe(), "n_drops": self.n_drops, "radius_frac": self.radius_frac}


@register_fault
class CameraFreeze(SensorFault):
    """Stuck camera: the last pre-fault frame is replayed while active."""

    name = "camera-freeze"

    def __init__(self, trigger: Trigger | None = None):
        super().__init__(trigger)
        self._frozen: np.ndarray | None = None

    def reset(self) -> None:
        super().reset()
        self._frozen = None

    def apply(self, bundle: SensorFrame, frame: int) -> SensorFrame:
        if not self.trigger.fires(frame, self.rng):
            self._frozen = bundle.image
            return bundle
        self.log.record(frame)
        out = bundle.copy(share_image=self._frozen is not None)
        if self._frozen is not None:
            out.image = self._frozen.copy()
        return out

    def transform(self, bundle: SensorFrame) -> SensorFrame:  # pragma: no cover
        raise AssertionError("CameraFreeze overrides apply directly")


@register_fault
class GPSNoiseFault(SensorFault):
    """Extra Gaussian error on the GPS fix (jamming / multipath)."""

    name = "gps-noise"

    def __init__(self, sigma_m: float = 6.0, trigger: Trigger | None = None):
        super().__init__(trigger)
        if sigma_m < 0:
            raise ValueError("sigma cannot be negative")
        self.sigma_m = sigma_m

    def transform(self, bundle: SensorFrame) -> SensorFrame:
        dx, dy = self.rng.normal(0.0, self.sigma_m, 2)
        bundle.gps = (bundle.gps[0] + float(dx), bundle.gps[1] + float(dy))
        return bundle

    def describe(self) -> dict:
        return {**super().describe(), "sigma_m": self.sigma_m}


@register_fault
class GPSFreezeFault(SensorFault):
    """GPS stuck at the last pre-fault fix."""

    name = "gps-freeze"

    def __init__(self, trigger: Trigger | None = None):
        super().__init__(trigger)
        self._fix: tuple[float, float] | None = None

    def reset(self) -> None:
        super().reset()
        self._fix = None

    def apply(self, bundle: SensorFrame, frame: int) -> SensorFrame:
        if not self.trigger.fires(frame, self.rng):
            self._fix = bundle.gps
            return bundle
        self.log.record(frame)
        out = bundle.copy()
        if self._fix is not None:
            out.gps = self._fix
        return out

    def transform(self, bundle: SensorFrame) -> SensorFrame:  # pragma: no cover
        raise AssertionError("GPSFreezeFault overrides apply directly")


@register_fault
class SpeedometerScaleFault(SensorFault):
    """Miscalibrated speed measurement (wheel-size / encoder fault)."""

    name = "speed-scale"

    def __init__(self, scale: float = 0.5, trigger: Trigger | None = None):
        super().__init__(trigger)
        if scale < 0:
            raise ValueError("scale cannot be negative")
        self.scale = scale

    def transform(self, bundle: SensorFrame) -> SensorFrame:
        bundle.speed = bundle.speed * self.scale
        return bundle

    def describe(self) -> dict:
        return {**super().describe(), "scale": self.scale}


@register_fault
class LidarDropoutFault(SensorFault):
    """Random LIDAR returns lost to max range (absorption / misalignment)."""

    name = "lidar-dropout"

    def __init__(self, drop_prob: float = 0.5, max_range: float = 40.0, trigger: Trigger | None = None):
        super().__init__(trigger)
        if not 0.0 <= drop_prob <= 1.0:
            raise ValueError("drop_prob must be within [0, 1]")
        self.drop_prob = drop_prob
        self.max_range = max_range

    def transform(self, bundle: SensorFrame) -> SensorFrame:
        if bundle.lidar is not None:
            lost = self.rng.random(bundle.lidar.shape) < self.drop_prob
            bundle.lidar[lost] = self.max_range
        return bundle

    def describe(self) -> dict:
        return {**super().describe(), "drop_prob": self.drop_prob}


@register_fault
class LidarGhostFault(SensorFault):
    """Phantom LIDAR returns: random rays report close obstacles.

    Models specular/multipath ghosts — the dual of
    :class:`LidarDropoutFault`.  Each activation replaces a fraction of
    rays with short ranges drawn from ``[min_ghost_m, max_ghost_m]``.
    """

    name = "lidar-ghost"

    def __init__(
        self,
        ghost_prob: float = 0.2,
        min_ghost_m: float = 1.0,
        max_ghost_m: float = 8.0,
        trigger: Trigger | None = None,
    ):
        super().__init__(trigger)
        if not 0.0 <= ghost_prob <= 1.0:
            raise ValueError("ghost_prob must be within [0, 1]")
        if not 0.0 < min_ghost_m < max_ghost_m:
            raise ValueError("ghost range must satisfy 0 < min < max")
        self.ghost_prob = ghost_prob
        self.min_ghost_m = min_ghost_m
        self.max_ghost_m = max_ghost_m

    def transform(self, bundle: SensorFrame) -> SensorFrame:
        if bundle.lidar is not None:
            ghosts = self.rng.random(bundle.lidar.shape) < self.ghost_prob
            n = int(ghosts.sum())
            if n:
                bundle.lidar[ghosts] = self.rng.uniform(
                    self.min_ghost_m, self.max_ghost_m, n
                )
        return bundle

    def describe(self) -> dict:
        return {**super().describe(), "ghost_prob": self.ghost_prob}


@register_fault
class SchemaChangeFault(SensorFault):
    """Producer-side schema change the consumer never learned about.

    Models a telemetry producer silently changing its wire format: GPS
    axes swapped (lat/lon order flip) and/or speed emitted in different
    units (the default ``speed_factor`` of 3.6 is km/h delivered where
    m/s is expected).  Values stay individually plausible — the failure
    is the *interpretation*, which is what makes schema faults hard to
    catch with range checks.
    """

    name = "schema-change"

    def __init__(
        self,
        swap_gps: bool = True,
        speed_factor: float = 3.6,
        trigger: Trigger | None = None,
    ):
        super().__init__(trigger)
        if speed_factor <= 0:
            raise ValueError("speed_factor must be positive")
        self.swap_gps = swap_gps
        self.speed_factor = speed_factor

    def transform(self, bundle: SensorFrame) -> SensorFrame:
        if self.swap_gps:
            bundle.gps = (bundle.gps[1], bundle.gps[0])
        bundle.speed = bundle.speed * self.speed_factor
        return bundle

    def describe(self) -> dict:
        return {
            **super().describe(),
            "swap_gps": self.swap_gps,
            "speed_factor": self.speed_factor,
        }


@register_fault
class StuckAtFault(SensorFault):
    """A scalar reading stuck at a constant (failed transducer/register).

    ``field`` picks the stuck reading: ``"speed"`` or ``"heading"``.
    Unlike the freeze faults (which hold the last *good* value), stuck-at
    pins the reading to an arbitrary constant — the classic stuck-at-0 /
    stuck-at-max hardware failure mode.
    """

    name = "stuck-at"

    _FIELDS = ("speed", "heading")

    def __init__(
        self,
        field: str = "speed",
        value: float = 0.0,
        trigger: Trigger | None = None,
    ):
        super().__init__(trigger)
        if field not in self._FIELDS:
            raise ValueError(
                f"field must be one of {self._FIELDS}, got {field!r}"
            )
        self.field = field
        self.value = value

    def transform(self, bundle: SensorFrame) -> SensorFrame:
        setattr(bundle, self.field, self.value)
        return bundle

    def describe(self) -> dict:
        return {**super().describe(), "field": self.field, "value": self.value}


@register_fault
class SpikeFault(SensorFault):
    """Transient large excursions on a reading (EMI, loose connector).

    Each activation adds a spike of random sign and magnitude up to
    ``magnitude`` to the chosen reading (``"speed"`` or ``"gps"``; a GPS
    spike displaces the fix in a random direction).  Defaults to an
    intermittent trigger — spikes are occasional by nature; pass an
    explicit trigger for a different duty cycle.
    """

    name = "spike"

    _FIELDS = ("speed", "gps")

    def __init__(
        self,
        field: str = "speed",
        magnitude: float = 25.0,
        trigger: Trigger | None = None,
    ):
        super().__init__(trigger or Trigger(probability=0.15))
        if field not in self._FIELDS:
            raise ValueError(
                f"field must be one of {self._FIELDS}, got {field!r}"
            )
        if magnitude <= 0:
            raise ValueError("magnitude must be positive")
        self.field = field
        self.magnitude = magnitude

    def transform(self, bundle: SensorFrame) -> SensorFrame:
        size = float(self.rng.uniform(0.25, 1.0)) * self.magnitude
        if self.field == "speed":
            sign = 1.0 if self.rng.random() < 0.5 else -1.0
            bundle.speed = max(0.0, bundle.speed + sign * size)
        else:
            angle = float(self.rng.uniform(0.0, 2.0 * np.pi))
            bundle.gps = (
                bundle.gps[0] + size * float(np.cos(angle)),
                bundle.gps[1] + size * float(np.sin(angle)),
            )
        return bundle

    def describe(self) -> dict:
        return {**super().describe(), "field": self.field, "magnitude": self.magnitude}


@register_fault
class SensorDriftFault(SensorFault):
    """Slowly accumulating GPS bias (uncompensated IMU/odometry drift).

    Every activation grows the bias by ``rate_m`` metres along a fixed
    ``heading_deg`` direction, so the reported position walks away from
    the truth frame by frame — the error is tiny at onset and unbounded
    over a long episode, which is exactly what makes drift faults
    latent.
    """

    name = "sensor-drift"

    def __init__(
        self,
        rate_m: float = 0.05,
        heading_deg: float = 45.0,
        trigger: Trigger | None = None,
    ):
        super().__init__(trigger)
        if rate_m <= 0:
            raise ValueError("rate_m must be positive")
        self.rate_m = rate_m
        self.heading_deg = heading_deg
        self._steps = 0

    def reset(self) -> None:
        super().reset()
        self._steps = 0

    def transform(self, bundle: SensorFrame) -> SensorFrame:
        self._steps += 1
        offset = self.rate_m * self._steps
        heading = np.deg2rad(self.heading_deg)
        bundle.gps = (
            bundle.gps[0] + offset * float(np.cos(heading)),
            bundle.gps[1] + offset * float(np.sin(heading)),
        )
        return bundle

    def describe(self) -> dict:
        return {
            **super().describe(),
            "rate_m": self.rate_m,
            "heading_deg": self.heading_deg,
        }


@register_fault
class DuplicationFault(SensorFault):
    """Duplicate/replayed telemetry: a stale bundle served as fresh.

    Models a producer (or flaky transport) re-delivering an old packet
    that the consumer fails to dedupe: on each activation the agent sees
    the bundle from ``lag`` frames ago — image, GPS, speed and all —
    instead of the current one.  Complements the packet-level timing
    faults: those starve the agent, this feeds it confidently wrong,
    *internally consistent* history.
    """

    name = "duplication"

    def __init__(self, lag: int = 3, trigger: Trigger | None = None):
        super().__init__(trigger or Trigger(probability=0.3))
        if lag < 1:
            raise ValueError("lag must be at least 1")
        self.lag = lag
        self._history: list[SensorFrame] = []

    def reset(self) -> None:
        super().reset()
        self._history = []

    def apply(self, bundle: SensorFrame, frame: int) -> SensorFrame:
        # History must advance every frame (fired or not), so the replay
        # source is the true bundle stream, not the corrupted one.
        self._history.append(bundle.copy())
        if len(self._history) > self.lag + 1:
            self._history.pop(0)
        if not self.trigger.fires(frame, self.rng) or len(self._history) <= self.lag:
            return bundle
        self.log.record(frame)
        return self._history[0].copy()

    def transform(self, bundle: SensorFrame) -> SensorFrame:  # pragma: no cover
        raise AssertionError("DuplicationFault overrides apply directly")

    def describe(self) -> dict:
        return {**super().describe(), "lag": self.lag}


@register_fault
class WeatherShiftFault(WorldFault):
    """Corrupted world measurement: the weather flips to another preset."""

    name = "weather-shift"

    def __init__(self, weather: str = "HardRainNoon", trigger: Trigger | None = None):
        # Fire exactly once by default: a weather flip is a state change.
        super().__init__(trigger or Trigger(start_frame=1, end_frame=1))
        self.weather = get_preset(weather)  # validate eagerly

    def mutate(self, world) -> None:
        world.set_weather(self.weather)

    def config_params(self) -> dict:
        # The constructor takes a preset *name* but stores the resolved
        # Weather object; map back for serialisation.
        return {"weather": self.weather.name}

    def describe(self) -> dict:
        return {**super().describe(), "weather": self.weather.name}


#: The fig. 2/3 injector lineup, keyed by the paper's x-axis labels.
INPUT_FAULT_REGISTRY: dict[str, type[SensorFault]] = {
    "gaussian": GaussianNoise,
    "s&p": SaltAndPepper,
    "solid-occ": SolidOcclusion,
    "transp-occ": TransparentOcclusion,
    "water-drop": WaterDrop,
}


def make_input_fault(name: str, **kwargs) -> SensorFault:
    """Instantiate a fig. 2/3 camera fault model by its paper label."""
    try:
        cls = INPUT_FAULT_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(INPUT_FAULT_REGISTRY))
        raise KeyError(f"unknown input fault {name!r}; known: {known}") from None
    return cls(**kwargs)
