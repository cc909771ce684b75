"""Software perspective camera: the CARLA/Unreal rendering substitute.

The camera renders what a forward-facing RGB sensor on the hood sees:

1. *Ground pass* — every pixel below the horizon is intersected with the
   ground plane (inverse perspective mapping, precomputed once per camera)
   and coloured by sampling a rasterised town texture containing road
   surfaces, curbs, grass and painted lane markings.
2. *Billboard pass* — buildings and actors project to shaded screen-space
   rectangles, painted far-to-near so occlusion works.
3. *Atmosphere pass* — distance fog, rain streaks and global brightness
   from the active :class:`~repro.sim.weather.Weather`.

The result is a ``uint8`` RGB array with the semantic content the
imitation-learning agent trains on (lane position, road edges, obstacles),
which is exactly the content AVFI's camera fault models corrupt.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .geometry import Transform, Vec2
from .town import Building, SurfaceType, Town
from .weather import Weather

__all__ = [
    "CameraModel",
    "TownTexture",
    "Renderer",
    "SURFACE_COLORS",
    "SemanticClass",
    "check_texture_resolution",
]


class SemanticClass:
    """Per-pixel class ids of the semantic camera (CARLA-style labels)."""

    SKY = 0
    OFFROAD = 1
    CURB = 2
    ROAD = 3
    BUILDING = 4
    VEHICLE = 5
    PEDESTRIAN = 6

    #: SurfaceType value -> semantic id for the ground pass.
    FROM_SURFACE = {0: OFFROAD, 1: CURB, 2: ROAD}

SURFACE_COLORS: dict[int, tuple[int, int, int]] = {
    int(SurfaceType.OFFROAD): (96, 140, 72),  # grass
    int(SurfaceType.CURB): (168, 168, 168),  # pavement
    int(SurfaceType.ROAD): (58, 58, 64),  # asphalt
}
SKY_TOP = np.array([110, 150, 215], dtype=np.float32)
SKY_BOTTOM = np.array([190, 205, 230], dtype=np.float32)
FOG_COLOR = np.array([185, 190, 198], dtype=np.float32)


def check_texture_resolution(resolution) -> None:
    """Reject a texture resolution that is not a finite real number > 0.

    ``inf`` would rasterise an empty texture and ``nan`` or a non-number
    would fail only at the first sensed frame, so both fail here instead.
    """
    if (
        isinstance(resolution, bool)
        or not isinstance(resolution, numbers.Real)
        or not math.isfinite(resolution)
        or resolution <= 0
    ):
        raise ValueError(
            f"texture resolution must be a finite number > 0, got {resolution!r}"
        )


@dataclass(frozen=True)
class CameraModel:
    """Intrinsics and mounting of the hood camera.

    ``pitch_deg`` is negative when looking down.  ``forward_offset`` places
    the camera ahead of the vehicle centre (on the hood).  ``max_depth``
    bounds the ground pass; everything further renders as horizon haze.
    """

    width: int = 96
    height: int = 64
    fov_deg: float = 100.0
    mount_height: float = 1.5
    pitch_deg: float = -8.0
    forward_offset: float = 1.0
    max_depth: float = 90.0

    def __post_init__(self) -> None:
        if self.width < 8 or self.height < 8:
            raise ValueError("camera resolution too small")
        if not 20.0 <= self.fov_deg <= 160.0:
            raise ValueError("fov must be within [20, 160] degrees")
        if not (math.isfinite(self.max_depth) and self.max_depth > 0.0):
            raise ValueError("max_depth must be finite and positive")

    @property
    def focal_px(self) -> float:
        """Focal length in pixels (square pixels assumed)."""
        return (self.width / 2.0) / math.tan(math.radians(self.fov_deg) / 2.0)


class TownTexture:
    """Rasterised ground-truth texture of a town, one palette id per texel.

    Built once per town at ``resolution`` metres per texel.  Each texel
    holds an id naming a (colour, surface class) pair; three small
    per-texture tables map an id to its uint8 RGB, float32 RGB and
    surface class.  Surface classes (:meth:`Town.classify_grid`, windowed
    per road and junction) give the first three ids, then lane markings
    and building footprints stamp ids of their colour over each texel's
    class (markings stay ``ROAD``).  The ids are one byte per texel while
    a town has at most 256 pairs and widen past that; no RGB or float32
    raster is ever built, so the 4x4 benchmark town holds ~1.3 MB where
    three full rasters held ~19 MB.  Construction does work in
    proportion to the painted area, not the grid.  Sampling is a clipped
    nearest-neighbour lookup, vectorised over pixel batches: one gather
    of ids, then one gather from a table.
    """

    def __init__(self, town: Town, resolution: float = 0.25, margin: float = 12.0):
        check_texture_resolution(resolution)
        self.resolution = resolution
        xmin, ymin, xmax, ymax = town.bounds
        self.x0 = xmin - margin
        self.y0 = ymin - margin
        self.nx = int(math.ceil((xmax - xmin + 2 * margin) / resolution))
        self.ny = int(math.ceil((ymax - ymin + 2 * margin) / resolution))
        xs = self.x0 + (np.arange(self.nx) + 0.5) * resolution
        ys = self.y0 + (np.arange(self.ny) + 0.5) * resolution
        classes = town.classify_grid(xs, ys)
        # The plain surfaces are ids 0-2, equal to their class values, so
        # the class raster is the unstamped id raster.  The flat ids
        # carry one extra texel, the off-map id, so the per-frame gather
        # reads off-map points from the raster too.
        self._ids = np.empty(self.nx * self.ny + 1, dtype=np.uint8)
        self._ids[:-1] = classes.reshape(-1)
        self._ids[-1] = int(SurfaceType.OFFROAD)
        self._off_map_texel = self.nx * self.ny
        #: (r, g, b, surface class) -> id, in the order ids were handed out.
        self._pairs: dict[tuple[int, int, int, int], int] = {}
        for surface in SurfaceType:
            self._pair_id(SURFACE_COLORS[int(surface)], int(surface))
        self._stamp_markings(classes, town)
        self._stamp_buildings(classes, town.buildings)
        palette = np.array(list(self._pairs), dtype=np.uint8)
        self._rgb = np.ascontiguousarray(palette[:, :3])
        # The renderer's ground pass gathers from the f32 table directly
        # (uint8 -> f32 casts are exact, so pre-casting changes no values).
        self._rgb_f32 = self._rgb.astype(np.float32)
        self._classes = np.ascontiguousarray(palette[:, 3])
        del self._pairs
        # 1/resolution, used only for power-of-two resolutions: both the
        # inverse and the multiply are then pure exponent shifts, so
        # ``x * inv`` is bit-identical to ``x / resolution`` for every x.
        self._inv_res = 1.0 / resolution if math.frexp(resolution)[0] == 0.5 else None
        #: Map origin and size, shaped against stacked ``(2, N)`` points.
        self._origin = np.array([[self.x0], [self.y0]])
        self._extent = np.array([[self.nx], [self.ny]], dtype=np.uint64)

    def _pair_id(self, color, surface: int) -> int:
        """The id of ``(color, surface)``, handing out the next id if new.

        The id raster widens to the next unsigned dtype when an id no
        longer fits, so ids never wrap.
        """
        key = (*color, surface)
        pid = self._pairs.get(key)
        if pid is None:
            pid = self._pairs[key] = len(self._pairs)
            if pid > np.iinfo(self._ids.dtype).max:
                self._ids = self._ids.astype(np.min_scalar_type(pid))
        return pid

    def _stamp(self, classes: np.ndarray, where, color) -> None:
        """Paint ``color`` on the texels ``where`` indexes, keeping each
        texel's surface class."""
        under = classes[where]
        lut = np.zeros(len(SurfaceType), dtype=np.int64)
        for surface in np.flatnonzero(np.bincount(under.reshape(-1), minlength=len(lut))):
            lut[surface] = self._pair_id(color, int(surface))
        self._ids[:-1].reshape(self.ny, self.nx)[where] = lut[under]

    def _stamp_markings(self, classes: np.ndarray, town: Town) -> None:
        """Paint each stripe's texel squares with one index write.

        A stripe is a run of points ``resolution * 0.75`` apart, each
        painting the ``(2 * half_w - 1)``-texel square around its texel
        (clipped to the grid).  Rows and columns truncate toward zero
        like ``int()``; stripes paint in :meth:`Town.markings` order, so
        a later stripe overwrites an earlier one where they cross.
        """
        for stripe in town.markings():
            pts = stripe.polyline.resampled_xy(self.resolution * 0.75)
            half_w_tex = max(1, int(round(stripe.width / 2.0 / self.resolution)))
            off = np.arange(-half_w_tex + 1, half_w_tex)
            rows = ((pts[:, 1] - self.y0) / self.resolution).astype(np.int64)
            cols = ((pts[:, 0] - self.x0) / self.resolution).astype(np.int64)
            rr, cc = np.broadcast_arrays(
                rows[:, None, None] + off[:, None], cols[:, None, None] + off
            )
            inside = (rr >= 0) & (rr < self.ny) & (cc >= 0) & (cc < self.nx)
            self._stamp(classes, (rr[inside], cc[inside]), stripe.color)

    def _stamp_buildings(self, classes: np.ndarray, buildings: list[Building]) -> None:
        for b in buildings:
            corners = b.box.corners()
            xs = [c.x for c in corners]
            ys = [c.y for c in corners]
            c0 = max(0, int((min(xs) - self.x0) / self.resolution))
            c1 = min(self.nx, int((max(xs) - self.x0) / self.resolution) + 1)
            r0 = max(0, int((min(ys) - self.y0) / self.resolution))
            r1 = min(self.ny, int((max(ys) - self.y0) / self.resolution) + 1)
            if r0 < r1 and c0 < c1:
                footprint = tuple(int(ch * 0.55) for ch in b.color)
                self._stamp(classes, np.s_[r0:r1, c0:c1], footprint)

    @property
    def texture(self) -> np.ndarray:
        """The RGB raster ``(ny, nx, 3)`` uint8, built on request (read-only)."""
        return self._materialise(self._rgb)

    @property
    def classes(self) -> np.ndarray:
        """The surface-class raster ``(ny, nx)`` uint8, built on request
        (read-only); markings and footprints keep the class under them."""
        return self._materialise(self._classes)

    @property
    def nbytes(self) -> int:
        """Bytes the texture holds: the id raster and its three tables."""
        return self._ids.nbytes + self._rgb.nbytes + self._rgb_f32.nbytes + self._classes.nbytes

    def _materialise(self, table: np.ndarray) -> np.ndarray:
        out = np.take(table, self._ids[:-1].reshape(self.ny, self.nx), axis=0)
        out.flags.writeable = False
        return out

    def _flat_index(self, w: np.ndarray) -> np.ndarray:
        """Flat texel indices of stacked world points.

        ``w`` holds x then y along its first axis (shape ``(2, ...)``);
        the result has shape ``w.shape[1:]``.  Rows and columns truncate
        toward zero like ``int()``; off-map points index the off-map
        texel.
        """
        shape = w.shape[1:]
        w = w.reshape(2, -1)
        if self._inv_res is not None:
            rc = ((w - self._origin) * self._inv_res).astype(np.int64)
        else:
            rc = ((w - self._origin) / self.resolution).astype(np.int64)
        # Unsigned views fold each axis's two range checks into one
        # comparison (negative int64 indices reinterpret as huge uint64).
        inside = rc.view(np.uint64) < self._extent
        inside = inside[0] & inside[1]
        flat = rc[1] * self.nx + rc[0]
        if not inside.all():
            flat = np.where(inside, flat, self._off_map_texel)
        return flat.reshape(shape)

    def _lookup(self, table: np.ndarray, w: np.ndarray) -> np.ndarray:
        return np.take(table, np.take(self._ids, self._flat_index(w)), axis=0)

    def sample(self, xy: np.ndarray) -> np.ndarray:
        """Nearest-neighbour colour lookup for world points ``(N, 2)``."""
        return self._lookup(self._rgb, xy.T)

    def sample_xy(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """:meth:`sample` on separate coordinate arrays."""
        return self._lookup(self._rgb, np.stack([x, y]))

    def sample_f32(self, w: np.ndarray) -> np.ndarray:
        """Colours of stacked world points ``w`` (``(2, ...)``) as float32.

        The renderer's working dtype, gathered from the pre-cast f32
        table: identical values to ``sample_xy(*w).astype(np.float32)``.
        """
        return self._lookup(self._rgb_f32, w)

    def sample_classes(self, xy: np.ndarray) -> np.ndarray:
        """Surface-class lookup for world points ``(N, 2)`` (uint8)."""
        return self._lookup(self._classes, xy.T)

    def sample_classes_xy(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """:meth:`sample_classes` on separate coordinate arrays."""
        return self._lookup(self._classes, np.stack([x, y]))


class Renderer:
    """Renders camera frames for one town + camera configuration."""

    def __init__(self, town: Town, camera: CameraModel | None = None, texture_resolution: float = 0.25):
        self.town = town
        self.camera = camera or CameraModel()
        self.texture = TownTexture(town, texture_resolution)
        self._precompute_rays()
        self._sky = self._make_sky()
        self._precompute_static()

    # ------------------------------------------------------------------
    # Precomputation
    # ------------------------------------------------------------------
    def _precompute_rays(self) -> None:
        cam = self.camera
        f = cam.focal_px
        cx = (cam.width - 1) / 2.0
        cy = (cam.height - 1) / 2.0
        u, v = np.meshgrid(np.arange(cam.width), np.arange(cam.height))
        # Camera-frame ray directions: X forward, Y left, Z up.
        dir_y = -(u - cx) / f
        dir_z = -(v - cy) / f
        theta = math.radians(cam.pitch_deg)
        c, s = math.cos(theta), math.sin(theta)
        # Rotate camera frame to vehicle frame (pitch about the Y/left axis).
        vx = c * 1.0 - s * dir_z
        vz = s * 1.0 + c * dir_z
        vy = dir_y
        descending = vz < -1e-6
        # Rays at/above the horizon get t=0 so the arrays stay finite; the
        # ground mask excludes them anyway.
        t = np.where(descending, cam.mount_height / np.where(descending, -vz, 1.0), 0.0)
        ground_x = cam.forward_offset + t * vx
        ground_y = t * vy
        depth = t * np.hypot(vx, vy)
        self._ground_mask = descending & (depth <= cam.max_depth) & (ground_x > 0.0)
        self._ground_local = np.stack([ground_x, ground_y], axis=-1)
        self._ground_depth = depth
        self._descending = descending

    def _make_sky(self) -> np.ndarray:
        cam = self.camera
        rows = np.linspace(0.0, 1.0, cam.height, dtype=np.float32)[:, None, None]
        sky = SKY_TOP[None, None, :] * (1.0 - rows) + SKY_BOTTOM[None, None, :] * rows
        return np.broadcast_to(sky, (cam.height, cam.width, 3)).copy()

    def _precompute_static(self) -> None:
        """Per-renderer state reused by every frame.

        The ground pass only touches pixels under the horizon, so the
        precomputed local ground points/depths are stored masked (flat
        index + compact arrays).  Below-horizon pixels past max depth
        always render as haze regardless of pose, so the haze is baked
        into the per-frame base image.  Buildings are static: their
        centres, extents, heights and colours stack once into arrays the
        billboard pass reuses.
        """
        mask = self._ground_mask
        self._ground_flat = np.flatnonzero(mask.ravel())
        self._ground_x = self._ground_local[..., 0][mask]
        self._ground_y = self._ground_local[..., 1][mask]
        self._ground_depth_m = self._ground_depth[mask]
        self._ground_depth_m32 = self._ground_depth_m.astype(np.float32)
        # Ground pixels are stored in row-major order, and the bottom of
        # the image is typically a solid all-ground block: write that part
        # with one contiguous block assignment and scatter only the ragged
        # rows near the horizon.
        # First row index v such that every row v..h-1 is fully masked.
        h = self.camera.height
        v = h
        while v > 0 and mask[v - 1].all():
            v -= 1
        self._ground_block_row = v
        n_block = (h - v) * self.camera.width
        self._ground_scatter_idx = self._ground_flat[: len(self._ground_flat) - n_block]
        self._ground_split = len(self._ground_flat) - n_block
        haze_mask = (
            (~mask) & self._descending & (self._ground_depth >= self.camera.max_depth)
        )
        base = self._sky.copy()
        base[haze_mask] = FOG_COLOR
        self._frame_base = base
        #: Per-weather cache of ground-pass fog alphas (f32, masked shape).
        self._ground_alpha_cache: dict[float, tuple[np.ndarray, np.ndarray]] = {}
        #: Episode-stacked variant, keyed on a batch's fog-density tuple.
        self._ground_alpha_multi_cache: dict[
            tuple[float, ...], tuple[np.ndarray, np.ndarray]
        ] = {}

        buildings = self.town.buildings
        self._bb_color_rows = [b.color for b in buildings]
        # Stacked (7, n_b) building block for the billboard pass: rows are
        # [cx, cy, crel, srel, hl, hw, height]; the crel/srel rows are
        # frame-dependent placeholders overwritten per frame.
        boxes = [b.box for b in buildings]
        self._bb_block = np.array(
            [
                [box.center.x for box in boxes],
                [box.center.y for box in boxes],
                [0.0] * len(boxes),
                [0.0] * len(boxes),
                [box.half_length for box in boxes],
                [box.half_width for box in boxes],
                [b.height for b in buildings],
            ],
            dtype=np.float64,
        )

        # SurfaceType id -> SemanticClass id lookup for the ground pass.
        lut = np.zeros(max(SemanticClass.FROM_SURFACE) + 1, dtype=np.uint8)
        for surf, sem_id in SemanticClass.FROM_SURFACE.items():
            lut[surf] = sem_id
        self._sem_lut = lut

        # Scalars of the billboard corner projection (see _box_bounds).
        cam = self.camera
        theta = math.radians(cam.pitch_deg)
        cth, sth = math.cos(theta), math.sin(theta)
        qz0 = 0.0 - cam.mount_height
        self._box_consts = (
            cam.forward_offset,
            cth,
            sth,
            qz0 * sth,
            qz0 * cth,
            cam.focal_px,
            (cam.width - 1) / 2.0,
            (cam.height - 1) / 2.0,
        )

    def _ground_alpha(self, fog_density: float) -> tuple[np.ndarray, np.ndarray]:
        """Cached ``(FOG_COLOR * alpha, 1 - alpha)`` f32 ground fog terms.

        Identical to the per-frame computation it replaces (clip to the
        weather's visibility, optional fog exponent, f32 cast); the result
        depends only on ``fog_density``, so one entry per weather serves
        the whole episode.  Both terms are contiguous ``(N, 3)`` arrays:
        the blend then runs as a plain elementwise multiply, ~5x faster
        than broadcasting an ``(N, 1)`` operand along the colour axis.
        """
        cached = self._ground_alpha_cache.get(fog_density)
        if cached is None:
            visibility = self.camera.max_depth * (1.0 - 0.85 * fog_density)
            alpha = np.clip(self._ground_depth_m / visibility, 0.0, 1.0)[
                :, None
            ].astype(np.float32)
            if fog_density > 0.0:
                alpha = alpha ** max(0.5, (1.0 - fog_density))
            cached = (
                FOG_COLOR[None, :] * alpha,
                np.ascontiguousarray(np.broadcast_to(1.0 - alpha, (len(alpha), 3))),
            )
            # Renderers live for the whole worker process (SceneCache), so
            # a fog-density sweep must not accumulate arrays without
            # bound; evicting the oldest entry only costs a recompute.
            if len(self._ground_alpha_cache) >= 16:
                self._ground_alpha_cache.pop(next(iter(self._ground_alpha_cache)))
            self._ground_alpha_cache[fog_density] = cached
        return cached

    def _ground_alpha_multi(
        self, fog_densities: tuple[float, ...]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Episode-stacked ``(fog_term, 1 - alpha)`` for a batch of weathers.

        ``np.stack`` of the per-episode :meth:`_ground_alpha` pairs along
        a new leading axis — cached on the fog-density tuple because a
        multiplexed slot's weathers are fixed for the whole slot, so every
        frame after the first reuses the stacked arrays.
        """
        cached = self._ground_alpha_multi_cache.get(fog_densities)
        if cached is None:
            pairs = [self._ground_alpha(f) for f in fog_densities]
            cached = (
                np.stack([p[0] for p in pairs]),
                np.stack([p[1] for p in pairs]),
            )
            if len(self._ground_alpha_multi_cache) >= 8:
                self._ground_alpha_multi_cache.pop(
                    next(iter(self._ground_alpha_multi_cache))
                )
            self._ground_alpha_multi_cache[fog_densities] = cached
        return cached

    # ------------------------------------------------------------------
    # Projection helpers (billboard pass)
    # ------------------------------------------------------------------
    def _project(self, pts_vehicle: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Project vehicle-frame 3-D points to pixel coordinates.

        ``pts_vehicle`` has shape ``(N, 3)`` (x forward, y left, z up,
        relative to the vehicle origin on the ground).  Returns
        ``(u, v, depth)``; points behind the camera get non-positive depth.
        """
        cam = self.camera
        q = pts_vehicle.astype(np.float64).copy()
        q[:, 0] -= cam.forward_offset
        q[:, 2] -= cam.mount_height
        theta = math.radians(cam.pitch_deg)
        c, s = math.cos(theta), math.sin(theta)
        xc = q[:, 0] * c + q[:, 2] * s
        zc = -q[:, 0] * s + q[:, 2] * c
        yc = q[:, 1]
        f = cam.focal_px
        cx = (cam.width - 1) / 2.0
        cy = (cam.height - 1) / 2.0
        with np.errstate(divide="ignore", invalid="ignore"):
            u = cx - f * yc / xc
            v = cy - f * zc / xc
        return u, v, xc

    #: Up to this many billboards left after culling project one by one
    #: in :meth:`_box_bounds`; more go through :meth:`_boxes_bounds`.
    #: Measured crossover: ~3 us per box in Python against a ~40 us fixed
    #: NumPy cost.  Perfbench's smoke and dense-mux frames have 0-10
    #: (the scalar side), the dense sensor bench ~56 per slot-frame.
    _SCALAR_BOXES = 16
    _CORNER_SX = np.array([1.0, 1.0, -1.0, -1.0])
    _CORNER_SY = np.array([1.0, -1.0, 1.0, -1.0])

    def _boxes_bounds(self, lx, ly, sub):
        """:meth:`_box_bounds` of many billboards in one NumPy pass.

        ``lx``/``ly`` hold the ego-frame centres and ``sub`` the
        ``(crel, srel, hl, hw, height)`` rows.  The 8 corners of every box
        project as one ``(k, 8)`` batch (bottom ring, then top ring),
        where the x/y corners are shared between the rings and only the
        z term differs; the expressions are :meth:`_project`'s.
        """
        cam = self.camera
        fo, cth, sth, qz0_s, qz0_c, foc, ccx, ccy = self._box_consts
        crel, srel, hl, hw, height = sub
        a = (hl * crel)[:, None]
        b = (hw * srel)[:, None]
        e = (hl * srel)[:, None]
        f = (hw * crel)[:, None]
        px = lx[:, None] + (self._CORNER_SX * a - self._CORNER_SY * b)
        py = ly[:, None] + (self._CORNER_SX * e + self._CORNER_SY * f)
        k = len(lx)
        qx = np.empty((k, 8))
        qx[:, :4] = px
        qx[:, 4:] = px
        np.subtract(qx, fo, out=qx)
        py8 = np.empty((k, 8))
        py8[:, :4] = py
        py8[:, 4:] = py
        qz = np.empty((k, 8))
        qz[:, :4] = 0.0 - cam.mount_height
        qz[:, 4:] = (height - cam.mount_height)[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            xc = qx * cth + qz * sth
            zc = qx * (-sth) + qz * cth
            u = ccx - foc * py8 / xc
            v = ccy - foc * zc / xc
        behind = (xc < 0.2).any(1).tolist()
        bounds = zip(u.min(1).tolist(), u.max(1).tolist(), v.min(1).tolist(), v.max(1).tolist())
        return [None if bad else bd for bad, bd in zip(behind, bounds)]

    def _box_bounds(self, lx, ly, crel, srel, hl, hw, height):
        """Pixel bounds ``(u0, u1, v0, v1)`` of one billboard, or ``None``.

        Projects the box's 8 corners (bottom ring z=0, top ring
        z=height) through :meth:`_project`'s expressions on Python floats,
        which round as NumPy's float64 ufuncs do, so the bounds are the
        bits the array version gives.  ``None`` when a corner is closer
        than 0.2 m to the camera plane (never painted); no division
        happens then.  The corners are ``(lx, ly) + (SX*a - SY*b, SX*e +
        SY*f)`` with ``a, e = hl*(crel, srel)``, ``b, f = hw*(srel, crel)``
        and the signs ``(SX, SY)`` in ``(1, 1), (1, -1), (-1, 1), (-1, -1)``
        order, written out (``x - (-y)`` is ``x + y`` in IEEE arithmetic).
        """
        fo, cth, sth, qz0_s, qz0_c, foc, ccx, ccy = self._box_consts
        a = hl * crel
        b = hw * srel
        e = hl * srel
        f = hw * crel
        qz1 = height - self.camera.mount_height
        qz1_s = qz1 * sth
        qz1_c = qz1 * cth
        us = []
        vs = []
        for px, py in (
            (lx + (a - b), ly + (e + f)),
            (lx + (a + b), ly + (e - f)),
            (lx + (-a - b), ly + (-e + f)),
            (lx + (-a + b), ly + (-e - f)),
        ):
            qx = px - fo
            xc0 = qx * cth + qz0_s
            xc1 = qx * cth + qz1_s
            if xc0 < 0.2 or xc1 < 0.2:
                return None
            zq = qx * (-sth)
            fy = foc * py
            us += (ccx - fy / xc0, ccx - fy / xc1)
            vs += (ccy - foc * (zq + qz0_c) / xc0, ccy - foc * (zq + qz1_c) / xc1)
        if not math.isfinite(crel + srel + hl + hw + height):
            # NumPy's min/max propagate NaN; Python's do not.
            nan = math.nan
            if any(u != u for u in us):
                us = [nan]
            if any(v != v for v in vs):
                vs = [nan]
        return min(us), max(us), min(vs), max(vs)

    def _billboard_geometry_multi(self, egos, actor_lists):
        """Cull, project and depth-sort every episode's drawables at once.

        ``egos``/``actor_lists`` pair one ego :class:`Transform` and one
        actor list per episode.  Drawables are numbered episode by
        episode, buildings first, into one ``(7, total)`` row buffer
        (static building block plus per-actor columns, ``math`` trig for
        the relative yaws) beside the per-column ego pose, so one
        elementwise pass gives every drawable's ego-frame offset and an
        episode's bits never depend on its slot neighbours.

        Drawables behind the camera (``lx < 0.5``) or past ``max_depth``
        are never painted, so they are culled first; the few left (none
        on most smoke frames) project one by one in :meth:`_box_bounds`,
        or in one :meth:`_boxes_bounds` pass when there are many.
        Returns ``(paints, dist, offsets)``: ``paints[e]`` lists episode
        ``e``'s visible drawables far to near as ``(index, u0, u1, v0,
        v1)`` (a stable descending sort on the world-frame centre
        distance, restricted to the visible ones, which keeps their order
        in the full sort), with ``index`` numbering all episodes'
        drawables and the float pixel bounds unclipped.  ``dist`` lists
        every drawable's ego-frame distance (shading, fog, depth) and
        ``offsets`` holds the episode boundaries in that numbering.
        """
        n_b = self._bb_block.shape[1]
        offsets = [0]
        for al in actor_lists:
            offsets.append(offsets[-1] + n_b + len(al))
        total = offsets[-1]
        paints: list[list] = [[] for _ in egos]
        if total == 0:
            return paints, [], offsets
        buf = np.empty((7, total))
        # Per column: ego x, y, then (cos, sin) and (sin, -cos) of -yaw.
        pose = np.empty((6, total))
        for ego, actor_list, pos, nxt in zip(egos, actor_lists, offsets, offsets[1:]):
            nb_end = pos + n_b
            buf[:, pos:nb_end] = self._bb_block
            rel0 = 0.0 - ego.yaw
            buf[2:4, pos:nb_end] = ((math.cos(rel0),), (math.sin(rel0),))
            if actor_list:
                eyaw = ego.yaw
                buf[:, nb_end:nxt] = list(
                    zip(
                        *[
                            (
                                a.transform.position.x,
                                a.transform.position.y,
                                math.cos(a.yaw - eyaw),
                                math.sin(a.yaw - eyaw),
                                a.half_length,
                                a.half_width,
                                a.height,
                            )
                            for a in actor_list
                        ]
                    )
                )
            c2, s2 = math.cos(-ego.yaw), math.sin(-ego.yaw)
            pose[:, pos:nxt] = ((ego.position.x,), (ego.position.y,), (c2,), (s2,), (s2,), (-c2,))
        # World offsets (dx, dy) and their ego-frame rotation (lx, ly):
        # lx = c2*dx - s2*dy and ly = s2*dx - (-c2)*dy, stacked.
        d = buf[0:2] - pose[0:2]
        loc = pose[2:4] * d[0] - pose[4:6] * d[1]
        # math.hypot for the sort key and the ego-frame distance: np.hypot
        # is not bit-identical to it, and the golden frames pin these bits.
        hyp = math.hypot
        lxl, lyl = loc.tolist()
        dist_list = list(map(hyp, lxl, lyl))
        max_depth = self.camera.max_depth
        cand = [i for i in range(total) if lxl[i] >= 0.5 and dist_list[i] <= max_depth]
        if cand:
            dxl, dyl = d.tolist()
            sub = buf[2:7, cand]
            if len(cand) > self._SCALAR_BOXES:
                found = self._boxes_bounds(loc[0, cand], loc[1, cand], sub)
            else:
                found = [
                    self._box_bounds(lxl[i], lyl[i], *row)
                    for i, row in zip(cand, sub.T.tolist())
                ]
            episode = 0
            for i, bounds in zip(cand, found):
                if bounds is None:
                    continue
                while i >= offsets[episode + 1]:
                    episode += 1
                paints[episode].append((i, *bounds))
            for paint in paints:
                # Candidates were appended in index order, so this stable
                # sort keeps the full sort's order among equal keys.
                paint.sort(key=lambda item: hyp(dxl[item[0]], dyl[item[0]]), reverse=True)
        return paints, dist_list, offsets

    def _paint_billboards(self, target, paint, values) -> None:
        """Paint far-to-near; ``values[index]`` fills a drawable's rect."""
        wmax = self.camera.width - 1
        hmax = self.camera.height - 1
        floor, ceil = math.floor, math.ceil
        for i, u0, u1, v0, v1 in paint:
            a0 = max(0, floor(u0))
            a1 = min(wmax, ceil(u1))
            b0 = max(0, floor(v0))
            b1 = min(hmax, ceil(v1))
            if a0 > a1 or b0 > b1:
                continue
            target[b0 : b1 + 1, a0 : a1 + 1] = values[i]

    def _billboard_colors_multi(
        self,
        actor_lists: list[list],
        paints: list[list],
        dist: list[float],
        offsets: list[int],
        weathers: list[Weather],
    ) -> dict[int, np.ndarray]:
        """Shaded + fogged uint8 fill colours of the drawables to paint.

        Keyed by :meth:`_billboard_geometry_multi`'s drawable index; only
        the drawables in ``paints`` are coloured (none, on most smoke
        frames).  Shade and fog alpha are float64 scalars per drawable
        (the arithmetic NumPy's float64 ufuncs do), and the float32
        blend runs once over all episodes.  The fog-gamma power stays a
        NumPy power with a *scalar* exponent per episode: its fast paths
        (e.g. ``** 0.5`` -> sqrt) are not guaranteed bit-identical to
        Python's ``pow``, and a scalar exponent keeps an episode's bits
        independent of its batch neighbours.
        """
        sel = [item[0] for paint in paints for item in paint]
        if not sel:
            return {}
        max_depth = self.camera.max_depth
        n_b = self._bb_block.shape[1]
        rows = []
        shade = []
        fog = []
        for actor_list, paint, pos, weather in zip(actor_lists, paints, offsets, weathers):
            visibility = max_depth * (1.0 - 0.85 * weather.fog_density)
            fog_a = []
            for item in paint:
                j = item[0] - pos
                rows.append(self._bb_color_rows[j] if j < n_b else actor_list[j - n_b].color)
                d = dist[item[0]]
                shade.append(1.0 - 0.35 * min(d / max_depth, 1.0))
                fog_a.append(min(1.0, max(0.0, d / visibility)))
            if weather.fog_density > 0.0 and fog_a:
                fog_a = (np.array(fog_a) ** max(0.5, 1.0 - weather.fog_density)).tolist()
            fog += fog_a
        cols = np.array(rows, dtype=np.float32)
        cols *= np.array(shade, dtype=np.float32)[:, None]
        cols = (
            cols * np.array([1.0 - f for f in fog], dtype=np.float32)[:, None]
            + FOG_COLOR[None, :] * np.array(fog, dtype=np.float32)[:, None]
        )
        return dict(zip(sel, cols.astype(np.uint8)))

    def _apply_atmosphere(
        self,
        img: np.ndarray,
        weather: Weather,
        rng: np.random.Generator | None,
    ) -> np.ndarray:
        """Rain streaks + brightness; returns the final uint8 frame.

        The streak update is a single fancy-indexed pass; pixels covered
        by k overlapping streaks get the darken/brighten transform applied
        k times, which is exactly what the retired per-streak loop
        produced.  Runs once per episode, so every episode's rng draws
        happen in the same order with the same arguments however the
        episodes are batched.
        """
        cam = self.camera
        if weather.rain_intensity > 0.0 and rng is not None:
            n = int(weather.rain_intensity * cam.width * cam.height * 0.01)
            if n > 0:
                us = rng.integers(0, cam.width, n)
                vs = rng.integers(0, max(1, cam.height - 4), n)
                lengths = rng.integers(2, 5, n)
                offsets = np.arange(int(lengths.sum())) - np.repeat(
                    np.cumsum(lengths) - lengths, lengths
                )
                rows = np.repeat(vs, lengths) + offsets
                flat = rows * cam.width + np.repeat(us, lengths)
                cells, counts = np.unique(flat, return_counts=True)
                pixels = img.reshape(-1, 3)
                vals = pixels[cells]
                vals = np.minimum(vals * 0.7 + 90.0, 255.0)
                for k in range(2, int(counts.max()) + 1):
                    again = counts >= k
                    vals[again] = np.minimum(vals[again] * 0.7 + 90.0, 255.0)
                pixels[cells] = vals
        if weather.brightness != 1.0:
            img = img * weather.brightness
        if weather.brightness <= 1.0:
            # Every source (sky gradient, convex fog blends, uint8-cast
            # billboards, 255-clamped rain) is already in [0, 255] and a
            # brightness <= 1 keeps it there: the clip is an identity.
            return img.astype(np.uint8)
        return np.clip(img, 0.0, 255.0).astype(np.uint8)

    def _scatter_ground(self, img: np.ndarray, colors: np.ndarray) -> None:
        """Write fogged ground colours into a frame (scatter + block)."""
        cam = self.camera
        split = self._ground_split
        if split:
            img.reshape(-1, 3)[self._ground_scatter_idx] = colors[:split]
        if self._ground_block_row < cam.height:
            img[self._ground_block_row :] = colors[split:].reshape(-1, cam.width, 3)

    # ------------------------------------------------------------------
    # Main entry point
    # ------------------------------------------------------------------
    def render(
        self,
        ego: Transform,
        actors: list | None = None,
        weather: Weather | None = None,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        """Render one RGB frame from the ego vehicle's hood camera.

        ``actors`` is any iterable of objects with ``position``, ``yaw``,
        ``half_length``, ``half_width``, ``height`` and ``color`` attributes
        (the ego itself should not be included).  ``rng`` drives rain streak
        placement only.  A one-view :meth:`render_batch`.
        """
        return self.render_batch([(ego, actors, weather, rng)])[0]

    def render_batch(
        self,
        views: list[
            tuple[Transform, list | None, Weather | None, np.random.Generator | None]
        ],
    ) -> list[np.ndarray]:
        """Render many episodes' frames through this renderer in one batch.

        ``views`` holds one ``(ego, actors, weather, rng)`` tuple per
        episode; the return list pairs with it.  The ground and billboard
        passes run over all episodes stacked into ``(E, .)`` slabs of
        elementwise ops; everything order-sensitive (paint
        order, rain rng draws) stays per episode, so an episode's frame
        does not depend on which other episodes share its batch.  The
        episode multiplexer batches same-scene-fingerprint episodes (one
        shared renderer via the scene cache); serial episodes are a batch
        of one.
        """
        if not views:
            return []
        n_eps = len(views)
        # Batched ground pass: stacked world coordinates (all episodes'
        # x rows, then their y rows), one flat texture gather.  Per episode the pose
        # rows are (x, y), (cos, sin) and (sin, -cos) of the yaw, so
        # w = pose + gx*rot - gy*rot90 gives wx = (x + gx*c) - gy*s and
        # wy = (y + gx*s) - gy*(-c), which is (y + gx*s) + gy*c exactly.
        rows = []
        for ego, _, _, _ in views:
            c, s = math.cos(ego.yaw), math.sin(ego.yaw)
            rows.append((ego.position.x, ego.position.y, c, s, s, -c))
        pose = np.array(rows).T.reshape(3, 2 * n_eps, 1)
        w = pose[0] + self._ground_x * pose[1]
        w -= self._ground_y * pose[2]
        colors = self.texture.sample_f32(w.reshape(2, -1)).reshape(n_eps, -1, 3)
        # Ground fog: per-episode cached (fog_term, 1 - alpha) pairs
        # stacked along the episode axis and applied in one pass.
        weathers = [w or Weather("ClearNoon") for (_, _, w, _) in views]
        fog_term, one_minus = self._ground_alpha_multi(
            tuple(w.fog_density for w in weathers)
        )
        np.multiply(colors, one_minus, out=colors)
        np.add(colors, fog_term, out=colors)

        # Billboard geometry and fill colours for all episodes in one
        # concatenated dispatch each.
        actor_lists = [list(actors or []) for (_, actors, _, _) in views]
        paints, dist, offsets = self._billboard_geometry_multi(
            [ego for (ego, _, _, _) in views], actor_lists
        )
        fill = self._billboard_colors_multi(actor_lists, paints, dist, offsets, weathers)

        out: list[np.ndarray] = []
        for (_, _, _, rng), weather, paint, ground in zip(
            views, weathers, paints, colors
        ):
            # Sky gradient with the constant beyond-max-depth haze pre-baked.
            img = self._frame_base.copy()
            self._scatter_ground(img, ground)
            self._paint_billboards(img, paint, fill)
            out.append(self._apply_atmosphere(img, weather, rng))
        return out

    # ------------------------------------------------------------------
    # Ground-truth layers (semantic segmentation + depth)
    # ------------------------------------------------------------------
    def render_semantic_depth(
        self, ego: Transform, actors: list | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Ground-truth semantic and depth images for the current view.

        Returns ``(semantic, depth)``: a ``uint8`` class map using
        :class:`SemanticClass` ids and a ``float32`` depth map in metres
        (``inf`` for sky).  These are the CARLA-style auxiliary camera
        outputs — not consumed by the IL-CNN, but the natural substrate
        for perception-level fault studies and for labelling datasets.
        """
        cam = self.camera
        semantic = np.full((cam.height, cam.width), SemanticClass.SKY, dtype=np.uint8)
        depth = np.full((cam.height, cam.width), np.inf, dtype=np.float32)

        # Ground pass over the precomputed below-horizon pixels.
        cos_y, sin_y = math.cos(ego.yaw), math.sin(ego.yaw)
        wx = ego.position.x + self._ground_x * cos_y - self._ground_y * sin_y
        wy = ego.position.y + self._ground_x * sin_y + self._ground_y * cos_y
        surface = self.texture.sample_classes_xy(wx, wy)
        semantic.reshape(-1)[self._ground_flat] = self._sem_lut[surface]
        depth.reshape(-1)[self._ground_flat] = self._ground_depth_m32

        # Billboard pass shares the batched geometry with render(); only
        # the painted payload differs (class ids + centre distances).
        actor_list = list(actors or [])
        paints, dist, _ = self._billboard_geometry_multi([ego], [actor_list])
        classes = [SemanticClass.BUILDING] * self._bb_block.shape[1] + [
            SemanticClass.PEDESTRIAN
            if getattr(a, "role", "") == "pedestrian"
            else SemanticClass.VEHICLE
            for a in actor_list
        ]
        self._paint_billboards(semantic, paints[0], classes)
        self._paint_billboards(depth, paints[0], dist)
        return semantic, depth
