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
from dataclasses import dataclass

import numpy as np

from .geometry import Transform, Vec2
from .town import Building, SurfaceType, Town
from .weather import Weather

__all__ = ["CameraModel", "TownTexture", "Renderer", "SURFACE_COLORS", "SemanticClass"]


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
    """Rasterised ground-truth texture of a town.

    Built once per town at ``resolution`` metres per texel: surface classes
    are colour-mapped, then lane markings and building footprints are
    stamped on top.  Sampling is a clipped nearest-neighbour lookup,
    vectorised over pixel batches.
    """

    def __init__(self, town: Town, resolution: float = 0.25, margin: float = 12.0):
        if resolution <= 0:
            raise ValueError("resolution must be positive")
        self.resolution = resolution
        xmin, ymin, xmax, ymax = town.bounds
        self.x0 = xmin - margin
        self.y0 = ymin - margin
        self.nx = int(math.ceil((xmax - xmin + 2 * margin) / resolution))
        self.ny = int(math.ceil((ymax - ymin + 2 * margin) / resolution))
        xs = self.x0 + (np.arange(self.nx) + 0.5) * resolution
        ys = self.y0 + (np.arange(self.ny) + 0.5) * resolution
        gx, gy = np.meshgrid(xs, ys)  # shape (ny, nx)
        pts = np.column_stack([gx.ravel(), gy.ravel()])
        classes = town.classify_points(pts).reshape(self.ny, self.nx)
        tex = np.zeros((self.ny, self.nx, 3), dtype=np.uint8)
        for cls, color in SURFACE_COLORS.items():
            tex[classes == cls] = color
        self._stamp_markings(tex, town)
        self._stamp_buildings(tex, town.buildings)
        self.texture = tex
        # Surface-class raster for the semantic camera (markings stay ROAD).
        self.classes = classes
        # Gather-friendly variants: flat row-major tables so a pixel
        # lookup is a single ``np.take`` over precomputed flat indices
        # instead of advanced indexing with two index arrays.  The f32
        # copy feeds the renderer's ground pass directly (uint8 -> f32
        # casts are exact, so pre-casting changes no values).
        self._tex_flat = tex.reshape(-1, 3)
        self._tex_f32 = self._tex_flat.astype(np.float32)
        self._classes_flat = classes.reshape(-1)
        self._offroad_u8 = np.array(
            SURFACE_COLORS[int(SurfaceType.OFFROAD)], dtype=np.uint8
        )
        self._offroad_f32 = self._offroad_u8.astype(np.float32)
        # 1/resolution, used only for power-of-two resolutions: both the
        # inverse and the multiply are then pure exponent shifts, so
        # ``x * inv`` is bit-identical to ``x / resolution`` for every x.
        self._inv_res = 1.0 / resolution if math.frexp(resolution)[0] == 0.5 else None

    def _stamp_markings(self, tex: np.ndarray, town: Town) -> None:
        for stripe in town.markings():
            pts = stripe.polyline.resampled(self.resolution * 0.75).points
            half_w_tex = max(1, int(round(stripe.width / 2.0 / self.resolution)))
            dash_period = 6.0  # metres: 3 on, 3 off
            dist = 0.0
            prev = pts[0]
            for p in pts:
                dist += p.distance_to(prev)
                prev = p
                if stripe.dashed and (dist % dash_period) > dash_period / 2.0:
                    continue
                row = int((p.y - self.y0) / self.resolution)
                col = int((p.x - self.x0) / self.resolution)
                r0 = max(0, row - half_w_tex + 1)
                r1 = min(self.ny, row + half_w_tex)
                c0 = max(0, col - half_w_tex + 1)
                c1 = min(self.nx, col + half_w_tex)
                if r0 < r1 and c0 < c1:
                    tex[r0:r1, c0:c1] = stripe.color

    def _stamp_buildings(self, tex: np.ndarray, buildings: list[Building]) -> None:
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
                tex[r0:r1, c0:c1] = footprint

    def _texel_rc(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if self._inv_res is not None:
            col = ((x - self.x0) * self._inv_res).astype(np.int64)
            row = ((y - self.y0) * self._inv_res).astype(np.int64)
        else:
            col = ((x - self.x0) / self.resolution).astype(np.int64)
            row = ((y - self.y0) / self.resolution).astype(np.int64)
        return row, col

    def sample(self, xy: np.ndarray) -> np.ndarray:
        """Nearest-neighbour colour lookup for world points ``(N, 2)``."""
        return self.sample_xy(xy[:, 0], xy[:, 1])

    def _flat_gather_idx(self, row: np.ndarray, col: np.ndarray):
        """Flat texel indices plus the out-of-map mask (``None`` if all in).

        Out-of-range rows/cols are clipped in place — callers overwrite
        the masked entries with the off-map colour/class, so the clipped
        gather value never survives.
        """
        # Unsigned views fold each axis's two range checks into one
        # comparison (negative int64 indices reinterpret as huge uint64).
        inside = (row.view(np.uint64) < self.ny) & (col.view(np.uint64) < self.nx)
        if inside.all():
            return row * self.nx + col, None
        np.clip(row, 0, self.ny - 1, out=row)
        np.clip(col, 0, self.nx - 1, out=col)
        return row * self.nx + col, ~inside

    def sample_xy(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """:meth:`sample` on separate coordinate arrays (no stacking)."""
        row, col = self._texel_rc(x, y)
        flat, outside = self._flat_gather_idx(row, col)
        out = np.take(self._tex_flat, flat, axis=0)
        if outside is not None:
            out[outside] = self._offroad_u8
        return out

    def sample_f32_xy(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """:meth:`sample_xy` as float32 (the renderer's working dtype).

        Gathers from a pre-cast f32 table; identical values to
        ``sample_xy(x, y).astype(np.float32)``.
        """
        row, col = self._texel_rc(x, y)
        flat, outside = self._flat_gather_idx(row, col)
        out = np.take(self._tex_f32, flat, axis=0)
        if outside is not None:
            out[outside] = self._offroad_f32
        return out

    def sample_classes(self, xy: np.ndarray) -> np.ndarray:
        """Surface-class lookup for world points ``(N, 2)`` (uint8)."""
        return self.sample_classes_xy(xy[:, 0], xy[:, 1])

    def sample_classes_xy(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """:meth:`sample_classes` on separate coordinate arrays."""
        row, col = self._texel_rc(x, y)
        flat, outside = self._flat_gather_idx(row, col)
        out = np.take(self._classes_flat, flat)
        if outside is not None:
            out[outside] = int(SurfaceType.OFFROAD)
        return out


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
        self._bb_colors = np.array(
            [b.color for b in buildings], dtype=np.float32
        ).reshape(len(buildings), 3)
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

    def _ground_alpha(self, fog_density: float) -> tuple[np.ndarray, np.ndarray]:
        """Cached ``(FOG_COLOR * alpha, 1 - alpha)`` f32 ground fog terms.

        Identical to the per-frame computation it replaces (clip to the
        weather's visibility, optional fog exponent, f32 cast); the result
        depends only on ``fog_density``, so one entry per weather serves
        the whole episode.
        """
        cached = self._ground_alpha_cache.get(fog_density)
        if cached is None:
            visibility = self.camera.max_depth * (1.0 - 0.85 * fog_density)
            alpha = np.clip(self._ground_depth_m / visibility, 0.0, 1.0)[
                :, None
            ].astype(np.float32)
            if fog_density > 0.0:
                alpha = alpha ** max(0.5, (1.0 - fog_density))
            cached = (FOG_COLOR[None, :] * alpha, 1.0 - alpha)
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

    _CORNER_SX = np.array([1.0, 1.0, -1.0, -1.0])
    _CORNER_SY = np.array([1.0, -1.0, 1.0, -1.0])

    def _billboard_geometry_multi(self, egos, actor_lists):
        """Cull, project and depth-sort every episode's drawables at once.

        ``egos``/``actor_lists`` pair one ego :class:`Transform` and one
        actor list per episode.  All drawables write into one
        concatenated ``(7, total)`` row buffer (static building block
        plus per-actor columns, buildings first, ``math`` trig for the
        relative yaws) with per-row ego scalars expanded along their
        episode's segment, so one elementwise pass serves every episode
        and an episode's bits never depend on its slot neighbours.
        Sorting stays per episode (a stable descending sort on the
        world-frame centre distance; paint order never crosses
        episodes).  Returns one ``(order, valid, u0, u1, v0, v1, dist)``
        tuple per episode: the far-to-near paint order, a visibility
        mask, the unclipped float pixel bounds of each billboard and the
        ego-frame distance used for shading/fog/depth.
        """
        cam = self.camera
        n_b = self._bb_block.shape[1]
        counts = [n_b + len(al) for al in actor_lists]
        total = sum(counts)
        if total == 0:
            return [([], [], [], [], [], [], np.empty(0)) for _ in egos]
        buf = np.empty((7, total))
        ex = np.empty(total)
        ey = np.empty(total)
        c2 = np.empty(total)
        s2 = np.empty(total)
        offsets = [0]
        pos = 0
        for ego, actor_list, n in zip(egos, actor_lists, counts):
            nxt = pos + n
            nb_end = pos + n_b
            buf[:, pos:nb_end] = self._bb_block
            rel0 = 0.0 - ego.yaw
            buf[2, pos:nb_end] = math.cos(rel0)
            buf[3, pos:nb_end] = math.sin(rel0)
            for i, a in enumerate(actor_list, start=nb_end):
                apos = a.transform.position
                rel = a.yaw - ego.yaw
                buf[:, i] = (
                    apos.x,
                    apos.y,
                    math.cos(rel),
                    math.sin(rel),
                    a.half_length,
                    a.half_width,
                    a.height,
                )
            ex[pos:nxt] = ego.position.x
            ey[pos:nxt] = ego.position.y
            c2[pos:nxt] = math.cos(-ego.yaw)
            s2[pos:nxt] = math.sin(-ego.yaw)
            pos = nxt
            offsets.append(pos)
        cx, cy, crel, srel, hl, hw, height = buf
        dx = cx - ex
        dy = cy - ey
        lx = c2 * dx - s2 * dy
        ly = s2 * dx + c2 * dy
        # math.hypot for the sort key and the ego-frame distance: np.hypot
        # is not bit-identical to it, and the golden frames pin these bits.
        hyp = math.hypot
        sort_key = [hyp(a, b) for a, b in zip(dx.tolist(), dy.tolist())]
        dist = np.array([hyp(a, b) for a, b in zip(lx.tolist(), ly.tolist())])
        keep = (lx >= 0.5) & (dist <= cam.max_depth)

        # Corner offsets in the ego frame (the corner signs are +-1).
        a = (hl * crel)[:, None]
        b = (hw * srel)[:, None]
        e = (hl * srel)[:, None]
        f = (hw * crel)[:, None]
        px = lx[:, None] + (self._CORNER_SX[None, :] * a - self._CORNER_SY[None, :] * b)
        py = ly[:, None] + (self._CORNER_SX[None, :] * e + self._CORNER_SY[None, :] * f)
        # Project the 8 box corners (bottom ring z=0, top ring z=height):
        # _project() unrolled over one (total, 8) batch, where the x/y
        # corners are shared between the rings and only the z term differs.
        theta = math.radians(cam.pitch_deg)
        cth, sth = math.cos(theta), math.sin(theta)
        foc = cam.focal_px
        ccx = (cam.width - 1) / 2.0
        ccy = (cam.height - 1) / 2.0
        qx = np.empty((total, 8))
        qx[:, :4] = px
        qx[:, 4:] = px
        np.subtract(qx, cam.forward_offset, out=qx)
        py8 = np.empty((total, 8))
        py8[:, :4] = py
        py8[:, 4:] = py
        qz = np.empty((total, 8))
        qz[:, :4] = 0.0 - cam.mount_height
        qz[:, 4:] = (height - cam.mount_height)[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            xc = qx * cth + qz * sth
            zc = qx * (-sth) + qz * cth
            u = ccx - foc * py8 / xc
            v = ccy - foc * zc / xc
        # Culled drawables may hold inf/nan bounds; the paint loop never
        # reads them (``valid`` gates first) and clips the rest per rect.
        valid = keep & ~(xc < 0.2).any(1)
        u0 = u.min(1)
        u1 = u.max(1)
        v0 = v.min(1)
        v1 = v.max(1)
        out = []
        for idx in range(len(egos)):
            lo, hi = offsets[idx], offsets[idx + 1]
            seg_key = sort_key[lo:hi]
            order = sorted(range(hi - lo), key=seg_key.__getitem__, reverse=True)
            out.append(
                (
                    order,
                    valid[lo:hi].tolist(),
                    u0[lo:hi].tolist(),
                    u1[lo:hi].tolist(),
                    v0[lo:hi].tolist(),
                    v1[lo:hi].tolist(),
                    dist[lo:hi],
                )
            )
        return out

    def _paint_billboards(self, target, order, valid, u0, u1, v0, v1, values) -> None:
        """Paint far-to-near; ``values[i]`` fills drawable ``i``'s rect."""
        wmax = self.camera.width - 1
        hmax = self.camera.height - 1
        floor, ceil = math.floor, math.ceil
        for i in order:
            if not valid[i]:
                continue
            a0 = max(0, floor(u0[i]))
            a1 = min(wmax, ceil(u1[i]))
            b0 = max(0, floor(v0[i]))
            b1 = min(hmax, ceil(v1[i]))
            if a0 > a1 or b0 > b1:
                continue
            target[b0 : b1 + 1, a0 : a1 + 1] = values[i]

    def _billboard_colors_multi(
        self,
        actor_lists: list[list],
        dists: list[np.ndarray],
        weathers: list[Weather],
    ) -> list[np.ndarray]:
        """Shaded + fogged uint8 fill colours, one array per episode.

        Rows follow :meth:`_billboard_geometry_multi`: buildings first,
        then actors.  All episodes' drawable rows concatenate into one
        colour/distance row set with per-episode scalars (fog visibility)
        expanded along their segment, so the shading/fog ufuncs run once
        instead of once per episode.  The fog-gamma power keeps a
        *scalar* exponent per episode segment: NumPy's scalar-exponent
        fast paths (e.g. ``** 0.5`` -> sqrt) are not guaranteed
        bit-identical to an array-exponent ``pow``, and a scalar exponent
        keeps an episode's bits independent of its batch neighbours.
        """
        cam = self.camera
        pieces = []
        offsets = [0]
        vis = np.empty(len(dists))
        counts = np.empty(len(dists), dtype=np.int64)
        pos = 0
        for i, (actor_list, dist, weather) in enumerate(
            zip(actor_lists, dists, weathers)
        ):
            pieces.append(self._bb_colors)
            if actor_list:
                pieces.append(
                    np.array([a.color for a in actor_list], dtype=np.float32)
                )
            vis[i] = cam.max_depth * (1.0 - 0.85 * weather.fog_density)
            counts[i] = len(dist)
            pos += len(dist)
            offsets.append(pos)
        cols = np.concatenate(pieces) if len(pieces) > 1 else pieces[0]
        dist = np.concatenate(dists) if len(dists) > 1 else dists[0]
        shade = 1.0 - 0.35 * np.minimum(dist / cam.max_depth, 1.0)
        cols = cols * shade.astype(np.float32)[:, None]
        fog_a = np.clip(dist / np.repeat(vis, counts), 0.0, 1.0)
        for i, weather in enumerate(weathers):
            if weather.fog_density > 0.0:
                lo, hi = offsets[i], offsets[i + 1]
                fog_a[lo:hi] = fog_a[lo:hi] ** max(0.5, 1.0 - weather.fog_density)
        cols = (
            cols * (1.0 - fog_a).astype(np.float32)[:, None]
            + FOG_COLOR[None, :] * fog_a.astype(np.float32)[:, None]
        )
        u8 = cols.astype(np.uint8)
        return [u8[offsets[i] : offsets[i + 1]] for i in range(len(dists))]

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
        # Batched ground pass: (E, N) world coordinates in one dispatch,
        # one flat texture gather for all episodes.
        exs = np.empty((n_eps, 1))
        eys = np.empty((n_eps, 1))
        coss = np.empty((n_eps, 1))
        sins = np.empty((n_eps, 1))
        for i, (ego, _, _, _) in enumerate(views):
            exs[i, 0] = ego.position.x
            eys[i, 0] = ego.position.y
            coss[i, 0] = math.cos(ego.yaw)
            sins[i, 0] = math.sin(ego.yaw)
        wx = exs + self._ground_x[None, :] * coss - self._ground_y[None, :] * sins
        wy = eys + self._ground_x[None, :] * sins + self._ground_y[None, :] * coss
        n_ground = len(self._ground_x)
        colors = self.texture.sample_f32_xy(wx.ravel(), wy.ravel()).reshape(
            n_eps, n_ground, 3
        )
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
        geoms = self._billboard_geometry_multi(
            [ego for (ego, _, _, _) in views], actor_lists
        )
        fills = self._billboard_colors_multi(
            actor_lists, [geom[6] for geom in geoms], weathers
        )

        out: list[np.ndarray] = []
        for (_, _, _, rng), weather, geom, fill, ground in zip(
            views, weathers, geoms, fills, colors
        ):
            # Sky gradient with the constant beyond-max-depth haze pre-baked.
            img = self._frame_base.copy()
            self._scatter_ground(img, ground)
            self._paint_billboards(img, *geom[:6], fill)
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
        order, valid, u0, u1, v0, v1, dist = self._billboard_geometry_multi(
            [ego], [actor_list]
        )[0]
        classes = [SemanticClass.BUILDING] * self._bb_block.shape[1] + [
            SemanticClass.PEDESTRIAN
            if getattr(a, "role", "") == "pedestrian"
            else SemanticClass.VEHICLE
            for a in actor_list
        ]
        self._paint_billboards(semantic, order, valid, u0, u1, v0, v1, classes)
        self._paint_billboards(depth, order, valid, u0, u1, v0, v1, dist.tolist())
        return semantic, depth
