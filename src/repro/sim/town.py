"""Road network model and procedural grid towns.

This module is the stand-in for CARLA's town maps.  A :class:`Town` is a
graph of :class:`Intersection` nodes joined by straight two-lane
:class:`Road` segments (one driving lane per direction, right-hand traffic),
bordered by curbs/sidewalks, with painted lane markings.  It supports the
queries every other subsystem needs:

* *localisation* — which lane a point is on, its station (arc length) and
  signed lateral offset (:meth:`Town.locate`), used by the violation
  detectors and the expert autopilot;
* *surface classification* — road/curb/off-road labelling of a texel
  grid (:meth:`Town.classify_grid`), used by the renderer to rasterise
  the ground texture, and of scattered point batches
  (:meth:`Town.classify_points`);
* *routing* — the directed lane graph (:meth:`Town.route_edges`) plus
  smooth intersection connector curves
  (:meth:`Town.connection_curve`), used by the route planner;
* *spawning* — candidate vehicle poses on lane centrelines
  (:meth:`Town.spawn_points`).

Towns are deterministic given their configuration; the procedural variant
(:func:`build_procedural_town`) draws every sample from the seed baked into
its config, so equal configs always build identical towns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Iterator, NamedTuple

import numpy as np

from .geometry import OrientedBox, Polyline, Transform, Vec2, wrap_angle

__all__ = [
    "SurfaceType",
    "LaneRef",
    "Lane",
    "Road",
    "Intersection",
    "MarkingStripe",
    "Building",
    "LaneLocation",
    "Town",
    "GridTownConfig",
    "ProceduralTownConfig",
    "build_grid_town",
    "build_procedural_town",
    "build_town",
]

# Spacing between consecutive lane-centreline sample points, metres.
WAYPOINT_SPACING = 2.0


class SurfaceType(IntEnum):
    """Ground surface classes, ordered by "drivability"."""

    OFFROAD = 0
    CURB = 1
    ROAD = 2


class LaneRef(NamedTuple):
    """Stable identifier of a lane: road id plus travel direction.

    ``direction`` is ``+1`` for travel from intersection ``a`` to ``b`` and
    ``-1`` for the opposite lane.
    """

    road_id: int
    direction: int


@dataclass(frozen=True)
class MarkingStripe:
    """A painted lane marking, used by the renderer.

    ``polyline`` runs along the stripe centre; ``width`` is the painted
    width in metres.  ``color`` is an RGB triple in 0..255.
    """

    polyline: Polyline
    width: float
    color: tuple[int, int, int]


@dataclass(frozen=True)
class Building:
    """A static block-interior building: collision box plus look."""

    box: OrientedBox
    height: float
    color: tuple[int, int, int]


class Waypoint(NamedTuple):
    """A sampled pose on a lane centreline (CARLA-style waypoint)."""

    position: Vec2
    yaw: float
    lane: "Lane"
    station: float

    def next(self, distance: float) -> "Waypoint":
        """The waypoint ``distance`` metres further along the same lane.

        Clamps at the lane end; crossing into a successor lane is the route
        planner's job, not the map's.
        """
        return self.lane.waypoint_at(self.station + distance)


class Lane:
    """One driving lane of a road, with an arc-length parameterised centreline."""

    def __init__(self, ref: LaneRef, road: "Road", centerline: Polyline, width: float):
        self.ref = ref
        self.road = road
        self.centerline = centerline
        self.width = width

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Lane({self.ref.road_id}, {self.ref.direction:+d}, len={self.length:.1f})"

    @property
    def length(self) -> float:
        """Lane length in metres."""
        return self.centerline.length

    def waypoint_at(self, station: float) -> Waypoint:
        """The lane pose at arc length ``station`` (clamped)."""
        s = min(max(station, 0.0), self.length)
        return Waypoint(self.centerline.point_at(s), self.centerline.heading_at(s), self, s)

    def locate(self, point: Vec2) -> tuple[float, float]:
        """``(station, signed lateral offset)`` of ``point`` w.r.t. the lane."""
        return self.centerline.locate(point)

    @property
    def start_intersection(self) -> int:
        """Id of the intersection this lane leaves from."""
        return self.road.a if self.ref.direction > 0 else self.road.b

    @property
    def end_intersection(self) -> int:
        """Id of the intersection this lane arrives at."""
        return self.road.b if self.ref.direction > 0 else self.road.a


class Road:
    """A straight road segment joining two intersections.

    Carries exactly two lanes (right-hand traffic).  ``half_width`` covers
    the full paved width; the sidewalk extends ``sidewalk_width`` beyond it
    on each side.
    """

    def __init__(
        self,
        road_id: int,
        a: int,
        b: int,
        centerline: Polyline,
        lane_width: float,
        sidewalk_width: float,
    ):
        self.id = road_id
        self.a = a
        self.b = b
        self.centerline = centerline
        self.lane_width = lane_width
        self.sidewalk_width = sidewalk_width
        self.half_width = lane_width  # two lanes, one per side of the centreline
        self.heading = centerline.heading_at(0.0)
        self.length = centerline.length
        # Right-hand traffic: each direction's lane sits to the right of its
        # own travel direction, i.e. lateral -w/2 in the direction's frame.
        forward = centerline.resampled(WAYPOINT_SPACING)
        self.lanes: dict[int, Lane] = {
            +1: Lane(LaneRef(road_id, +1), self, forward.offset(-lane_width / 2.0), lane_width),
            -1: Lane(
                LaneRef(road_id, -1),
                self,
                forward.offset(+lane_width / 2.0).reversed(),
                lane_width,
            ),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Road({self.id}: {self.a}->{self.b}, len={self.length:.1f})"

    def lane(self, direction: int) -> Lane:
        """The lane travelling in ``direction`` (+1: a→b, -1: b→a)."""
        return self.lanes[direction]

    def other_end(self, intersection_id: int) -> int:
        """The intersection at the far end from ``intersection_id``."""
        if intersection_id == self.a:
            return self.b
        if intersection_id == self.b:
            return self.a
        raise ValueError(f"road {self.id} does not touch intersection {intersection_id}")


@dataclass
class Intersection:
    """A square junction area where roads meet."""

    id: int
    center: Vec2
    half_size: float
    road_ids: list[int] = field(default_factory=list)

    def contains(self, point: Vec2) -> bool:
        """Whether ``point`` lies on the junction pavement."""
        return (
            abs(point.x - self.center.x) <= self.half_size
            and abs(point.y - self.center.y) <= self.half_size
        )


@dataclass(frozen=True)
class LaneLocation:
    """Result of :meth:`Town.locate`.

    ``lateral`` is signed, positive to the left of the lane direction, so a
    right-hand drift off the lane is negative.  ``surface`` reflects what is
    under the point regardless of the nearest lane.
    """

    lane: Lane
    station: float
    lateral: float
    surface: SurfaceType
    in_intersection: bool

    @property
    def off_lane(self) -> bool:
        """Whether the point is outside its nearest lane's paint-to-paint span."""
        return abs(self.lateral) > self.lane.width / 2.0


class RouteEdge(NamedTuple):
    """A directed edge of the routing graph: travel one lane end to end."""

    from_intersection: int
    to_intersection: int
    lane_ref: LaneRef
    length: float


class Town:
    """A complete road network with localisation and routing queries."""

    def __init__(
        self,
        intersections: dict[int, Intersection],
        roads: dict[int, Road],
        lane_width: float,
        sidewalk_width: float,
        buildings: list[Building] | None = None,
        name: str = "town",
    ):
        self.name = name
        self.intersections = intersections
        self.roads = roads
        self.lane_width = lane_width
        self.sidewalk_width = sidewalk_width
        self.buildings = list(buildings or [])
        self.lanes: dict[LaneRef, Lane] = {}
        for road in roads.values():
            for lane in road.lanes.values():
                self.lanes[lane.ref] = lane
        self._bounds = self._compute_bounds()
        # Flattened segment arrays over all lane centrelines for fast
        # vectorised nearest-lane queries.
        self._seg_a, self._seg_d, self._seg_len, self._seg_lane, self._seg_station = (
            self._build_segment_index()
        )
        # Memos of pure functions of the (immutable) map, kept for the
        # town's life in the process scene cache.
        self._spawn_cache: dict[tuple, tuple[Waypoint, ...]] = {}
        self._curve_cache: dict[tuple[LaneRef, LaneRef, float], Polyline] = {}

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _compute_bounds(self) -> tuple[float, float, float, float]:
        xs: list[float] = []
        ys: list[float] = []
        for inter in self.intersections.values():
            margin = inter.half_size + self.sidewalk_width
            xs.extend([inter.center.x - margin, inter.center.x + margin])
            ys.extend([inter.center.y - margin, inter.center.y + margin])
        for b in self.buildings:
            for c in b.box.corners():
                xs.append(c.x)
                ys.append(c.y)
        return min(xs), min(ys), max(xs), max(ys)

    def _build_segment_index(self):
        starts: list[np.ndarray] = []
        dirs: list[np.ndarray] = []
        lens: list[np.ndarray] = []
        lane_idx: list[np.ndarray] = []
        stations: list[np.ndarray] = []
        self._lane_list = list(self.lanes.values())
        for i, lane in enumerate(self._lane_list):
            xy = np.array([[p.x, p.y] for p in lane.centerline.points])
            seg = np.diff(xy, axis=0)
            seg_len = np.hypot(seg[:, 0], seg[:, 1])
            starts.append(xy[:-1])
            dirs.append(seg / seg_len[:, None])
            lens.append(seg_len)
            lane_idx.append(np.full(len(seg_len), i, dtype=np.int32))
            stations.append(np.concatenate([[0.0], np.cumsum(seg_len)])[:-1])
        seg_a = np.concatenate(starts)
        seg_d = np.concatenate(dirs)
        # Contiguous per-component copies: the nearest-lane query runs per
        # frame, and 1-D contiguous arithmetic beats (N, 2) row math.  The
        # direction components double as cos/sin of the segment heading
        # for the yaw-hint penalty.
        self._seg_ax = seg_a[:, 0].copy()
        self._seg_ay = seg_a[:, 1].copy()
        self._seg_cos = seg_d[:, 0].copy()
        self._seg_sin = seg_d[:, 1].copy()
        return (
            seg_a,
            seg_d,
            np.concatenate(lens),
            np.concatenate(lane_idx),
            np.concatenate(stations),
        )

    # ------------------------------------------------------------------
    # Geometry queries
    # ------------------------------------------------------------------
    @property
    def bounds(self) -> tuple[float, float, float, float]:
        """``(xmin, ymin, xmax, ymax)`` of the mapped area, metres."""
        return self._bounds

    #: Cell size of the nearest-lane query grid, metres.
    _QUERY_CELL = 16.0

    def _build_query_grid(self):
        """Spatial index for :meth:`nearest_lane`: per-cell segment subsets.

        For a query point ``p`` in a cell with centre ``c``, distance to any
        segment moves by at most ``|p - c| <= halfdiag`` (distance to a set
        is 1-Lipschitz), and the yaw-hint penalty shifts the effective
        distance of a candidate by at most ``lane_width``.  A segment can
        therefore only win the (penalised) argmin if its centre distance is
        within ``dmin(c) + diag + lane_width``; keeping everything inside
        that bound (plus 1 m of slack) guarantees the pruned argmin equals
        the full argmin — same winner, same arithmetic, same bits.  Subset
        arrays are order-preserving contiguous copies, so ties resolve to
        the same first index as the full scan.
        """
        cell = self._QUERY_CELL
        halfdiag = cell * math.sqrt(2.0) / 2.0
        slack = 2.0 * halfdiag + self.lane_width + 1.0
        xmin, ymin, xmax, ymax = self._bounds
        nx = max(1, int(math.ceil((xmax - xmin) / cell)))
        ny = max(1, int(math.ceil((ymax - ymin) / cell)))
        ax, ay = self._seg_ax, self._seg_ay
        cosv, sinv = self._seg_cos, self._seg_sin
        lenv = self._seg_len
        cells = {}
        for j in range(ny):
            cy = ymin + (j + 0.5) * cell
            rely = cy - ay
            for i in range(nx):
                cx = xmin + (i + 0.5) * cell
                relx = cx - ax
                t = np.clip((relx * cosv + rely * sinv) / lenv, 0.0, 1.0)
                ts = t * lenv
                offx = cx - (ax + cosv * ts)
                offy = cy - (ay + sinv * ts)
                d = np.sqrt(offx * offx + offy * offy)
                keep = np.flatnonzero(d <= d.min() + slack)
                cells[(i, j)] = (
                    ax[keep].copy(),
                    ay[keep].copy(),
                    cosv[keep].copy(),
                    sinv[keep].copy(),
                    lenv[keep].copy(),
                    self._seg_station[keep].copy(),
                    self._seg_lane[keep].copy(),
                )
        self._query_grid = (xmin, ymin, nx, ny, cells)
        return self._query_grid

    def _segment_arrays(self, px: float, py: float):
        """The segment subset covering ``(px, py)`` (full set off-grid)."""
        try:
            grid = self._query_grid
        except AttributeError:
            grid = self._build_query_grid()
        xmin, ymin, nx, ny, cells = grid
        i = int((px - xmin) / self._QUERY_CELL)
        j = int((py - ymin) / self._QUERY_CELL)
        if 0 <= i < nx and 0 <= j < ny and px >= xmin and py >= ymin:
            return cells[(i, j)]
        return (
            self._seg_ax,
            self._seg_ay,
            self._seg_cos,
            self._seg_sin,
            self._seg_len,
            self._seg_station,
            self._seg_lane,
        )

    def nearest_lane(self, point: Vec2, yaw_hint: float | None = None) -> tuple[Lane, float, float]:
        """The lane nearest to ``point``.

        With ``yaw_hint`` given, lanes whose direction opposes the hint are
        penalised so a vehicle is matched to its own side of the road.
        Returns ``(lane, station, signed lateral offset)``.
        """
        # Per-component contiguous arithmetic over the grid-pruned segment
        # subset; identical expressions to the former full-scan einsum
        # formulation, evaluated column-wise.
        px, py = point.x, point.y
        ax, ay, cosv, sinv, lenv, stav, lanev = self._segment_arrays(px, py)
        relx = px - ax
        rely = py - ay
        # np.clip(., 0, 1) without its dispatch overhead; ``maximum(0.0,
        # .)`` keeps a ``-0.0`` as np.clip does (see Polyline._nearest).
        t = np.minimum(1.0, np.maximum(0.0, (relx * cosv + rely * sinv) / lenv))
        ts = t * lenv
        offx = px - (ax + cosv * ts)
        offy = py - (ay + sinv * ts)
        d2 = offx * offx + offy * offy
        if yaw_hint is not None and not math.isfinite(yaw_hint):
            # Corrupted heading measurements degrade to the no-hint query.
            yaw_hint = None
        if yaw_hint is not None:
            # Half a lane width of penalty for driving against the segment.
            # Misalignment beyond 90 degrees is exactly a negative cosine
            # of (segment heading - hint), and the segment direction *is*
            # (cos, sin) of its heading — no per-query array trigonometry.
            ch, sh = math.cos(yaw_hint), math.sin(yaw_hint)
            against = cosv * ch + sinv * sh < 0.0
            d2 = d2 + np.where(against, self.lane_width**2, 0.0)
        k = int(np.argmin(d2))
        station = float(stav[k] + t[k] * lenv[k])
        lateral = float(cosv[k] * offy[k] - sinv[k] * offx[k])
        return self._lane_list[lanev[k]], station, lateral

    def locate(self, point: Vec2, yaw_hint: float | None = None) -> LaneLocation:
        """Full localisation of a world point (lane, station, offset, surface)."""
        lane, station, lateral = self.nearest_lane(point, yaw_hint)
        x, y = point.x, point.y
        surface = self.classify_point(x, y)
        return LaneLocation(lane, station, lateral, surface, self.in_intersection(x, y))

    def in_intersection(self, x: float, y: float) -> bool:
        """Whether ``(x, y)`` lies inside a junction core
        (:meth:`Intersection.contains` over cached scalars)."""
        try:
            _, inters = self._surface_param_cache
        except AttributeError:
            _, inters = self._surface_params()
        return any(abs(x - ix) <= half and abs(y - iy) <= half for ix, iy, half in inters)

    def classify_points(self, xy: np.ndarray) -> np.ndarray:
        """Vectorised surface classification of ``xy`` (shape ``(N, 2)``).

        Returns an array of :class:`SurfaceType` values (uint8).  Roads and
        junction cores label ``ROAD``; the sidewalk band around them labels
        ``CURB``; everything else (including building footprints) is
        ``OFFROAD``.  Every road and junction is tested against every
        point, so this serves scattered points; whole texel grids go
        through :meth:`classify_grid`, which this method is the reference
        for.
        """
        pts = np.asarray(xy, dtype=np.float64)
        out = np.zeros(len(pts), dtype=np.uint8)
        curb = np.zeros(len(pts), dtype=bool)
        road = np.zeros(len(pts), dtype=bool)
        sw = self.sidewalk_width
        for r in self.roads.values():
            start = r.centerline.points[0]
            c, s = math.cos(r.heading), math.sin(r.heading)
            dx = pts[:, 0] - start.x
            dy = pts[:, 1] - start.y
            lx = dx * c + dy * s
            ly = -dx * s + dy * c
            along = (lx >= 0.0) & (lx <= r.length)
            road |= along & (np.abs(ly) <= r.half_width)
            curb |= along & (np.abs(ly) <= r.half_width + sw)
        for inter in self.intersections.values():
            dx = np.abs(pts[:, 0] - inter.center.x)
            dy = np.abs(pts[:, 1] - inter.center.y)
            road |= (dx <= inter.half_size) & (dy <= inter.half_size)
            curb |= (dx <= inter.half_size + sw) & (dy <= inter.half_size + sw)
        out[curb] = int(SurfaceType.CURB)
        out[road] = int(SurfaceType.ROAD)
        return out

    def classify_grid(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Surface classes of the grid of texel centres ``xs`` x ``ys``.

        ``xs`` and ``ys`` are ascending; the result has shape
        ``(len(ys), len(xs))`` and equals :meth:`classify_points` over
        the grid's ``meshgrid`` bit for bit.  Each road and junction is
        tested only on the texel window of its bounding box (sidewalk
        included) plus one texel of slack on every side, with the same
        comparisons as :meth:`classify_points`, so the work follows the
        painted area rather than the grid size.
        """
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        out = np.zeros((len(ys), len(xs)), dtype=np.uint8)
        curb = np.zeros(out.shape, dtype=bool)
        road = np.zeros(out.shape, dtype=bool)
        sw = self.sidewalk_width

        def window(x_lo, x_hi, y_lo, y_hi):
            i0 = max(int(np.searchsorted(xs, x_lo, side="left")) - 1, 0)
            i1 = int(np.searchsorted(xs, x_hi, side="right")) + 1
            j0 = max(int(np.searchsorted(ys, y_lo, side="left")) - 1, 0)
            j1 = int(np.searchsorted(ys, y_hi, side="right")) + 1
            return np.s_[j0:j1, i0:i1], xs[i0:i1][None, :], ys[j0:j1][:, None]

        for r in self.roads.values():
            start = r.centerline.points[0]
            c, s = math.cos(r.heading), math.sin(r.heading)
            reach = r.half_width + sw
            cx = [start.x + lx * c - ly * s for lx in (0.0, r.length) for ly in (-reach, reach)]
            cy = [start.y + lx * s + ly * c for lx in (0.0, r.length) for ly in (-reach, reach)]
            win, wx, wy = window(min(cx), max(cx), min(cy), max(cy))
            dx = wx - start.x
            dy = wy - start.y
            lx = dx * c + dy * s
            ly = -dx * s + dy * c
            along = (lx >= 0.0) & (lx <= r.length)
            road[win] |= along & (np.abs(ly) <= r.half_width)
            curb[win] |= along & (np.abs(ly) <= r.half_width + sw)
        for inter in self.intersections.values():
            reach = inter.half_size + sw
            win, wx, wy = window(
                inter.center.x - reach,
                inter.center.x + reach,
                inter.center.y - reach,
                inter.center.y + reach,
            )
            dx = np.abs(wx - inter.center.x)
            dy = np.abs(wy - inter.center.y)
            road[win] |= (dx <= inter.half_size) & (dy <= inter.half_size)
            curb[win] |= (dx <= inter.half_size + sw) & (dy <= inter.half_size + sw)
        out[curb] = int(SurfaceType.CURB)
        out[road] = int(SurfaceType.ROAD)
        return out

    def _surface_params(self):
        """Flattened per-road / per-intersection scalars for point queries.

        Cached lazily; iteration order matches :meth:`classify_points` so
        the scalar and vectorised paths agree bit for bit.
        """
        roads = tuple(
            (
                r.centerline.points[0].x,
                r.centerline.points[0].y,
                math.cos(r.heading),
                math.sin(r.heading),
                r.length,
                r.half_width,
            )
            for r in self.roads.values()
        )
        inters = tuple(
            (i.center.x, i.center.y, i.half_size) for i in self.intersections.values()
        )
        self._surface_param_cache = (roads, inters)
        return self._surface_param_cache

    def classify_point(self, x: float, y: float) -> SurfaceType:
        """Scalar fast path of :meth:`classify_points` for one point.

        Same classification with the same arithmetic, minus the numpy
        array round-trip — single-point queries (violation monitor,
        autopilot probes) run every frame, where the per-call array
        allocations dominate.  ``ROAD`` short-circuits: it wins over
        ``CURB`` regardless of any later surface match.
        """
        try:
            roads, inters = self._surface_param_cache
        except AttributeError:
            roads, inters = self._surface_params()
        sw = self.sidewalk_width
        curb = False
        for sx, sy, c, s, length, half_width in roads:
            dx = x - sx
            dy = y - sy
            lx = dx * c + dy * s
            if lx < 0.0 or lx > length:
                continue
            ly = -dx * s + dy * c
            aly = abs(ly)
            if aly <= half_width:
                return SurfaceType.ROAD
            if aly <= half_width + sw:
                curb = True
        for ix, iy, half in inters:
            dx = abs(x - ix)
            dy = abs(y - iy)
            if dx <= half and dy <= half:
                return SurfaceType.ROAD
            if dx <= half + sw and dy <= half + sw:
                curb = True
        return SurfaceType.CURB if curb else SurfaceType.OFFROAD

    def is_on_road(self, point: Vec2) -> bool:
        """Whether ``point`` is on drivable pavement."""
        return self.classify_point(point.x, point.y) == SurfaceType.ROAD

    def building_box_pack(self) -> tuple[np.ndarray, tuple]:
        """Packed building collision boxes for batched ray tests.

        Returns ``(packed, prune)`` where ``packed`` is the
        :func:`~repro.sim.geometry.pack_boxes` array over all building
        boxes and ``prune`` holds per-building
        ``(center_x, center_y, max(half_length, half_width))`` tuples for
        the LIDAR's range prune.  Buildings are immutable, so both are
        computed once per town and reused by every sensor frame.
        """
        try:
            return self._building_pack_cache
        except AttributeError:
            from .geometry import pack_boxes

            packed = pack_boxes([b.box for b in self.buildings])
            prune = tuple(
                (b.box.center.x, b.box.center.y, max(b.box.half_length, b.box.half_width))
                for b in self.buildings
            )
            self._building_pack_cache = (packed, prune)
            return self._building_pack_cache

    # ------------------------------------------------------------------
    # Routing support
    # ------------------------------------------------------------------
    def route_edges(self) -> list[RouteEdge]:
        """All directed lane edges of the routing graph."""
        edges = []
        for lane in self.lanes.values():
            edges.append(
                RouteEdge(lane.start_intersection, lane.end_intersection, lane.ref, lane.length)
            )
        return edges

    def lane_successors(self, lane: Lane) -> list[Lane]:
        """Lanes reachable from the end of ``lane`` through its junction.

        U-turns (the same road's opposite lane) are excluded — a 180° flip
        inside a junction is tighter than a car's minimum turning radius —
        unless the junction is a dead end, where the U-turn is all there is.
        """
        if not hasattr(self, "_successor_cache"):
            outgoing: dict[int, list[Lane]] = {i: [] for i in self.intersections}
            for candidate in self.lanes.values():
                outgoing[candidate.start_intersection].append(candidate)
            cache: dict[LaneRef, list[Lane]] = {}
            for owner in self.lanes.values():
                reverse_ref = LaneRef(owner.ref.road_id, -owner.ref.direction)
                options = [
                    out
                    for out in outgoing[owner.end_intersection]
                    if out.ref != reverse_ref
                ]
                if not options:
                    options = [self.lanes[reverse_ref]]
                cache[owner.ref] = options
            self._successor_cache = cache
        return self._successor_cache[lane.ref]

    def lane_graph_strongly_connected(self) -> bool:
        """Whether every lane can reach every other lane without U-turns.

        Single-block towns fail this (two disjoint circulation cycles), so
        :func:`build_grid_town` checks it at construction time.
        """
        lanes = list(self.lanes.values())
        if not lanes:
            return True
        # Forward reachability from lane 0 plus reverse reachability: for a
        # digraph, both covering all nodes <=> one strongly connected
        # component containing all lanes.
        def reach(start: Lane, forward: bool) -> set[LaneRef]:
            seen = {start.ref}
            stack = [start]
            predecessors: dict[LaneRef, list[Lane]] = {}
            if not forward:
                for lane in lanes:
                    for nxt in self.lane_successors(lane):
                        predecessors.setdefault(nxt.ref, []).append(lane)
            while stack:
                cur = stack.pop()
                neighbours = (
                    self.lane_successors(cur)
                    if forward
                    else predecessors.get(cur.ref, [])
                )
                for nxt in neighbours:
                    if nxt.ref not in seen:
                        seen.add(nxt.ref)
                        stack.append(nxt)
            return seen

        n = len(lanes)
        return len(reach(lanes[0], True)) == n and len(reach(lanes[0], False)) == n

    def connection_curve(self, incoming: Lane, outgoing: Lane, spacing: float = 1.0) -> Polyline:
        """Smooth connector through an intersection between two lanes.

        Quadratic Bézier from the incoming lane's end pose to the outgoing
        lane's start pose; the control point is the intersection of their
        heading lines (falls back to the midpoint when nearly parallel).
        Built once per ``(incoming, outgoing, spacing)`` and shared: a
        :class:`Polyline` is immutable.
        """
        key = (incoming.ref, outgoing.ref, spacing)
        curve = self._curve_cache.get(key)
        if curve is None:
            curve = self._curve_cache[key] = self._build_connection_curve(
                incoming, outgoing, spacing
            )
        return curve

    @staticmethod
    def _build_connection_curve(incoming: Lane, outgoing: Lane, spacing: float) -> Polyline:
        p0 = incoming.centerline.point_at(incoming.length)
        h0 = incoming.centerline.heading_at(incoming.length)
        p2 = outgoing.centerline.point_at(0.0)
        h2 = outgoing.centerline.heading_at(0.0)
        d0 = Vec2.from_heading(h0)
        d2 = Vec2.from_heading(h2)
        denom = d0.cross(d2)
        if abs(denom) < 1e-6:
            p1 = Vec2((p0.x + p2.x) / 2.0, (p0.y + p2.y) / 2.0)
        else:
            t = (p2 - p0).cross(d2) / denom
            p1 = p0 + d0 * t
        chord = p0.distance_to(p2)
        n = max(3, int(math.ceil(chord / spacing)) + 1)
        ts = np.linspace(0.0, 1.0, n)
        pts = [
            Vec2(
                (1 - t) ** 2 * p0.x + 2 * (1 - t) * t * p1.x + t**2 * p2.x,
                (1 - t) ** 2 * p0.y + 2 * (1 - t) * t * p1.y + t**2 * p2.y,
            )
            for t in ts
        ]
        return Polyline(pts)

    def turn_direction(self, incoming: Lane, outgoing: Lane) -> str:
        """Classify the manoeuvre between two lanes: LEFT/RIGHT/STRAIGHT."""
        h_in = incoming.centerline.heading_at(incoming.length)
        h_out = outgoing.centerline.heading_at(0.0)
        d = wrap_angle(h_out - h_in)
        if d > math.pi / 4.0:
            return "LEFT"
        if d < -math.pi / 4.0:
            return "RIGHT"
        return "STRAIGHT"

    # ------------------------------------------------------------------
    # Spawning and markings
    # ------------------------------------------------------------------
    def spawn_points(self, spacing: float = 12.0, margin: float = 8.0) -> list[Waypoint]:
        """Candidate vehicle spawn poses along all lanes.

        ``margin`` keeps spawns away from the lane ends so freshly spawned
        vehicles are not inside junctions.  Computed once per
        ``(spacing, margin)``; each call returns a fresh list, so a caller
        may shuffle or pop it.
        """
        # Typed key: integer arguments give integer stations.
        key = (spacing, margin, type(spacing), type(margin))
        cached = self._spawn_cache.get(key)
        if cached is None:
            out: list[Waypoint] = []
            for lane in self.lanes.values():
                s = margin
                while s <= lane.length - margin:
                    out.append(lane.waypoint_at(s))
                    s += spacing
            cached = self._spawn_cache[key] = tuple(out)
        return list(cached)

    def markings(self) -> list[MarkingStripe]:
        """All painted stripes: yellow centre lines and white edge lines."""
        stripes: list[MarkingStripe] = []
        for road in self.roads.values():
            cl = road.centerline
            stripes.append(MarkingStripe(cl, 0.30, (200, 180, 40)))
            for side in (+1, -1):
                edge = cl.offset(side * (road.half_width - 0.15))
                stripes.append(MarkingStripe(edge, 0.20, (230, 230, 230)))
        return stripes

    def iter_lanes(self) -> Iterator[Lane]:
        """Iterate all lanes in a stable order."""
        for ref in sorted(self.lanes):
            yield self.lanes[ref]


@dataclass(frozen=True)
class GridTownConfig:
    """Parameters of the procedural grid town.

    ``rows``/``cols`` count intersections; blocks between them are
    ``block_size`` metres apart.  Defaults give a compact town a mission can
    cross in under a minute at urban speeds, mirroring CARLA Town01-style
    layouts at reduced scale.
    """

    rows: int = 4
    cols: int = 4
    block_size: float = 80.0
    lane_width: float = 3.5
    sidewalk_width: float = 2.0
    with_buildings: bool = True
    building_height: float = 9.0
    name: str = "grid-town"

    def __post_init__(self) -> None:
        if self.rows < 2 or self.cols < 2:
            raise ValueError("grid town needs at least a 2x2 intersection grid")
        if self.rows * self.cols < 6:
            # A single-block (2x2) town's U-turn-free lane graph splits into
            # two disjoint circulation cycles: some missions become
            # unroutable.  Require at least two blocks.
            raise ValueError(
                "grid town needs at least 2x3 intersections for full lane-graph "
                "connectivity (a single block cannot be turned around on)"
            )
        if self.block_size < 6.0 * self.lane_width:
            raise ValueError("blocks too small for the configured lane width")


def build_grid_town(config: GridTownConfig | None = None) -> Town:
    """Construct the deterministic grid town described by ``config``."""
    cfg = config or GridTownConfig()
    half = cfg.lane_width  # road half width (two lanes)
    # Junction squares span two lane widths past the centre so that the
    # tightest (right) turn keeps a radius the bicycle model can actually
    # drive (min radius ≈ wheelbase / tan(max steer) ≈ 3.9 m).
    inter_half = 2.0 * cfg.lane_width

    intersections: dict[int, Intersection] = {}

    def node_id(i: int, j: int) -> int:
        return j * cfg.cols + i

    for j in range(cfg.rows):
        for i in range(cfg.cols):
            center = Vec2(i * cfg.block_size, j * cfg.block_size)
            intersections[node_id(i, j)] = Intersection(node_id(i, j), center, inter_half)

    roads: dict[int, Road] = {}
    next_road_id = 0

    def add_road(a: int, b: int) -> None:
        nonlocal next_road_id
        ca = intersections[a].center
        cb = intersections[b].center
        direction = (cb - ca).normalized()
        start = ca + direction * inter_half
        end = cb - direction * inter_half
        centerline = Polyline([start, end])
        road = Road(next_road_id, a, b, centerline, cfg.lane_width, cfg.sidewalk_width)
        roads[next_road_id] = road
        intersections[a].road_ids.append(next_road_id)
        intersections[b].road_ids.append(next_road_id)
        next_road_id += 1

    for j in range(cfg.rows):
        for i in range(cfg.cols):
            if i + 1 < cfg.cols:
                add_road(node_id(i, j), node_id(i + 1, j))
            if j + 1 < cfg.rows:
                add_road(node_id(i, j), node_id(i, j + 1))

    buildings: list[Building] = []
    if cfg.with_buildings:
        # One building per block interior, inset from the sidewalks.  Colours
        # cycle deterministically so renders are stable across runs.
        palette = [(150, 110, 95), (120, 120, 135), (160, 140, 110), (110, 130, 120)]
        inset = half + cfg.sidewalk_width + 3.0
        for j in range(cfg.rows - 1):
            for i in range(cfg.cols - 1):
                cx = (i + 0.5) * cfg.block_size
                cy = (j + 0.5) * cfg.block_size
                half_ext = cfg.block_size / 2.0 - inset
                if half_ext < 4.0:
                    continue
                color = palette[(i + j) % len(palette)]
                buildings.append(
                    Building(
                        OrientedBox(Vec2(cx, cy), 0.0, half_ext * 0.7, half_ext * 0.7),
                        cfg.building_height,
                        color,
                    )
                )

    town = Town(
        intersections,
        roads,
        cfg.lane_width,
        cfg.sidewalk_width,
        buildings,
        name=f"{cfg.name}-{cfg.rows}x{cfg.cols}",
    )
    if not town.lane_graph_strongly_connected():
        raise ValueError(
            f"grid town {cfg.rows}x{cfg.cols} has a disconnected lane graph"
        )
    return town


@dataclass(frozen=True)
class ProceduralTownConfig:
    """Parameters of a *sampled* road network.

    Starts from the same ``rows`` x ``cols`` intersection lattice as
    :class:`GridTownConfig` and then, driven entirely by ``seed``:

    * removes a fraction of the grid's roads (``road_density`` is the kept
      fraction), skipping any removal that would leave a dead-end junction
      or break the U-turn-free lane graph's strong connectivity — every
      sampled town stays fully routable;
    * fills block interiors with buildings at ``building_density``
      probability, with per-building size/height jitter.

    Equal configs always build identical towns (all randomness flows from
    ``seed``), so the config is safe to serialise into campaign specs and
    hash into episode fingerprints, exactly like :class:`GridTownConfig`.
    """

    rows: int = 3
    cols: int = 3
    block_size: float = 70.0
    lane_width: float = 3.5
    sidewalk_width: float = 2.0
    road_density: float = 0.85
    building_density: float = 0.7
    building_height: float = 9.0
    seed: int = 0
    name: str = "proc-town"

    def __post_init__(self) -> None:
        if self.rows < 2 or self.cols < 2:
            raise ValueError("procedural town needs at least a 2x2 intersection grid")
        if self.rows * self.cols < 6:
            raise ValueError(
                "procedural town needs at least 2x3 intersections for full "
                "lane-graph connectivity (a single block cannot be turned around on)"
            )
        if self.block_size < 6.0 * self.lane_width:
            raise ValueError("blocks too small for the configured lane width")
        if not 0.0 < self.road_density <= 1.0:
            raise ValueError("road_density must be in (0, 1]")
        if not 0.0 <= self.building_density <= 1.0:
            raise ValueError("building_density must be in [0, 1]")
        if self.building_height <= 0.0:
            raise ValueError("building_height must be positive")


def build_procedural_town(config: ProceduralTownConfig) -> Town:
    """Sample the road network described by ``config`` (deterministic).

    Roads are dropped one at a time in a seeded random order; a drop is
    kept only if both endpoints retain degree >= 2 *and* the resulting
    U-turn-free lane graph stays strongly connected, so every emitted town
    passes the same routability invariant :func:`build_grid_town` enforces.
    """
    cfg = config
    rng = np.random.default_rng(cfg.seed)
    inter_half = 2.0 * cfg.lane_width

    def node_id(i: int, j: int) -> int:
        return j * cfg.cols + i

    centers = {
        node_id(i, j): Vec2(i * cfg.block_size, j * cfg.block_size)
        for j in range(cfg.rows)
        for i in range(cfg.cols)
    }
    # The full grid's edge list, in the same order build_grid_town adds
    # roads; edges are (a, b) intersection-id pairs.
    edges: list[tuple[int, int]] = []
    for j in range(cfg.rows):
        for i in range(cfg.cols):
            if i + 1 < cfg.cols:
                edges.append((node_id(i, j), node_id(i + 1, j)))
            if j + 1 < cfg.rows:
                edges.append((node_id(i, j), node_id(i, j + 1)))

    def build(edge_list: list[tuple[int, int]], buildings: list[Building]) -> Town:
        intersections = {
            nid: Intersection(nid, center, inter_half)
            for nid, center in centers.items()
        }
        roads: dict[int, Road] = {}
        for road_id, (a, b) in enumerate(edge_list):
            ca, cb = intersections[a].center, intersections[b].center
            direction = (cb - ca).normalized()
            centerline = Polyline([ca + direction * inter_half, cb - direction * inter_half])
            roads[road_id] = Road(road_id, a, b, centerline, cfg.lane_width, cfg.sidewalk_width)
            intersections[a].road_ids.append(road_id)
            intersections[b].road_ids.append(road_id)
        return Town(
            intersections,
            roads,
            cfg.lane_width,
            cfg.sidewalk_width,
            buildings,
            name=f"{cfg.name}-{cfg.rows}x{cfg.cols}-s{cfg.seed}",
        )

    # Thin the grid: consider every edge for removal in a seeded random
    # order; each candidate drop must keep the lane graph routable.
    kept = list(edges)
    if cfg.road_density < 1.0:
        for idx in rng.permutation(len(edges)):
            candidate = edges[int(idx)]
            if candidate not in kept:
                continue
            if rng.random() >= 1.0 - cfg.road_density:
                continue
            trial = [e for e in kept if e != candidate]
            degrees: dict[int, int] = {nid: 0 for nid in centers}
            for a, b in trial:
                degrees[a] += 1
                degrees[b] += 1
            if min(degrees.values()) < 2:
                continue
            if build(trial, []).lane_graph_strongly_connected():
                kept = trial

    # Buildings: at most one per block interior, present with probability
    # building_density, with sampled footprint and height.
    buildings: list[Building] = []
    palette = [(150, 110, 95), (120, 120, 135), (160, 140, 110), (110, 130, 120)]
    inset = cfg.lane_width + cfg.sidewalk_width + 3.0
    for j in range(cfg.rows - 1):
        for i in range(cfg.cols - 1):
            half_ext = cfg.block_size / 2.0 - inset
            if half_ext < 4.0:
                continue
            # Draw per-block samples unconditionally so the presence of
            # one building never shifts another block's geometry.
            present = rng.random() < cfg.building_density
            scale_l = float(rng.uniform(0.5, 0.85))
            scale_w = float(rng.uniform(0.5, 0.85))
            height = cfg.building_height * float(rng.uniform(0.6, 1.6))
            color = palette[int(rng.integers(len(palette)))]
            if not present:
                continue
            cx = (i + 0.5) * cfg.block_size
            cy = (j + 0.5) * cfg.block_size
            buildings.append(
                Building(
                    OrientedBox(Vec2(cx, cy), 0.0, half_ext * scale_l, half_ext * scale_w),
                    height,
                    color,
                )
            )

    town = build(kept, buildings)
    if not town.lane_graph_strongly_connected():  # pragma: no cover - drop loop invariant
        raise ValueError(
            f"procedural town {cfg.name!r} (seed {cfg.seed}) has a disconnected lane graph"
        )
    return town


def build_town(config: "GridTownConfig | ProceduralTownConfig") -> Town:
    """Build the town for any supported town config (dispatch by type)."""
    if isinstance(config, ProceduralTownConfig):
        return build_procedural_town(config)
    if isinstance(config, GridTownConfig):
        return build_grid_town(config)
    raise TypeError(f"unsupported town config type {type(config).__name__}")
