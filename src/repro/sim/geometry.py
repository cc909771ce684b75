"""Planar geometry primitives for the world simulator.

The simulator models an urban world on the ground plane.  Everything here is
2-D: positions are metres in a fixed world frame (x east, y north), headings
are radians counter-clockwise from +x.  The renderer adds the third dimension
(actor heights, camera pitch) on top of these primitives.

Conventions
-----------
* ``yaw`` is always wrapped to ``(-pi, pi]`` by :func:`wrap_angle`.
* A :class:`Transform` maps *local* coordinates (x forward, y left) to world
  coordinates, matching the vehicle body frame used by the physics model.
* :class:`OrientedBox` is the collision primitive for vehicles, pedestrians
  and static obstacles.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Vec2",
    "Transform",
    "OrientedBox",
    "Polyline",
    "wrap_angle",
    "angle_diff",
    "point_segment_distance",
    "project_on_segment",
    "segments_intersect",
    "pack_boxes",
    "pad_box_packs",
    "batch_ray_hits_multi",
]

TWO_PI = 2.0 * math.pi


def wrap_angle(angle: float) -> float:
    """Wrap an angle in radians to the interval ``(-pi, pi]``."""
    wrapped = math.fmod(angle + math.pi, TWO_PI)
    if wrapped <= 0.0:
        wrapped += TWO_PI
    return wrapped - math.pi


def angle_diff(a: float, b: float) -> float:
    """Smallest signed difference ``a - b`` between two angles, in radians."""
    return wrap_angle(a - b)


@dataclass(frozen=True)
class Vec2:
    """Immutable 2-D vector with the handful of operations the sim needs."""

    x: float
    y: float

    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x - other.x, self.y - other.y)

    def __mul__(self, scalar: float) -> "Vec2":
        return Vec2(self.x * scalar, self.y * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "Vec2":
        return Vec2(-self.x, -self.y)

    def dot(self, other: "Vec2") -> float:
        """Dot product with ``other``."""
        return self.x * other.x + self.y * other.y

    def cross(self, other: "Vec2") -> float:
        """Z-component of the 3-D cross product (signed parallelogram area)."""
        return self.x * other.y - self.y * other.x

    def norm(self) -> float:
        """Euclidean length."""
        return math.hypot(self.x, self.y)

    def norm_sq(self) -> float:
        """Squared Euclidean length (avoids the sqrt in hot paths)."""
        return self.x * self.x + self.y * self.y

    def distance_to(self, other: "Vec2") -> float:
        """Euclidean distance to ``other``."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def normalized(self) -> "Vec2":
        """Unit vector in the same direction; zero vector maps to +x."""
        n = self.norm()
        if n < 1e-12:
            return Vec2(1.0, 0.0)
        return Vec2(self.x / n, self.y / n)

    def heading(self) -> float:
        """Angle of the vector from +x, radians in ``(-pi, pi]``."""
        return math.atan2(self.y, self.x)

    def rotated(self, angle: float) -> "Vec2":
        """Vector rotated counter-clockwise by ``angle`` radians."""
        c, s = math.cos(angle), math.sin(angle)
        return Vec2(c * self.x - s * self.y, s * self.x + c * self.y)

    def perp(self) -> "Vec2":
        """Counter-clockwise perpendicular (left normal)."""
        return Vec2(-self.y, self.x)

    def as_array(self) -> np.ndarray:
        """The vector as a ``float64`` numpy array of shape ``(2,)``."""
        return np.array([self.x, self.y], dtype=np.float64)

    @staticmethod
    def from_array(arr: Sequence[float]) -> "Vec2":
        """Build a :class:`Vec2` from any two-element sequence."""
        return Vec2(float(arr[0]), float(arr[1]))

    @staticmethod
    def from_heading(angle: float, length: float = 1.0) -> "Vec2":
        """Unit (or scaled) vector pointing along ``angle``."""
        return Vec2(math.cos(angle) * length, math.sin(angle) * length)


@dataclass(frozen=True)
class Transform:
    """Rigid 2-D pose: translation plus heading.

    Local frame convention matches the vehicle body frame: +x forward,
    +y to the left of the vehicle.
    """

    position: Vec2
    yaw: float = 0.0

    def to_world(self, local: Vec2) -> Vec2:
        """Map a point expressed in this pose's local frame to world frame."""
        return self.position + local.rotated(self.yaw)

    def to_local(self, world: Vec2) -> Vec2:
        """Map a world-frame point into this pose's local frame."""
        return (world - self.position).rotated(-self.yaw)

    def forward(self) -> Vec2:
        """Unit vector along the pose heading."""
        return Vec2.from_heading(self.yaw)

    def left(self) -> Vec2:
        """Unit vector pointing to the local left."""
        return Vec2.from_heading(self.yaw + math.pi / 2.0)

    def compose(self, child: "Transform") -> "Transform":
        """Pose of ``child`` (expressed locally) in the world frame."""
        return Transform(self.to_world(child.position), wrap_angle(self.yaw + child.yaw))


def project_on_segment(point: Vec2, a: Vec2, b: Vec2) -> tuple[float, Vec2]:
    """Project ``point`` on segment ``a``-``b``.

    Returns ``(t, closest)`` where ``t`` in ``[0, 1]`` is the normalised
    position along the segment and ``closest`` the nearest point on it.
    """
    ab = b - a
    denom = ab.norm_sq()
    if denom < 1e-18:
        return 0.0, a
    t = (point - a).dot(ab) / denom
    t = min(1.0, max(0.0, t))
    return t, a + ab * t


def point_segment_distance(point: Vec2, a: Vec2, b: Vec2) -> float:
    """Euclidean distance from ``point`` to segment ``a``-``b``."""
    _, closest = project_on_segment(point, a, b)
    return point.distance_to(closest)


def _orientation(a: Vec2, b: Vec2, c: Vec2) -> float:
    return (b - a).cross(c - a)


def segments_intersect(a1: Vec2, a2: Vec2, b1: Vec2, b2: Vec2) -> bool:
    """Whether closed segments ``a1a2`` and ``b1b2`` intersect."""
    d1 = _orientation(b1, b2, a1)
    d2 = _orientation(b1, b2, a2)
    d3 = _orientation(a1, a2, b1)
    d4 = _orientation(a1, a2, b2)
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)):
        return True

    def on_segment(p: Vec2, q: Vec2, r: Vec2) -> bool:
        return (
            min(p.x, r.x) - 1e-12 <= q.x <= max(p.x, r.x) + 1e-12
            and min(p.y, r.y) - 1e-12 <= q.y <= max(p.y, r.y) + 1e-12
        )

    if abs(d1) < 1e-12 and on_segment(b1, a1, b2):
        return True
    if abs(d2) < 1e-12 and on_segment(b1, a2, b2):
        return True
    if abs(d3) < 1e-12 and on_segment(a1, b1, a2):
        return True
    if abs(d4) < 1e-12 and on_segment(a1, b2, a2):
        return True
    return False


class OrientedBox:
    """Oriented bounding box on the ground plane.

    The collision primitive for every actor.  ``half_length`` extends along
    the local +x (heading) axis and ``half_width`` along local +y.
    """

    __slots__ = ("center", "yaw", "half_length", "half_width")

    def __init__(self, center: Vec2, yaw: float, half_length: float, half_width: float):
        if half_length <= 0 or half_width <= 0:
            raise ValueError("box extents must be positive")
        self.center = center
        self.yaw = yaw
        self.half_length = half_length
        self.half_width = half_width

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"OrientedBox(center=({self.center.x:.2f}, {self.center.y:.2f}), "
            f"yaw={self.yaw:.2f}, hl={self.half_length}, hw={self.half_width})"
        )

    def corners(self) -> list[Vec2]:
        """The four corners, counter-clockwise starting front-left."""
        f = Vec2.from_heading(self.yaw, self.half_length)
        l = Vec2.from_heading(self.yaw + math.pi / 2.0, self.half_width)
        c = self.center
        return [c + f + l, c - f + l, c - f - l, c + f - l]

    def contains_point(self, point: Vec2) -> bool:
        """Whether ``point`` lies inside (or on the boundary of) the box."""
        local = (point - self.center).rotated(-self.yaw)
        return abs(local.x) <= self.half_length + 1e-12 and abs(local.y) <= self.half_width + 1e-12

    def _axes(self) -> tuple[Vec2, Vec2]:
        return Vec2.from_heading(self.yaw), Vec2.from_heading(self.yaw + math.pi / 2.0)

    def overlaps(self, other: "OrientedBox") -> bool:
        """Separating-axis overlap test against another box.

        Hot path for the collision monitor: the four axis headings are
        computed once and reused as plain floats (the naive form repeats
        the trigonometry per axis), with identical arithmetic per axis.
        """
        sfx, sfy = math.cos(self.yaw), math.sin(self.yaw)
        slx, sly = (
            math.cos(self.yaw + math.pi / 2.0),
            math.sin(self.yaw + math.pi / 2.0),
        )
        ofx, ofy = math.cos(other.yaw), math.sin(other.yaw)
        olx, oly = (
            math.cos(other.yaw + math.pi / 2.0),
            math.sin(other.yaw + math.pi / 2.0),
        )
        dx = other.center.x - self.center.x
        dy = other.center.y - self.center.y
        for ax, ay in ((sfx, sfy), (slx, sly), (ofx, ofy), (olx, oly)):
            self_r = self.half_length * abs(ax * sfx + ay * sfy) + self.half_width * abs(
                ax * slx + ay * sly
            )
            other_r = other.half_length * abs(ax * ofx + ay * ofy) + other.half_width * abs(
                ax * olx + ay * oly
            )
            if abs(dx * ax + dy * ay) > self_r + other_r:
                return False
        return True

    def expanded(self, margin: float) -> "OrientedBox":
        """A copy grown by ``margin`` metres on every side."""
        return OrientedBox(
            self.center, self.yaw, self.half_length + margin, self.half_width + margin
        )

    def ray_hit_distance(self, origin: Vec2, direction: Vec2, max_range: float) -> float | None:
        """Distance at which a ray first hits this box, or ``None``.

        Used by the 2-D LIDAR model and NPC hazard checks.  ``direction``
        need not be normalised.  Plain-float slab test (no intermediate
        :class:`Vec2` objects) with the same arithmetic as the batched
        :func:`batch_ray_hits_multi`.
        """
        n = math.hypot(direction.x, direction.y)
        if n < 1e-12:
            dxn, dyn = 1.0, 0.0
        else:
            dxn, dyn = direction.x / n, direction.y / n
        # Work in the box frame where the box is axis aligned.
        c, s = math.cos(-self.yaw), math.sin(-self.yaw)
        px = origin.x - self.center.x
        py = origin.y - self.center.y
        ox = c * px - s * py
        oy = s * px + c * py
        rx = c * dxn - s * dyn
        ry = s * dxn + c * dyn
        t_min, t_max = 0.0, max_range
        for o_c, r_c, half in ((ox, rx, self.half_length), (oy, ry, self.half_width)):
            if abs(r_c) < 1e-12:
                if abs(o_c) > half:
                    return None
                continue
            t1 = (-half - o_c) / r_c
            t2 = (half - o_c) / r_c
            if t1 > t2:
                t1, t2 = t2, t1
            t_min = max(t_min, t1)
            t_max = min(t_max, t2)
            if t_min > t_max:
                return None
        if t_min > max_range:
            return None
        return t_min


def pack_boxes(boxes: Sequence["OrientedBox"]) -> np.ndarray:
    """Pack oriented boxes into a ``(B, 6)`` float64 array for batch tests.

    Columns: ``cx, cy, cos(-yaw), sin(-yaw), half_length, half_width`` —
    exactly the scalars :meth:`OrientedBox.ray_hit_distance` derives per
    call, precomputed once so :func:`batch_ray_hits_multi` is pure array
    math.
    """
    out = np.empty((len(boxes), 6), dtype=np.float64)
    for i, box in enumerate(boxes):
        out[i, 0] = box.center.x
        out[i, 1] = box.center.y
        out[i, 2] = math.cos(-box.yaw)
        out[i, 3] = math.sin(-box.yaw)
        out[i, 4] = box.half_length
        out[i, 5] = box.half_width
    return out


#: Padding row for ragged box packs: a unit box parked ~1e12 m away.  Any
#: ray either misses its slabs outright or first hits far beyond every
#: finite ``max_range``, so after range clamping it contributes ``inf`` to
#: the per-box fold — the exact value an absent box contributes.
_MISS_BOX = (1.0e12, 1.0e12, 1.0, 0.0, 1.0, 1.0)


def pad_box_packs(packs: Sequence[np.ndarray]) -> np.ndarray:
    """Stack ragged per-episode box packs into one ``(E, B_max, 6)`` slab.

    Episodes see different box counts (actor pruning is pose-dependent);
    short packs are padded with :data:`_MISS_BOX` rows, which are
    guaranteed misses, so :func:`batch_ray_hits_multi` returns for each
    episode exactly what it returns for that episode's pack alone.
    """
    n_eps = len(packs)
    b_max = max((len(p) for p in packs), default=0)
    out = np.empty((n_eps, b_max, 6), dtype=np.float64)
    pad = np.asarray(_MISS_BOX, dtype=np.float64)
    for e, pack in enumerate(packs):
        n = len(pack)
        out[e, :n] = pack
        if n < b_max:
            out[e, n:] = pad
    return out


def batch_ray_hits_multi(
    origins: np.ndarray,
    directions: np.ndarray,
    packed: np.ndarray,
    max_range: float,
) -> np.ndarray:
    """First-hit distances of ``R`` rays per episode against packed boxes.

    ``origins`` is ``(E, 2)``, ``directions`` ``(E, R, 2)`` unit direction
    vectors and ``packed`` ``(E, B, 6)`` :func:`pack_boxes` rows (ragged
    packs padded by :func:`pad_box_packs`).  Returns ``(E, R)`` float64
    distances holding, per ray, the nearest hit over the episode's boxes,
    or ``max_range`` where every box misses.  A single scan is ``E = 1``.

    Bit-identical to folding :meth:`OrientedBox.ray_hit_distance` over
    the boxes per ray: every slab division, min/max fold and comparison
    uses the same operands in the same order, just batched over
    ``(E, R, B)``.  The per-box ``min`` fold is exact and insensitive to
    the padded rows, and every op is elementwise over the episode axis,
    so an episode's ranges do not depend on its batch neighbours.
    """
    origins = np.asarray(origins, dtype=np.float64)
    directions = np.asarray(directions, dtype=np.float64)
    n_eps, n_rays = directions.shape[0], directions.shape[1]
    n_boxes = packed.shape[1] if len(packed) else 0
    if n_eps == 0 or n_boxes == 0:
        return np.full((n_eps, n_rays), max_range, dtype=np.float64)
    cx, cy, c, s, hl, hw = (packed[:, :, i] for i in range(6))  # (E, B)
    # Ray origin in every box frame (same expressions as Vec2.rotated(-yaw)).
    px = origins[:, 0:1] - cx
    py = origins[:, 1:2] - cy
    ox = c * px - s * py  # (E, B)
    oy = s * px + c * py
    nlo = np.empty((n_eps, 2 * n_boxes))
    nhi = np.empty((n_eps, 2 * n_boxes))
    np.subtract(-hl, ox, out=nlo[:, :n_boxes])
    np.subtract(hl, ox, out=nhi[:, :n_boxes])
    np.subtract(-hw, oy, out=nlo[:, n_boxes:])
    np.subtract(hw, oy, out=nhi[:, n_boxes:])
    dx = directions[:, :, 0:1]  # (E, R, 1)
    dy = directions[:, :, 1:2]
    r2 = np.empty((n_eps, n_rays, 2 * n_boxes))
    rx = r2[:, :, :n_boxes]
    ry = r2[:, :, n_boxes:]
    np.multiply(c[:, None, :], dx, out=rx)
    rx -= s[:, None, :] * dy
    np.multiply(s[:, None, :], dx, out=ry)
    ry += c[:, None, :] * dy

    abs_r2 = np.abs(r2)
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = nlo[:, None, :] / r2
        t2 = nhi[:, None, :] / r2
        lo = np.minimum(t1, t2)
        hi = np.maximum(t1, t2)
    # A parallel axis constrains nothing unless the origin lies outside
    # its slab, which is an outright miss.
    par = abs_r2 < 1e-12
    outside = np.empty((n_eps, 2 * n_boxes), dtype=bool)
    np.greater(np.abs(ox), hl, out=outside[:, :n_boxes])
    np.greater(np.abs(oy), hw, out=outside[:, n_boxes:])
    miss_2 = par & outside[:, None, :]
    miss = miss_2[:, :, :n_boxes] | miss_2[:, :, n_boxes:]
    lo = np.where(par, -np.inf, lo)
    hi = np.where(par, np.inf, hi)
    t_min = np.maximum(lo[:, :, :n_boxes], lo[:, :, n_boxes:])
    np.maximum(t_min, 0.0, out=t_min)
    t_max = np.minimum(hi[:, :, :n_boxes], hi[:, :, n_boxes:])
    np.minimum(t_max, max_range, out=t_max)
    hit = t_min <= t_max
    hit &= ~miss
    per_box = np.where(hit, t_min, np.inf)
    return np.minimum(per_box.min(axis=2), max_range)


def _segment_offset(seg: tuple, x: float, y: float) -> tuple[float, float, float, float]:
    """``(d2, t, rx, ry)`` of point ``(x, y)`` against one segment row.

    ``seg`` is ``(x0, y0, ab_x, ab_y, denom)``.  The operations are
    :meth:`Polyline._scan`'s, one element at a time: ``einsum`` adds its
    products from ``+0.0`` (so a ``-0.0`` dot product becomes ``+0.0``),
    and ``np.maximum(0.0, q)``/``np.minimum(1.0, t)`` return their second
    operand on a tie.
    """
    ax, ay, abx, aby, den = seg
    q = ((x - ax) * abx + (y - ay) * aby + 0.0) / den
    t = 0.0 if 0.0 > q else q
    t = 1.0 if 1.0 < t else t
    rx = x - (ax + abx * t)
    ry = y - (ay + aby * t)
    return rx * rx + ry * ry, t, rx, ry


class Polyline:
    """A piecewise-linear path with arc-length parameterisation.

    Lanes, routes and sidewalk paths are all polylines.  Supports
    interpolation by *station* (distance along the path) and nearest-point
    queries returning station plus signed lateral offset.

    Polylines are immutable, so everything a query derives from the
    vertices alone is built once (:meth:`_tables`): the segment tables
    :meth:`locate` scans and Python-list mirrors of the stations and
    segments that the scalar lookups bisect (the same float64 values, so
    the same bits).
    """

    def __init__(self, points: Iterable[Vec2]):
        pts = list(points)
        if len(pts) < 2:
            raise ValueError("polyline needs at least two points")
        self._pts = pts
        self._xy = np.array([[p.x, p.y] for p in pts], dtype=np.float64)
        seg = np.diff(self._xy, axis=0)
        self._seg_len = np.hypot(seg[:, 0], seg[:, 1])
        if np.any(self._seg_len < 1e-9):
            raise ValueError("polyline contains zero-length segments")
        self._cum = np.concatenate([[0.0], np.cumsum(self._seg_len)])
        self._seg_dir = seg / self._seg_len[:, None]
        self._length = float(self._cum[-1])
        #: Query tables, built by the first query (see :meth:`_tables`).
        self._lookup: tuple | None = None
        #: ``(x, y, (station, lateral))`` of the last :meth:`locate` query.
        #: One tuple, replaced whole, so a thread sharing the polyline (a
        #: cached town's lanes) never reads a key paired with another
        #: query's answer.
        self._locate_memo: tuple | None = None
        #: ``(x, y, sorted distances, segment order, last answer)`` of the
        #: windowed search (:meth:`_nearest`), opened by each full scan.
        self._window: tuple | None = None
        #: The windowed search's segment rows ``(x0, y0, ab_x, ab_y,
        #: denom)`` and coordinate scale (the largest vertex coordinate
        #: magnitude), built by the first full scan.
        self._segs: tuple | None = None

    def _tables(self) -> tuple:
        """``(stations, segment lengths, segment rows, scan tables)``.

        Python-list mirrors of the cumulative stations and segment
        lengths, per segment ``(x0, y0, dir_x, dir_y)`` float tuples, and
        the segment vectors and clamped squared lengths :meth:`_scan`
        scans.  Built on the first query, as most polylines (road
        centrelines, stripes, connectors) are never queried, and kept in
        one attribute so concurrent first queries agree.
        """
        tables = self._lookup
        if tables is None:
            ab = np.diff(self._xy, axis=0)
            rows = np.hstack([self._xy[:-1], self._seg_dir]).tolist()
            tables = self._lookup = (
                self._cum.tolist(),
                self._seg_len.tolist(),
                [tuple(row) for row in rows],
                ab,
                np.maximum(np.einsum("ij,ij->i", ab, ab), 1e-18),
            )
        return tables

    @property
    def points(self) -> list[Vec2]:
        """The defining vertices."""
        return list(self._pts)

    @property
    def length(self) -> float:
        """Total arc length in metres."""
        return self._length

    def point_at(self, station: float) -> Vec2:
        """Point at arc length ``station`` (clamped to the path extent)."""
        cum, _, rows, _, _ = self._lookup or self._tables()
        s = min(max(station, 0.0), self._length)
        idx = min(bisect_right(cum, s) - 1, len(rows) - 1)
        x0, y0, dx, dy = rows[idx]
        t = s - cum[idx]
        return Vec2(float(x0 + dx * t), float(y0 + dy * t))

    def heading_at(self, station: float) -> float:
        """Tangent heading at arc length ``station``."""
        cum, _, rows, _, _ = self._lookup or self._tables()
        s = min(max(station, 0.0), self._length - 1e-9)
        idx = min(max(bisect_right(cum, s) - 1, 0), len(rows) - 1)
        _, _, dx, dy = rows[idx]
        return math.atan2(dy, dx)

    def locate(self, point: Vec2) -> tuple[float, float]:
        """Nearest-point query.

        Returns ``(station, lateral)`` where ``station`` is the arc length of
        the closest point on the path and ``lateral`` the signed offset
        (positive to the *left* of the path direction).

        A controller asks this several times per frame at one pose, so the
        last answer is kept and a repeat query returns it without a scan.
        A query with a zero coordinate always scans: ``0.0 == -0.0``, yet
        the two can give differently signed zero offsets.

        The answer is the segment with the first minimal squared distance
        ``d2`` (ties go to the lower index, as ``np.argmin``).  A new pose
        is searched from the last answer's segment (:meth:`_nearest`): a
        full scan (:meth:`_scan`) at point ``s`` records every segment's
        distance ``D_j = sqrt(d2_j(s))``, sorted, and a later query ``p``
        with ``delta = |p - s| <= _WINDOW_M`` first evaluates the last
        answer's segment, giving ``best``.  By the triangle inequality the
        distance from ``p`` to segment ``j`` is at least ``D_j - delta``,
        so a segment with ``D_j > sqrt(best) + delta + margin`` has a
        ``d2`` strictly above ``best``: it can hold neither the minimum
        nor a tie with it, and the sorted tail of such segments is
        skipped as one block.  Every other segment is evaluated, and the
        first minimal ``d2`` among them (lowest index on a tie) is the
        full scan's argmin.  ``margin`` is ``1e-9`` times the coordinate
        scale, orders of magnitude above the few ulps by which computed
        distances can differ from exact ones.  Each evaluated segment's
        ``d2``, ``t`` and offset come from :func:`_segment_offset`, the
        full scan's elementwise operations one element at a time, so the
        answer has the full scan's bits.  Non-finite queries, and windows
        that would hold more than :data:`_WINDOW_MAX` segments, scan in
        full.
        """
        x, y = point.x, point.y
        memo = self._locate_memo
        if memo is not None and memo[0] == x and memo[1] == y and x and y:
            return memo[2]
        result = self._nearest(x, y)
        self._locate_memo = (x, y, result)
        return result

    #: The windowed search hands over to a full scan once the query is
    #: this far (metres) from the last full scan's point...
    _WINDOW_M = 4.0
    #: ... or once more segments than this could hold the answer.
    _WINDOW_MAX = 12

    def _nearest(self, x: float, y: float) -> tuple[float, float]:
        """``(station, lateral)`` of the nearest segment, searched from the
        last answer inside the window of the last full scan (see
        :meth:`locate` for why the answer is the full scan's)."""
        window = self._window
        if window is not None and math.isfinite(x) and math.isfinite(y):
            sx, sy, dist, order, start = window
            delta = math.hypot(x - sx, y - sy)
            if delta <= self._WINDOW_M:
                cum, seg_len, rows, _, _ = self._lookup
                segs, scale = self._segs
                best = _segment_offset(segs[start], x, y)
                reach = math.sqrt(best[0]) + delta + 1e-9 * (1.0 + scale + abs(x) + abs(y))
                end = bisect_right(dist, reach)
                if end <= self._WINDOW_MAX and math.isfinite(reach):
                    best_i = start
                    for i in order[:end]:
                        if i != start:
                            found = _segment_offset(segs[i], x, y)
                            if found[0] < best[0] or (found[0] == best[0] and i < best_i):
                                best, best_i = found, i
                    self._window = (sx, sy, dist, order, best_i)
                    _, t, rx, ry = best
                    _, _, dx, dy = rows[best_i]
                    return cum[best_i] + t * seg_len[best_i], dx * ry - dy * rx
        return self._scan(x, y)

    def _scan(self, x: float, y: float) -> tuple[float, float]:
        """One full segment scan for :meth:`locate`; opens a new window."""
        cum, seg_len, rows, ab, denom = self._lookup or self._tables()
        p = np.array([x, y])
        a = self._xy[:-1]
        # np.clip(t, 0, 1) without its dispatch overhead.  The operand
        # order matters: ``maximum(0.0, t)`` returns ``t`` on a tie, so a
        # ``-0.0`` stays as np.clip leaves it.
        t = np.minimum(1.0, np.maximum(0.0, np.einsum("ij,ij->i", p - a, ab) / denom))
        rel = p - (a + ab * t[:, None])
        d2 = np.einsum("ij,ij->i", rel, rel)
        idx = int(np.argmin(d2))
        if math.isfinite(x) and math.isfinite(y):
            dist = np.sqrt(d2)
            order = np.argsort(dist, kind="stable")
            ranked = dist[order].tolist()
            # A window needs every distance finite (NaN and inf sort last).
            if math.isfinite(ranked[-1]):
                if self._segs is None:
                    segs = np.hstack([a, ab, denom[:, None]]).tolist()
                    self._segs = (
                        [tuple(seg) for seg in segs],
                        float(np.abs(self._xy).max()),
                    )
                self._window = (x, y, ranked, order.tolist(), idx)
        station = cum[idx] + float(t[idx]) * seg_len[idx]
        _, _, dx, dy = rows[idx]
        rx, ry = rel[idx].tolist()
        return station, dx * ry - dy * rx

    def distance_to(self, point: Vec2) -> float:
        """Unsigned distance from ``point`` to the path."""
        station, _ = self.locate(point)
        closest = self.point_at(station)
        return point.distance_to(closest)

    def resampled_xy(self, spacing: float) -> np.ndarray:
        """The vertices of :meth:`resampled` as an ``(N, 2)`` array.

        :meth:`point_at` evaluated at every station at once, with the
        same expressions element-wise, so each row equals the scalar
        ``point_at`` bit for bit.
        """
        if spacing <= 0:
            raise ValueError("spacing must be positive")
        n = max(2, int(math.ceil(self.length / spacing)) + 1)
        s = np.linspace(0.0, self.length, n)
        idx = np.searchsorted(self._cum, s, side="right") - 1
        idx = np.minimum(idx, len(self._seg_len) - 1)
        t = s - self._cum[idx]
        out = np.empty((n, 2))
        out[:, 0] = self._xy[idx, 0] + self._seg_dir[idx, 0] * t
        out[:, 1] = self._xy[idx, 1] + self._seg_dir[idx, 1] * t
        return out

    def resampled(self, spacing: float) -> "Polyline":
        """A copy resampled at approximately uniform ``spacing`` metres.

        On a path that doubles back, two stations can land on one point;
        the later one is dropped, as it would make a zero-length segment
        (the same test as the constructor's).  A closed path resampled
        into its start and end alone has nothing left and raises.
        """
        xy = self.resampled_xy(spacing)
        seg = np.diff(xy, axis=0)
        keep = np.ones(len(xy), dtype=bool)
        keep[1:] = np.hypot(seg[:, 0], seg[:, 1]) >= 1e-9
        if keep.sum() < 2:
            raise ValueError(
                f"resampling at spacing {spacing!r} collapses the path to a point"
            )
        return Polyline([Vec2(x, y) for x, y in xy[keep].tolist()])

    def offset(self, lateral: float) -> "Polyline":
        """A parallel polyline offset ``lateral`` metres to the left."""
        out: list[Vec2] = []
        n_seg = len(self._seg_len)
        for i in range(len(self._pts)):
            if i == 0:
                d = self._seg_dir[0]
            elif i == len(self._pts) - 1:
                d = self._seg_dir[-1]
            else:
                avg = self._seg_dir[i - 1] + self._seg_dir[i]
                norm = math.hypot(avg[0], avg[1])
                d = avg / norm if norm > 1e-9 else self._seg_dir[min(i, n_seg - 1)]
            normal = Vec2(-float(d[1]), float(d[0]))
            out.append(self._pts[i] + normal * lateral)
        return Polyline(out)

    def reversed(self) -> "Polyline":
        """The same path traversed in the opposite direction."""
        return Polyline(list(reversed(self._pts)))
