"""Reference route and lane queries: the NumPy versions before the
per-frame fixed costs were cut.

``Polyline.point_at``/``heading_at`` searched the stations with
``np.searchsorted``; ``Polyline.locate`` rebuilt its segment tables on
every call and clamped with ``np.clip``; ``Town.nearest_lane`` clamped
with ``np.clip`` too.  They are kept here verbatim, reading the
polyline's and town's own arrays, as the oracle the list-backed and
precomputed versions must reproduce bit for bit
(``tests/sim/test_route_queries.py``).
"""

from __future__ import annotations

import math

import numpy as np

from repro.sim.geometry import Polyline, Vec2
from repro.sim.town import Town


def reference_point_at(pl: Polyline, station: float) -> Vec2:
    s = min(max(station, 0.0), float(pl._cum[-1]))
    idx = int(np.searchsorted(pl._cum, s, side="right") - 1)
    idx = min(idx, len(pl._seg_len) - 1)
    t = s - pl._cum[idx]
    x = pl._xy[idx, 0] + pl._seg_dir[idx, 0] * t
    y = pl._xy[idx, 1] + pl._seg_dir[idx, 1] * t
    return Vec2(float(x), float(y))


def reference_heading_at(pl: Polyline, station: float) -> float:
    s = min(max(station, 0.0), float(pl._cum[-1]) - 1e-9)
    idx = int(np.searchsorted(pl._cum, s, side="right") - 1)
    idx = min(max(idx, 0), len(pl._seg_len) - 1)
    return float(math.atan2(pl._seg_dir[idx, 1], pl._seg_dir[idx, 0]))


def reference_locate(pl: Polyline, point: Vec2) -> tuple[float, float]:
    p = np.array([point.x, point.y])
    a = pl._xy[:-1]
    ab = pl._xy[1:] - a
    denom = np.maximum(np.einsum("ij,ij->i", ab, ab), 1e-18)
    t = np.clip(np.einsum("ij,ij->i", p - a, ab) / denom, 0.0, 1.0)
    closest = a + ab * t[:, None]
    d2 = np.einsum("ij,ij->i", p - closest, p - closest)
    idx = int(np.argmin(d2))
    station = float(pl._cum[idx] + t[idx] * pl._seg_len[idx])
    dir_vec = pl._seg_dir[idx]
    rel = p - closest[idx]
    lateral = float(dir_vec[0] * rel[1] - dir_vec[1] * rel[0])
    return station, lateral


def reference_nearest_lane(town: Town, point: Vec2, yaw_hint: float | None = None):
    px, py = point.x, point.y
    ax, ay, cosv, sinv, lenv, stav, lanev = town._segment_arrays(px, py)
    relx = px - ax
    rely = py - ay
    t = np.clip((relx * cosv + rely * sinv) / lenv, 0.0, 1.0)
    ts = t * lenv
    offx = px - (ax + cosv * ts)
    offy = py - (ay + sinv * ts)
    d2 = offx * offx + offy * offy
    if yaw_hint is not None and not math.isfinite(yaw_hint):
        yaw_hint = None
    if yaw_hint is not None:
        ch, sh = math.cos(yaw_hint), math.sin(yaw_hint)
        against = cosv * ch + sinv * sh < 0.0
        d2 = d2 + np.where(against, town.lane_width**2, 0.0)
    k = int(np.argmin(d2))
    station = float(stav[k] + t[k] * lenv[k])
    lateral = float(cosv[k] * offy[k] - sinv[k] * offx[k])
    return town._lane_list[lanev[k]], station, lateral
