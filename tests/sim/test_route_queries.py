"""Route and lane queries against their NumPy reference, bit for bit.

``Polyline`` lookups bisect Python lists and ``locate`` scans
precomputed segment tables (remembering its last answer);
``Town.nearest_lane`` clamps without ``np.clip``.  Every answer must be
the reference's (``geometry_reference.py``) to the last bit, compared as
``float.hex`` so signed zeros count.  Also here: the one-scan-per-pose
count of the expert, the per-town memos, and ``Polyline.resampled`` on
a path that doubles back.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.agent.autopilot import Expert
from repro.agent.planner import RoutePlanner
from repro.core import standard_scenarios
from repro.sim.builders import SimulationBuilder
from repro.sim.geometry import Polyline, Vec2
from repro.sim.render import CameraModel
from repro.sim.town import GridTownConfig, build_grid_town

from geometry_reference import (
    reference_heading_at,
    reference_locate,
    reference_nearest_lane,
    reference_point_at,
)

coords = st.floats(-100.0, 100.0, allow_nan=False) | st.sampled_from([0.0, -0.0])
far = st.floats(-1e4, 1e4, allow_nan=False)


def _hex(*values: float) -> tuple[str, ...]:
    return tuple(float(v).hex() for v in values)


@st.composite
def polylines(draw):
    pts = draw(st.lists(st.tuples(coords, coords), min_size=2, max_size=8))
    try:
        return Polyline([Vec2(x, y) for x, y in pts])
    except ValueError:
        assume(False)


@st.composite
def query_points(draw, pl: Polyline):
    kind = draw(st.sampled_from(["random", "vertex", "far", "station"]))
    if kind == "vertex":
        return draw(st.sampled_from(pl.points))
    if kind == "far":
        return Vec2(draw(far), draw(far))
    if kind == "station":
        s = draw(st.floats(0.0, 1.0))
        return pl.point_at(s * pl.length)
    return Vec2(draw(coords), draw(coords))


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_locate_matches_reference_bitwise(data):
    pl = data.draw(polylines())
    for _ in range(3):
        p = data.draw(query_points(pl))
        expected = _hex(*reference_locate(pl, p))
        assert _hex(*pl.locate(p)) == expected
        assert _hex(*pl.locate(p)) == expected  # the remembered answer


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_point_and_heading_match_reference_bitwise(data):
    pl = data.draw(polylines())
    vertex_stations = [float(s) for s in pl._cum]
    station = data.draw(
        st.floats(-50.0, pl.length + 50.0, allow_nan=False)
        | st.sampled_from(vertex_stations + [-0.0, pl.length, math.inf, -math.inf])
    )
    got = pl.point_at(station)
    ref = reference_point_at(pl, station)
    assert _hex(got.x, got.y) == _hex(ref.x, ref.y)
    assert _hex(pl.heading_at(station)) == _hex(reference_heading_at(pl, station))


@st.composite
def walked_polylines(draw):
    """Up to 40 vertices by random steps, some axis-aligned or doubling
    back, so equal distances to two segments (ties) occur."""
    steps = st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)) | st.sampled_from(
        [(2.0, 0.0), (-2.0, 0.0), (0.0, 2.0), (0.0, -2.0)]
    )
    x, y = draw(coords), draw(coords)
    pts = [Vec2(x, y)]
    for dx, dy in draw(st.lists(steps, min_size=1, max_size=39)):
        x, y = x + dx, y + dy
        pts.append(Vec2(x, y))
    try:
        return Polyline(pts)
    except ValueError:
        assume(False)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_windowed_locate_along_a_walk_matches_reference_bitwise(data):
    """Nearby successive queries go through the windowed search from the
    last answer; every answer is still the full scan's, ties and signed
    zeros included."""
    pl = data.draw(walked_polylines())
    p = data.draw(query_points(pl))
    x, y = p.x, p.y
    moves = st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)) | st.sampled_from(
        [(0.0, 0.0), (0.5, 0.0), (0.0, -0.5)]
    )
    for _ in range(12):
        if data.draw(st.booleans()):
            p = data.draw(query_points(pl))
            x, y = p.x, p.y
        else:
            dx, dy = data.draw(moves)
            x, y = x + dx, y + dy
        q = Vec2(x, y)
        assert _hex(*pl.locate(q)) == _hex(*reference_locate(pl, q))


def test_windowed_locate_scans_rarely_along_a_route(monkeypatch):
    """Driving along a route, most poses are answered by the window: a
    full scan runs only after ``_WINDOW_M`` of travel (or a crowded
    window), and every answer is the reference's."""
    scenario = standard_scenarios(
        1, seed=3, town_config=GridTownConfig(rows=2, cols=3),
        min_distance=60, max_distance=160,
    )[0]
    route = RoutePlanner(build_grid_town(GridTownConfig(rows=2, cols=3))).plan(
        scenario.mission.start.position, scenario.mission.goal,
        start_yaw=scenario.mission.start.yaw,
    )
    pl = route.polyline
    scans = []
    scan = Polyline._scan

    def counting(self, x, y):
        scans.append((x, y))
        return scan(self, x, y)

    monkeypatch.setattr(Polyline, "_scan", counting)
    poses = [pl.point_at(0.37 * k) for k in range(int(pl.length / 0.37))]
    for k, on_route in enumerate(poses):
        q = Vec2(on_route.x + 0.8 * math.sin(k / 7.0), on_route.y - 0.3)
        assert _hex(*pl.locate(q)) == _hex(*reference_locate(pl, q))
    assert len(scans) < len(poses) / 4


def test_locate_signed_zero_queries_are_not_confused():
    # 0.0 == -0.0, so a remembered answer must not be handed out across
    # the two: here they differ in the sign of the lateral offset's zero.
    pl = Polyline([Vec2(-0.0, -0.0), Vec2(-3.0, -4.0)])
    for p in (Vec2(0.0, 0.0), Vec2(-0.0, -0.0), Vec2(0.0, 0.0)):
        assert _hex(*pl.locate(p)) == _hex(*reference_locate(pl, p))


TOWN = build_grid_town(GridTownConfig(rows=2, cols=3))


@given(
    st.floats(-30.0, 300.0, allow_nan=False),
    st.floats(-30.0, 200.0, allow_nan=False),
    st.none()
    | st.floats(-4.0, 4.0, allow_nan=False)
    | st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, math.pi / 2]),
)
@settings(max_examples=300, deadline=None)
def test_nearest_lane_matches_reference_bitwise(x, y, yaw_hint):
    p = Vec2(x, y)
    lane, station, lateral = TOWN.nearest_lane(p, yaw_hint=yaw_hint)
    ref_lane, ref_station, ref_lateral = reference_nearest_lane(TOWN, p, yaw_hint)
    assert lane is ref_lane
    assert _hex(station, lateral) == _hex(ref_station, ref_lateral)


def test_nearest_lane_on_lane_vertices():
    for lane in TOWN.lanes.values():
        for p in lane.centerline.points:
            got = TOWN.nearest_lane(p, yaw_hint=lane.centerline.heading_at(0.0))
            ref = reference_nearest_lane(TOWN, p, lane.centerline.heading_at(0.0))
            assert got[0] is ref[0]
            assert _hex(*got[1:]) == _hex(*ref[1:])


def test_one_segment_scan_per_expert_control(monkeypatch):
    builder = SimulationBuilder(camera=CameraModel(width=24, height=16), with_lidar=False)
    scenario = standard_scenarios(
        1, seed=3, town_config=GridTownConfig(rows=2, cols=3),
        min_distance=60, max_distance=160,
    )[0]
    handles = builder.build_episode(scenario)
    world = handles.world
    route = RoutePlanner(handles.town).plan(
        scenario.mission.start.position,
        scenario.mission.goal,
        start_yaw=scenario.mission.start.yaw,
    )
    expert = Expert(world, route)
    scans = []
    scan = Polyline._nearest

    def counting(self, x, y):
        if self is route.polyline:
            scans.append((x, y))
        return scan(self, x, y)

    monkeypatch.setattr(Polyline, "_nearest", counting)
    for _ in range(5):
        control = expert.control(world.dt)
        assert len(scans) == 1, "one Expert.control scans its route once"
        world.ego.apply_control(control)
        world.tick()
        scans.clear()


def test_spawn_points_memo_hands_out_independent_lists():
    town = build_grid_town(GridTownConfig(rows=2, cols=3))
    first = town.spawn_points(spacing=14.0)
    expected = list(first)
    first.reverse()
    first.pop()
    again = town.spawn_points(spacing=14.0)
    assert again is not first
    assert again == expected
    fresh = build_grid_town(GridTownConfig(rows=2, cols=3))
    assert [(w.position, w.yaw, w.lane.ref, w.station) for w in fresh.spawn_points(14.0)] == [
        (w.position, w.yaw, w.lane.ref, w.station) for w in again
    ]
    # Integer arguments keep giving integer stations.
    assert all(isinstance(w.station, int) for w in town.spawn_points(10, 8))
    assert all(isinstance(w.station, float) for w in town.spawn_points(10.0, 8.0))


def test_connection_curve_memo_matches_a_fresh_build():
    town = build_grid_town(GridTownConfig(rows=2, cols=3))
    fresh = build_grid_town(GridTownConfig(rows=2, cols=3))
    for lane in town.lanes.values():
        for succ in town.lane_successors(lane):
            curve = town.connection_curve(lane, succ)
            assert town.connection_curve(lane, succ) is curve
            other = fresh._build_connection_curve(
                fresh.lanes[lane.ref], fresh.lanes[succ.ref], 1.0
            )
            assert curve.points == other.points


class TestResampledDoublingBack:
    def test_coincident_station_is_dropped(self):
        pl = Polyline([Vec2(1.0, 0.0), Vec2(0.0, 1.0), Vec2(1.0, 0.0)])
        xy = pl.resampled_xy(1.0)
        assert len(xy) == 4 and (xy[1] == xy[2]).all()  # the collision
        out = pl.resampled(1.0)
        assert out.points == [Vec2(*xy[0]), Vec2(*xy[1]), Vec2(*xy[3])]

    def test_straight_path_keeps_every_station(self):
        pl = Polyline([Vec2(0.0, 0.0), Vec2(10.0, 0.0)])
        assert [(p.x, p.y) for p in pl.resampled(2.5).points] == [
            tuple(row) for row in pl.resampled_xy(2.5).tolist()
        ]

    def test_closed_path_collapsing_to_a_point_raises(self):
        pl = Polyline([Vec2(0.0, 0.0), Vec2(1.0, 0.0), Vec2(0.0, 0.0)])
        with pytest.raises(ValueError, match="collapses"):
            pl.resampled(5.0)
