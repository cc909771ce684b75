"""Route planning over the town's lane graph.

The conditional imitation-learning controller needs two things from a
planner (fig. 1's "Route Planning" box): a geometric path to follow and a
stream of high-level *commands* — FOLLOW, LEFT, RIGHT, STRAIGHT — that
select the network branch as junctions approach.

:class:`RoutePlanner` runs A* over intersections connected by directed
lanes, stitches lane centrelines with smooth junction connector curves into
one :class:`Route` polyline, and labels every point with the command in
force there (turn commands activate ``COMMAND_HORIZON`` metres before the
junction, as in the CARLA benchmark).
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from ..sim.geometry import Polyline, Vec2
from ..sim.town import Lane, Town

__all__ = ["Command", "Route", "RoutePlanner", "PlanningError", "COMMAND_HORIZON"]

#: Metres before a junction at which its turn command becomes active.
COMMAND_HORIZON = 14.0


class Command(IntEnum):
    """High-level navigation commands, one per network branch."""

    FOLLOW = 0
    LEFT = 1
    RIGHT = 2
    STRAIGHT = 3


class PlanningError(RuntimeError):
    """Raised when no route exists between the requested endpoints."""


@dataclass
class Route:
    """A planned path with per-station command labels.

    ``polyline`` runs start→goal; ``commands`` holds one :class:`Command`
    per polyline vertex (same indexing as ``polyline.points``).
    """

    polyline: Polyline
    commands: list[Command]

    def __post_init__(self) -> None:
        if len(self.commands) != len(self.polyline.points):
            raise ValueError("one command per route vertex required")
        self._stations = np.concatenate(
            [
                [0.0],
                np.cumsum(
                    [
                        a.distance_to(b)
                        for a, b in zip(self.polyline.points, self.polyline.points[1:])
                    ]
                ),
            ]
        ).tolist()

    @property
    def length(self) -> float:
        """Total route length, metres."""
        return self.polyline.length

    def locate(self, position: Vec2) -> tuple[float, float]:
        """``(station, lateral)`` of ``position`` w.r.t. the route."""
        return self.polyline.locate(position)

    def command_at(self, position: Vec2) -> Command:
        """The command in force at the route point nearest ``position``."""
        station, _ = self.polyline.locate(position)
        idx = bisect_right(self._stations, station) - 1
        idx = min(max(idx, 0), len(self.commands) - 1)
        return self.commands[idx]

    def target_point(self, position: Vec2, lookahead: float) -> Vec2:
        """Pure-pursuit target: the route point ``lookahead`` m ahead."""
        station, _ = self.polyline.locate(position)
        return self.polyline.point_at(station + lookahead)

    def distance_remaining(self, position: Vec2) -> float:
        """Route distance left from ``position`` to the goal."""
        station, _ = self.polyline.locate(position)
        return max(0.0, self.length - station)

    def cross_track_error(self, position: Vec2) -> float:
        """Signed lateral offset from the route (positive = left of it)."""
        _, lateral = self.polyline.locate(position)
        return lateral

    def off_route(self, position: Vec2, tolerance: float = 8.0) -> bool:
        """Whether ``position`` has strayed more than ``tolerance`` metres."""
        return abs(self.cross_track_error(position)) > tolerance


class RoutePlanner:
    """Plans :class:`Route` objects on one town.

    The search runs over the *lane graph* (states are lanes, transitions
    are junction connectors) rather than over intersections, so it can
    exclude U-turn transitions — a 180° flip inside a junction is tighter
    than the bicycle model's minimum turning radius and a real planner
    would never emit one.  ``TURN_PENALTY`` metres are added per junction
    crossing so straighter routes win ties.
    """

    TURN_PENALTY = 4.0

    def __init__(self, town: Town):
        self.town = town
        # lane -> outgoing lanes at its end intersection; the town owns the
        # successor topology (U-turns excluded, see Town.lane_successors).
        self._successors: dict[tuple[int, int], list[Lane]] = {
            tuple(lane.ref): town.lane_successors(lane) for lane in town.lanes.values()
        }

    # ------------------------------------------------------------------
    _GOAL = ("GOAL", 0)  # virtual terminal node of the lane-graph search

    def _astar(self, start_lane: Lane, start_station: float, goal_lane: Lane, goal_station: float) -> list[Lane]:
        """Cheapest lane sequence from ``start_lane`` to ``goal_lane``.

        Includes both endpoint lanes.  The goal is a *virtual* node entered
        by transitioning onto ``goal_lane`` and driving to ``goal_station``;
        this both prices the final partial traversal correctly and handles
        ``goal_lane == start_lane`` with the goal behind the vehicle (the
        route loops around a block and re-enters the lane).
        """
        goal_ref = tuple(goal_lane.ref)
        goal_pos = goal_lane.centerline.point_at(goal_station)

        def heuristic(lane: Lane) -> float:
            end = lane.centerline.point_at(lane.length)
            return end.distance_to(goal_pos)

        start_ref = tuple(start_lane.ref)
        start_cost = start_lane.length - start_station
        counter = 0
        frontier: list[tuple[float, int, tuple]] = [
            (start_cost + heuristic(start_lane), counter, start_ref)
        ]
        g_score: dict[tuple, float] = {start_ref: start_cost}
        came_from: dict[tuple, tuple] = {}
        while frontier:
            _, _, ref = heapq.heappop(frontier)
            if ref == self._GOAL:
                return self._reconstruct(came_from, start_ref, goal_lane)
            for succ in self._successors[ref]:
                succ_ref = tuple(succ.ref)
                if succ_ref == goal_ref:
                    tentative = g_score[ref] + self.TURN_PENALTY + goal_station
                    if tentative < g_score.get(self._GOAL, math.inf):
                        g_score[self._GOAL] = tentative
                        came_from[self._GOAL] = ref
                        counter += 1
                        heapq.heappush(frontier, (tentative, counter, self._GOAL))
                    continue
                tentative = g_score[ref] + succ.length + self.TURN_PENALTY
                if tentative < g_score.get(succ_ref, math.inf):
                    g_score[succ_ref] = tentative
                    came_from[succ_ref] = ref
                    counter += 1
                    heapq.heappush(
                        frontier, (tentative + heuristic(succ), counter, succ_ref)
                    )
        raise PlanningError(
            f"no route from lane {start_lane.ref} to lane {goal_lane.ref}"
        )

    def _reconstruct(
        self,
        came_from: dict[tuple, tuple],
        start_ref: tuple,
        goal_lane: Lane,
    ) -> list[Lane]:
        from ..sim.town import LaneRef  # local import; avoids module cycle at load

        refs = [came_from[self._GOAL]]
        while refs[-1] != start_ref:
            refs.append(came_from[refs[-1]])
        refs.reverse()
        return [self.town.lanes[LaneRef(*r)] for r in refs] + [goal_lane]

    # ------------------------------------------------------------------
    def plan(self, start: Vec2, goal: Vec2, start_yaw: float | None = None) -> Route:
        """Plan a route between two world points.

        Start and goal snap to their nearest lanes (the start respecting
        ``start_yaw`` so the route leaves in the direction the vehicle
        faces).
        """
        start_lane, start_station, _ = self.town.nearest_lane(start, yaw_hint=start_yaw)
        goal_lane, goal_station, _ = self.town.nearest_lane(goal)

        if start_lane.ref == goal_lane.ref and goal_station >= start_station - 1.0:
            pts, cmds = self._lane_segment(start_lane, start_station, goal_station)
            return self._build_route(pts, cmds)

        lanes = self._astar(start_lane, start_station, goal_lane, goal_station)

        points: list[Vec2] = []
        commands: list[Command] = []
        for i, lane in enumerate(lanes):
            s0 = start_station if i == 0 else 0.0
            s1 = goal_station if i == len(lanes) - 1 else lane.length
            pts, cmds = self._lane_segment(lane, s0, s1)
            # Replace the tail of the previous lane's FOLLOW labels with the
            # junction command so the branch switches before the turn.
            if i + 1 < len(lanes):
                turn = self.town.turn_direction(lane, lanes[i + 1])
                command = Command[turn]
                self._relabel_tail(pts, cmds, command)
                connector = self.town.connection_curve(lane, lanes[i + 1])
                conn_pts = connector.points[1:-1]
                pts = pts + conn_pts
                cmds = cmds + [command] * len(conn_pts)
            points.extend(pts)
            commands.extend(cmds)
        return self._build_route(points, commands)

    # ------------------------------------------------------------------
    @staticmethod
    def _lane_segment(
        lane: Lane, s0: float, s1: float, spacing: float = 2.0
    ) -> tuple[list[Vec2], list[Command]]:
        s0 = min(max(s0, 0.0), lane.length)
        s1 = min(max(s1, 0.0), lane.length)
        if s1 <= s0 + 1e-6:
            point = lane.centerline.point_at(s0)
            return [point], [Command.FOLLOW]
        n = max(2, int(math.ceil((s1 - s0) / spacing)) + 1)
        stations = np.linspace(s0, s1, n)
        pts = [lane.centerline.point_at(float(s)) for s in stations]
        return pts, [Command.FOLLOW] * len(pts)

    @staticmethod
    def _relabel_tail(pts: list[Vec2], cmds: list[Command], command: Command) -> None:
        """Label the last ``COMMAND_HORIZON`` metres of a lane with ``command``."""
        remaining = COMMAND_HORIZON
        for i in range(len(pts) - 1, 0, -1):
            cmds[i] = command
            remaining -= pts[i].distance_to(pts[i - 1])
            if remaining <= 0.0:
                break
        if remaining > 0.0 and cmds:
            cmds[0] = command

    @staticmethod
    def _build_route(points: list[Vec2], commands: list[Command]) -> Route:
        # Deduplicate consecutive points that would create zero-length segments.
        clean_pts: list[Vec2] = []
        clean_cmds: list[Command] = []
        for p, c in zip(points, commands):
            if clean_pts and p.distance_to(clean_pts[-1]) < 1e-6:
                continue
            clean_pts.append(p)
            clean_cmds.append(c)
        if len(clean_pts) < 2:
            # Degenerate same-point route; synthesise a short stub so the
            # Route polyline stays valid.
            clean_pts.append(clean_pts[0] + Vec2(0.5, 0.0))
            clean_cmds.append(clean_cmds[0])
        return Route(Polyline(clean_pts), clean_cmds)
