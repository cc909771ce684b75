"""World actors: the ego vehicle, NPC traffic and pedestrians.

Actors are server-side entities advanced by :class:`repro.sim.world.World`
each tick.  The ego vehicle is externally controlled (by the agent client);
NPC vehicles follow lanes with a simple pure-pursuit behaviour and yield to
obstacles; pedestrians walk sidewalks and occasionally cross the road,
which is what makes collision faults observable in campaigns.

All behaviour randomness flows through the generator passed to ``tick`` so
whole episodes are reproducible from a single seed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from .geometry import OrientedBox, Polyline, Transform, Vec2, wrap_angle
from .physics import BicycleModel, VehicleControl, VehicleSpec, VehicleState, _safe
from .town import Lane, Town

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .world import World

__all__ = [
    "Actor",
    "Vehicle",
    "Pedestrian",
    "NPCVehicle",
    "PEDESTRIAN_SPEC",
    "BEHAVIOR_NAMES",
    "BehaviorSpec",
    "NPCBehavior",
    "make_behavior",
]

_actor_ids = itertools.count(1)


def _next_actor_id() -> int:
    return next(_actor_ids)


class Actor:
    """Base class for anything with a pose and a collision box."""

    role: str = "actor"

    def __init__(self, transform: Transform, half_length: float, half_width: float, height: float):
        self.id = _next_actor_id()
        self.transform = transform
        self.half_length = half_length
        self.half_width = half_width
        self.height = height
        self.alive = True

    @property
    def position(self) -> Vec2:
        """World position."""
        return self.transform.position

    @property
    def yaw(self) -> float:
        """World heading, radians."""
        return self.transform.yaw

    def bounding_box(self) -> OrientedBox:
        """Ground-plane collision box at the current pose."""
        return OrientedBox(self.position, self.yaw, self.half_length, self.half_width)

    def speed(self) -> float:
        """Scalar speed in m/s (zero for static actors)."""
        return 0.0

    def tick(self, world: "World", dt: float, rng: np.random.Generator) -> None:
        """Advance the actor by one frame.  Static actors do nothing."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(id={self.id}, pos=({self.position.x:.1f}, {self.position.y:.1f}))"


class Vehicle(Actor):
    """A car driven by externally supplied controls (the ego, typically).

    Its dynamic state lives in plain floats (``_x``, ``_y``, ``_yaw``,
    ``_speed``) that :meth:`BicycleModel.advance` updates each tick;
    :attr:`state` packs them into a :class:`VehicleState` on request.
    """

    role = "vehicle"
    color: tuple[int, int, int] = (180, 30, 30)

    def __init__(self, transform: Transform, spec: VehicleSpec | None = None):
        spec = spec or VehicleSpec()
        hl, hw = spec.half_extents()
        super().__init__(transform, hl, hw, spec.height)
        self.spec = spec
        self.model = BicycleModel(spec)
        self.state = VehicleState(transform.position.x, transform.position.y, transform.yaw, 0.0)
        self.control = VehicleControl()
        self.odometer_m = 0.0

    @property
    def state(self) -> VehicleState:
        """Pose and speed as a :class:`VehicleState`."""
        return VehicleState(self._x, self._y, self._yaw, self._speed)

    @state.setter
    def state(self, state: VehicleState) -> None:
        self._x, self._y, self._yaw, self._speed = state.x, state.y, state.yaw, state.speed

    def speed(self) -> float:
        """Current signed speed, m/s."""
        return self._speed

    def apply_control(self, control: VehicleControl) -> None:
        """Set the control applied at the next tick (held until replaced)."""
        self.control = control

    def teleport(self, transform: Transform, speed: float = 0.0) -> None:
        """Move the vehicle instantly (spawning / scenario reset)."""
        self.state = self.model.teleport(self.state, transform, speed)
        self.transform = transform

    def tick(self, world: "World", dt: float, rng: np.random.Generator) -> None:
        ctl = self.control.clamped()
        self._drive(ctl.steer, ctl.throttle, ctl.brake, ctl.reverse, ctl.hand_brake, dt)

    def _drive(
        self,
        steer: float,
        throttle: float,
        brake: float,
        reverse: bool,
        hand_brake: bool,
        dt: float,
    ) -> None:
        """Integrate one sanitised command: the pose, its one
        :class:`Transform` and the odometer."""
        prev_x, prev_y = self._x, self._y
        x, y, yaw, self._speed = self.model.advance(
            prev_x, prev_y, self._yaw, self._speed,
            steer, throttle, brake, reverse, hand_brake, dt,
        )
        self._x, self._y, self._yaw = x, y, yaw
        self.transform = Transform(Vec2(x, y), yaw)
        self.odometer_m += math.hypot(x - prev_x, y - prev_y)


PEDESTRIAN_SPEC = {"half_length": 0.25, "half_width": 0.25, "height": 1.8}


class Pedestrian(Actor):
    """A walker that follows sidewalks and sometimes crosses the road.

    The walker holds a current goal point; on arrival (or timeout) it draws
    a new one.  With probability ``cross_rate`` per second the next goal is
    directly across the adjacent road, creating the jaywalking events that
    exercise collision detection.
    """

    role = "pedestrian"
    color: tuple[int, int, int] = (220, 170, 40)

    def __init__(
        self,
        transform: Transform,
        town: Town,
        walk_speed: float = 1.4,
        cross_rate: float = 0.02,
    ):
        super().__init__(transform, **PEDESTRIAN_SPEC)
        self.town = town
        self.walk_speed = walk_speed
        self.cross_rate = cross_rate
        self._goal: Optional[Vec2] = None
        self._goal_patience_s = 0.0

    def speed(self) -> float:
        """Walking speed while a goal is active."""
        return self.walk_speed if self._goal is not None else 0.0

    def _sidewalk_goal(self, rng: np.random.Generator) -> Vec2:
        """A goal further along the sidewalk of the nearest road."""
        lane, station, lateral = self.town.nearest_lane(self.position)
        road = lane.road
        side = 1.0 if lateral >= 0 else -1.0
        walk_offset = road.half_width + self.town.sidewalk_width / 2.0
        direction = 1.0 if rng.random() < 0.7 else -1.0
        target_station = station + direction * float(rng.uniform(8.0, 25.0))
        target_station = min(max(target_station, 0.0), lane.length)
        base = lane.centerline.point_at(target_station)
        heading = lane.centerline.heading_at(target_station)
        normal = Vec2.from_heading(heading + math.pi / 2.0)
        return base + normal * (side * walk_offset)

    def _crossing_goal(self) -> Vec2:
        """A goal straight across the nearest road."""
        lane, station, lateral = self.town.nearest_lane(self.position)
        road = lane.road
        heading = lane.centerline.heading_at(station)
        normal = Vec2.from_heading(heading + math.pi / 2.0)
        span = 2.0 * road.half_width + self.town.sidewalk_width
        sign = -1.0 if lateral >= 0 else 1.0
        return self.position + normal * (sign * span)

    def tick(self, world: "World", dt: float, rng: np.random.Generator) -> None:
        if self._goal is None or self._goal_patience_s <= 0.0:
            # ``cross_rate`` is per second; goals last 6-20 s, so scale the
            # per-goal crossing probability by the expected goal duration.
            if rng.random() < min(0.5, self.cross_rate * 13.0):
                self._goal = self._crossing_goal()
            else:
                self._goal = self._sidewalk_goal(rng)
            self._goal_patience_s = float(rng.uniform(6.0, 20.0))
        self._goal_patience_s -= dt

        # Vec2 arithmetic (goal - position, normalized, scaled step) on
        # plain floats, with the same expressions.
        pos = self.transform.position
        px, py = pos.x, pos.y
        goal = self._goal
        tx = goal.x - px
        ty = goal.y - py
        dist = math.hypot(tx, ty)
        if dist < 0.5:
            self._goal = None
            return
        step = min(self.walk_speed * dt, dist)
        # dist >= 0.5, so normalized() divides (its zero-vector branch
        # never applies).
        dx = tx / dist
        dy = ty / dist
        self.transform = Transform(Vec2(px + dx * step, py + dy * step), math.atan2(dy, dx))


#: Declarative NPC behaviors a scenario can attach to a scripted vehicle.
BEHAVIOR_NAMES = ("cut_in", "brake_on_proximity", "run_junction")

_TURNS = (None, "LEFT", "RIGHT", "STRAIGHT")


@dataclass(frozen=True)
class BehaviorSpec:
    """A declarative reactive behavior for a scripted NPC vehicle.

    The behavior is a three-state machine compiled onto the NPC's pursuit
    controller by :func:`make_behavior`: the vehicle *cruises* normally
    until the ego comes within ``trigger_distance`` (the interrupt
    condition), runs its *maneuver* for ``duration_s`` seconds, then is
    *done* and reverts to plain lane following.

    * ``cut_in`` — during the maneuver the pursuit target is biased
      ``lateral_m`` metres to the vehicle's left, swerving it toward the
      adjacent lane;
    * ``brake_on_proximity`` — the maneuver is a full brake (a suddenly
      stopping lead vehicle);
    * ``run_junction`` — the maneuver disables the hazard-yield check, so
      the vehicle drives through the junction without giving way.

    ``turn`` (LEFT/RIGHT/STRAIGHT) additionally forces the vehicle's first
    junction choice instead of drawing it from the episode RNG — how
    maneuver-conflict scenarios route an NPC onto a crossing left turn.
    ``speed_scale`` multiplies the target speed while the maneuver runs.
    """

    name: str
    trigger_distance: float = 25.0
    duration_s: float = 4.0
    turn: str | None = None
    speed_scale: float = 1.0
    lateral_m: float = 1.8

    def __post_init__(self) -> None:
        if self.name not in BEHAVIOR_NAMES:
            raise ValueError(
                f"unknown behavior {self.name!r} (expected one of {', '.join(BEHAVIOR_NAMES)})"
            )
        if self.trigger_distance <= 0.0:
            raise ValueError("trigger_distance must be positive")
        if self.duration_s <= 0.0:
            raise ValueError("duration_s must be positive")
        if self.turn not in _TURNS:
            raise ValueError(
                f"unknown turn {self.turn!r} (expected LEFT, RIGHT, STRAIGHT or null)"
            )
        if self.speed_scale <= 0.0:
            raise ValueError("speed_scale must be positive")

    def to_dict(self) -> dict:
        """Canonical JSON form (scenario serialisation)."""
        return {
            "name": str(self.name),
            "trigger_distance": float(self.trigger_distance),
            "duration_s": float(self.duration_s),
            "turn": str(self.turn) if self.turn is not None else None,
            "speed_scale": float(self.speed_scale),
            "lateral_m": float(self.lateral_m),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BehaviorSpec":
        """Rebuild a behavior written by :meth:`to_dict`."""
        if not isinstance(data, dict):
            raise TypeError(f"behavior must be an object, got {type(data).__name__}")
        unknown = set(data) - {
            "name",
            "trigger_distance",
            "duration_s",
            "turn",
            "speed_scale",
            "lateral_m",
        }
        if unknown:
            raise ValueError(f"behavior has unknown keys {sorted(unknown)}")
        if "name" not in data:
            raise ValueError("behavior needs a 'name'")
        turn = data.get("turn")
        return cls(
            name=str(data["name"]),
            trigger_distance=float(data.get("trigger_distance", 25.0)),
            duration_s=float(data.get("duration_s", 4.0)),
            turn=str(turn) if turn is not None else None,
            speed_scale=float(data.get("speed_scale", 1.0)),
            lateral_m=float(data.get("lateral_m", 1.8)),
        )


class NPCBehavior:
    """The runtime state machine compiled from a :class:`BehaviorSpec`.

    States run ``cruise`` → ``maneuver`` → ``done``; every transition is
    recorded in ``transitions`` as ``(from_state, to_state, frame)`` so
    tests (and campaign assertions) can prove the interrupt actually
    fired.  The machine never draws from the episode RNG — all its
    decisions are functions of world state — so attaching a behavior
    leaves every other actor's random stream untouched.
    """

    CRUISE = "cruise"
    MANEUVER = "maneuver"
    DONE = "done"

    def __init__(self, spec: BehaviorSpec):
        self.spec = spec
        self.state = self.CRUISE
        self.transitions: list[tuple[str, str, int]] = []
        self._maneuver_elapsed_s = 0.0
        self._forced_turn_pending = spec.turn is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NPCBehavior({self.spec.name}, state={self.state})"

    def _transition(self, new_state: str, frame: int) -> None:
        self.transitions.append((self.state, new_state, int(frame)))
        self.state = new_state

    def update(self, npc: "NPCVehicle", world: "World", dt: float) -> None:
        """Advance the state machine one frame (called before control)."""
        if self.state == self.CRUISE:
            ego = world.ego
            if (
                ego is not None
                and ego.id != npc.id
                and ego.position.distance_to(npc.position) <= self.spec.trigger_distance
            ):
                self._transition(self.MANEUVER, world.frame)
        elif self.state == self.MANEUVER:
            self._maneuver_elapsed_s += dt
            if self._maneuver_elapsed_s >= self.spec.duration_s:
                self._transition(self.DONE, world.frame)

    @property
    def active(self) -> bool:
        """Whether the maneuver is currently running."""
        return self.state == self.MANEUVER

    def interrupted(self) -> bool:
        """Whether the interrupt condition ever fired."""
        return any(t[1] == self.MANEUVER for t in self.transitions)

    # ------------------------------------------------------------------
    # Directives read by NPCVehicle's controller
    # ------------------------------------------------------------------
    def ignore_hazards(self) -> bool:
        """Suppress the hazard-yield check (``run_junction`` maneuver)."""
        return self.active and self.spec.name == "run_junction"

    def brake_now(self) -> bool:
        """Force a full brake (``brake_on_proximity`` maneuver)."""
        return self.active and self.spec.name == "brake_on_proximity"

    def speed_scale(self) -> float:
        """Target-speed multiplier for the current state."""
        return self.spec.speed_scale if self.active else 1.0

    def lateral_offset(self) -> float:
        """Leftward pursuit-target bias, metres (``cut_in`` maneuver)."""
        if self.active and self.spec.name == "cut_in":
            return self.spec.lateral_m
        return 0.0

    def pick_successor(self, town: Town, lane: Lane, options: list[Lane]) -> Lane | None:
        """The forced junction choice, or ``None`` to draw from the RNG.

        The forced ``turn`` applies to the first junction the vehicle
        reaches; afterwards routing reverts to random draws.  Returns
        ``None`` (and keeps the force pending) when no option matches,
        e.g. a junction with no left turn.
        """
        if not self._forced_turn_pending:
            return None
        for option in options:
            if town.turn_direction(lane, option) == self.spec.turn:
                self._forced_turn_pending = False
                return option
        return None


def make_behavior(spec: BehaviorSpec | None) -> NPCBehavior | None:
    """Compile a behavior spec into its runtime state machine."""
    return NPCBehavior(spec) if spec is not None else None


class NPCVehicle(Vehicle):
    """A background vehicle that follows lanes autonomously.

    Pure pursuit over a rolling path buffer built from lane centrelines and
    intersection connector curves; a proportional speed controller tracks
    ``target_speed`` and a hazard check brakes for actors ahead.  Turns at
    junctions are drawn from the seeded generator handed to ``tick``.

    An optional :class:`NPCBehavior` overlays a scripted maneuver on the
    controller (see :class:`BehaviorSpec`); without one, behaviour is
    bit-identical to the plain lane follower.

    The per-tick loop runs on plain floats: the path buffer holds
    ``(x, y)`` tuples, and the pursuit command goes straight to
    :meth:`BicycleModel.advance`, so a tick builds one :class:`Transform`
    and nothing else.  ``control`` (what :meth:`apply_control` sets) is
    never read: an NPC drives on its own command.
    """

    role = "npc_vehicle"
    color = (40, 90, 190)

    def __init__(
        self,
        lane: Lane,
        station: float,
        town: Town,
        target_speed: float = 6.0,
        spec: VehicleSpec | None = None,
        behavior: NPCBehavior | None = None,
    ):
        wp = lane.waypoint_at(station)
        super().__init__(Transform(wp.position, wp.yaw), spec)
        self.town = town
        self.target_speed = target_speed
        self.behavior = behavior
        self._lane = lane
        self._station = station
        #: Buffered path points ``(x, y)``; ``_seg[i]`` is the length of
        #: the step from ``_path[i]`` to ``_path[i + 1]`` and ``_tail``
        #: their running sum (see :meth:`_extend_path`).
        self._path: list[tuple[float, float]] = []
        self._seg: list[float] = []
        self._tail = 0.0
        self._lookahead = 6.0

    # ------------------------------------------------------------------
    # Path maintenance
    # ------------------------------------------------------------------
    def _append(self, x: float, y: float) -> None:
        path = self._path
        if path:
            ax, ay = path[-1]
            step = math.hypot(ax - x, ay - y)
            self._seg.append(step)
            self._tail += step
        path.append((x, y))

    def _extend_path(self, rng: np.random.Generator) -> None:
        """Append waypoints until the buffer reaches ~40 m ahead.

        The decision is :meth:`_path_length_ahead`'s left-to-right sum
        ``S = |pos - path[0]| + seg[0] + seg[1] + ...`` against 40 m, and
        every decision must come out as that scan's, as the number of
        lane ends reached sets the junction RNG draws.  The scan runs
        only near the threshold.  Otherwise the estimate
        ``E = |pos - path[0]| + _tail`` decides: ``_tail`` holds the same
        summands, added as points are appended and subtracted as they are
        pruned, and is re-summed from scratch after every extension.
        ``E`` and ``S`` are sums of the same non-negative terms (each
        ``seg`` entry is the scan's own ``hypot``, same operands, same
        order), so each is within a few ulps per operation of the exact
        sum: with under a hundred points of under a hundred metres and a
        few dozen prunes between re-sums, ``|E - S| < 1e-11`` m.  So when
        ``|E - 40| >= 1e-6`` m, ``S >= 40`` exactly when ``E >= 40``.
        """
        path = self._path
        hypot = math.hypot
        extended = False
        while True:
            if path:
                ax, ay = path[0]
                estimate = hypot(self._x - ax, self._y - ay) + self._tail
            else:
                estimate = 0.0
            if estimate >= 40.0 + 1e-6:
                break
            if estimate > 40.0 - 1e-6 and self._path_length_ahead(50.0) >= 40.0:
                break
            extended = True
            remaining = self._lane.length - self._station
            if remaining > 1.0:
                step_end = min(self._lane.length, self._station + 20.0)
                s = self._station + 2.0
                point_at = self._lane.centerline.point_at
                while s <= step_end:
                    p = point_at(s)
                    self._append(p.x, p.y)
                    s += 2.0
                self._station = step_end
                continue
            # At the lane end: pick the next lane through the junction —
            # a behavior's forced turn wins, otherwise draw from the RNG.
            options = self.town.lane_successors(self._lane)
            next_lane = None
            if self.behavior is not None:
                next_lane = self.behavior.pick_successor(self.town, self._lane, options)
            if next_lane is None:
                next_lane = options[int(rng.integers(len(options)))]
            connector = self.town.connection_curve(self._lane, next_lane)
            for p in connector.points[1:]:
                self._append(p.x, p.y)
            self._lane = next_lane
            self._station = 0.0
        if extended:
            tail = 0.0
            for step in self._seg:
                tail += step
            self._tail = tail

    def _path_length_ahead(self, enough: float = math.inf) -> float:
        """Buffered path length; returns early once ``enough`` is reached.

        Distances accumulate left to right; stopping at ``enough`` cannot
        change any ``< enough`` comparison (the remaining summands are
        non-negative).
        """
        path = self._path
        if not path:
            return 0.0
        ax, ay = path[0]
        total = math.hypot(self._x - ax, self._y - ay)
        for step in self._seg:
            if total >= enough:
                return total
            total += step
        return total

    def _prune_path(self) -> float:
        """Drop the points passed (closer than 3 m, keeping the last);
        returns the distance to the new first point."""
        path = self._path
        x, y = self._x, self._y
        while True:
            ax, ay = path[0]
            dist = math.hypot(x - ax, y - ay)
            if dist >= 3.0 or len(path) == 1:
                return dist
            del path[0]
            self._tail -= self._seg.pop(0)

    # ------------------------------------------------------------------
    # Control
    # ------------------------------------------------------------------
    def _hazard_ahead(self, world: "World") -> bool:
        """Another actor inside the braking cone directly ahead.

        Distances are bumper-to-bumper (both actors' extents subtracted),
        otherwise a queued vehicle creeps forward until the boxes overlap.
        """
        stop_dist = self.model.stopping_distance(self._speed) + 3.0
        yaw = self._yaw
        fx, fy = math.cos(yaw), math.sin(yaw)
        px, py = self._x, self._y
        hl = self.half_length
        for other in world.actors:
            if other is self or not other.alive:
                continue
            opos = other.transform.position
            relx = opos.x - px
            rely = opos.y - py
            ahead = relx * fx + rely * fy
            if ahead <= 0.0 or abs(relx * fy - rely * fx) >= 2.2:
                continue
            # hl + max(half_length, half_width), without the builtin call.
            ohl, ohw = other.half_length, other.half_width
            if ahead - (hl + (ohw if ohw > ohl else ohl)) < stop_dist:
                return True
        return False

    def _pursuit_control(self, world: "World") -> tuple[float, float, float]:
        """``(steer, throttle, brake)``, sanitised as
        :meth:`VehicleControl.clamped` would leave them."""
        if not self._path:
            return 0.0, 0.0, 1.0
        # Find the pursuit target: first path point beyond the lookahead.
        dist0 = self._prune_path()
        path = self._path
        x, y = self._x, self._y
        lookahead = self._lookahead
        if dist0 >= lookahead:
            tgt_x, tgt_y = path[0]
        else:
            tgt_x, tgt_y = path[-1]
            for i in range(1, len(path)):
                px, py = path[i]
                if math.hypot(x - px, y - py) >= lookahead:
                    tgt_x, tgt_y = px, py
                    break
        # Inline Transform.to_local + norm (same expressions, no Vec2s).
        yaw = self._yaw
        behavior = self.behavior
        if behavior is not None:
            # A cut-in maneuver biases the pursuit target to the left of
            # the vehicle's heading, swerving it off its lane.
            lat = behavior.lateral_offset()
            if lat != 0.0:
                tgt_x -= math.sin(yaw) * lat
                tgt_y += math.cos(yaw) * lat
        c, s = math.cos(-yaw), math.sin(-yaw)
        tx = tgt_x - x
        ty = tgt_y - y
        local_y = s * tx + c * ty
        dist = max(math.hypot(c * tx - s * ty, local_y), 1e-3)
        curvature = 2.0 * local_y / (dist * dist)
        steer_angle = math.atan(curvature * self.spec.wheelbase)
        steer = steer_angle / self.spec.max_steer_angle
        # Throttle and brake below are in [0, 1] by construction; only the
        # steer can leave its range.
        if not -1.0 <= steer <= 1.0:
            steer = _safe(steer, -1.0, 1.0, 0.0)

        if behavior is not None and behavior.brake_now():
            return steer, 0.0, 1.0
        speed_target = self.target_speed * world.weather.friction
        if behavior is not None:
            speed_target *= behavior.speed_scale()
        # Slow for curvature so turns stay on the connector curve.
        speed_target = min(speed_target, max(2.0, 8.0 / (1.0 + 25.0 * abs(curvature))))
        if (behavior is None or not behavior.ignore_hazards()) and self._hazard_ahead(world):
            return steer, 0.0, 1.0
        err = speed_target - self._speed
        if err >= 0.0:
            return steer, min(0.8, 0.3 + 0.25 * err), 0.0
        return steer, 0.0, min(1.0, -0.4 * err)

    def tick(self, world: "World", dt: float, rng: np.random.Generator) -> None:
        if self.behavior is not None:
            self.behavior.update(self, world, dt)
        self._extend_path(rng)
        steer, throttle, brake = self._pursuit_control(world)
        self._drive(steer, throttle, brake, False, False, dt)
