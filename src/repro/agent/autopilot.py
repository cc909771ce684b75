"""The expert controller: training oracle and privileged baseline.

Codevilla et al. train their IL-CNN by imitating an automated expert inside
the simulator; this module is that expert.  It has privileged access to the
world (true pose, true actor positions) and combines:

* **pure-pursuit steering** on the planned route,
* a **proportional-integral speed controller** towards a context-dependent
  target (slower through turns, stop at the goal),
* a **hazard stop** that brakes for actors inside the forward cone —
  vehicles ahead, pedestrians on or near the road.

The expert also reports the route command at the current position, which
becomes the branch label in the imitation dataset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..sim.physics import VehicleControl
from ..sim.world import World
from .planner import Command, Route

__all__ = ["ExpertConfig", "Expert"]


@dataclass(frozen=True)
class ExpertConfig:
    """Tunables of the expert controller."""

    cruise_speed: float = 7.0  # m/s on straights
    turn_speed: float = 4.0  # m/s while a turn command is active
    goal_slow_radius: float = 12.0  # start easing off near the goal
    lookahead_base: float = 2.5
    lookahead_gain: float = 0.55  # lookahead = base + gain * speed
    kp_speed: float = 0.45
    ki_speed: float = 0.05
    hazard_cone_half_width: float = 2.4  # m to each side of the heading ray
    hazard_margin: float = 4.0  # extra stopping distance buffer, m
    pedestrian_caution_speed: float = 3.0


class Expert:
    """Privileged route-following controller for one episode."""

    def __init__(self, world: World, route: Route, config: ExpertConfig | None = None):
        if world.ego is None:
            raise ValueError("world needs an ego vehicle")
        self.world = world
        self.route = route
        self.config = config or ExpertConfig()
        self._speed_error_integral = 0.0

    # ------------------------------------------------------------------
    def current_command(self) -> Command:
        """The route command at the ego's position (the IL branch label)."""
        assert self.world.ego is not None
        return self.route.command_at(self.world.ego.position)

    # ------------------------------------------------------------------
    def _steer(self, command: Command | None = None) -> float:
        ego = self.world.ego
        assert ego is not None
        cfg = self.config
        speed = max(ego.speed(), 0.0)
        lookahead = min(max(cfg.lookahead_base + cfg.lookahead_gain * speed, 3.0), 9.0)
        if command is None:
            command = self.current_command()
        if command != Command.FOLLOW:
            # Short lookahead through junctions: pure pursuit cuts corners
            # when it aims past the connector curve.
            lookahead = min(lookahead, 4.5)
        pose = ego.transform
        pos = pose.position
        target = self.route.target_point(pos, lookahead)
        # Transform.to_local and Vec2.norm_sq on plain floats.
        dx = target.x - pos.x
        dy = target.y - pos.y
        c, s = math.cos(-pose.yaw), math.sin(-pose.yaw)
        local_x = c * dx - s * dy
        local_y = s * dx + c * dy
        dist_sq = max(local_x * local_x + local_y * local_y, 1e-6)
        curvature = 2.0 * local_y / dist_sq
        steer_angle = math.atan(curvature * ego.spec.wheelbase)
        return float(min(1.0, max(-1.0, steer_angle / ego.spec.max_steer_angle)))

    def _hazard_speed_cap(self) -> float | None:
        """Speed limit imposed by actors ahead; ``None`` when clear.

        A returned 0.0 means "emergency stop".  The ``Vec2`` arithmetic
        (``rel = actor - ego``, its dot and cross with the heading) runs on
        plain floats with the same expressions.
        """
        ego = self.world.ego
        assert ego is not None
        cfg = self.config
        pose = ego.transform
        pos = pose.position
        ex, ey = pos.x, pos.y
        fx, fy = math.cos(pose.yaw), math.sin(pose.yaw)
        stop_dist = ego.model.stopping_distance(ego.speed()) + cfg.hazard_margin
        caution_dist = stop_dist + 6.0
        cone = cfg.hazard_cone_half_width
        caution_cone = cone + 2.0
        ego_hl = ego.half_length
        cap: float | None = None
        for actor in self.world.actors:
            if actor is ego or not actor.alive:
                continue
            apos = actor.transform.position
            relx = apos.x - ex
            rely = apos.y - ey
            ahead = relx * fx + rely * fy
            if ahead <= 0.0:
                continue
            lateral = abs(relx * fy - rely * fx)
            # Bumper-to-bumper gap, not centre distance, so queuing keeps
            # a physical clearance instead of creeping into contact.
            gap = ahead - ego_hl - max(actor.half_length, actor.half_width)
            if gap < stop_dist and lateral < cone:
                return 0.0
            if actor.role == "pedestrian" and gap < caution_dist and lateral < caution_cone:
                # Slow near any pedestrian close to the driving corridor.
                cap = cfg.pedestrian_caution_speed
        return cap

    def _target_speed(self, command: Command | None = None) -> float:
        ego = self.world.ego
        assert ego is not None
        cfg = self.config
        if command is None:
            command = self.current_command()
        target = cfg.cruise_speed if command == Command.FOLLOW else cfg.turn_speed
        target *= self.world.weather.friction

        remaining = self.route.distance_remaining(ego.position)
        if remaining < cfg.goal_slow_radius:
            target = min(target, max(1.2, remaining * 0.5))

        hazard_cap = self._hazard_speed_cap()
        if hazard_cap is not None:
            target = min(target, hazard_cap)
        return target

    # ------------------------------------------------------------------
    def control(self, dt: float) -> VehicleControl:
        """Compute the expert command for the current world state."""
        ego = self.world.ego
        assert ego is not None
        cfg = self.config
        command = self.current_command()
        steer = self._steer(command)
        target = self._target_speed(command)
        error = target - ego.speed()

        if target <= 0.05:
            self._speed_error_integral = 0.0
            return VehicleControl(steer=steer, brake=1.0)

        self._speed_error_integral = min(
            max(self._speed_error_integral + error * dt, -4.0), 4.0
        )
        effort = cfg.kp_speed * error + cfg.ki_speed * self._speed_error_integral
        if effort >= 0.0:
            return VehicleControl(steer=steer, throttle=min(0.85, effort))
        return VehicleControl(steer=steer, brake=min(1.0, -effort))
