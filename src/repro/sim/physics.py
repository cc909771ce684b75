"""Vehicle dynamics: controls, state and the kinematic bicycle model.

The simulator advances every vehicle with a kinematic bicycle model — the
standard fidelity level for urban-speed AV work (and what CARLA's own
``VehicleControl`` semantics reduce to at low speed).  Longitudinal dynamics
include engine/brake limits, quadratic aerodynamic drag and rolling
resistance so speed control behaves like a real car rather than an
integrator.

All quantities are SI: metres, seconds, radians.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .geometry import Transform, Vec2, wrap_angle

__all__ = ["VehicleControl", "VehicleState", "VehicleSpec", "BicycleModel"]


def _clamp(value: float, lo: float, hi: float) -> float:
    return min(hi, max(lo, value))


def _safe(v: float, lo: float, hi: float, default: float) -> float:
    """``v`` clamped to ``[lo, hi]``; ``default`` for non-finite input."""
    if not math.isfinite(v):
        return default
    return _clamp(float(v), lo, hi)


@dataclass(frozen=True)
class VehicleControl:
    """A single actuation command, mirroring CARLA's control message.

    ``steer`` is normalised to ``[-1, 1]`` (negative = left in CARLA; here
    positive steers *left* to match the CCW yaw convention), ``throttle``
    and ``brake`` to ``[0, 1]``.  Values outside the range are accepted and
    clamped at application time — fault injectors deliberately produce
    out-of-range or non-finite commands and the server must survive them.
    """

    steer: float = 0.0
    throttle: float = 0.0
    brake: float = 0.0
    reverse: bool = False
    hand_brake: bool = False

    def clamped(self) -> "VehicleControl":
        """A sanitised copy safe to feed to the physics integrator.

        Non-finite entries degrade to neutral values (a real drive-by-wire
        stack would reject NaNs at the bus level).
        """
        s, t, b = self.steer, self.throttle, self.brake
        if (
            -1.0 <= s <= 1.0
            and 0.0 <= t <= 1.0
            and 0.0 <= b <= 1.0
            and isinstance(self.reverse, bool)
            and isinstance(self.hand_brake, bool)
        ):
            # Already sane (the overwhelmingly common case): this control
            # is immutable, so it can stand in for its own clamped copy.
            return self
        safe = _safe
        return VehicleControl(
            steer=safe(self.steer, -1.0, 1.0, 0.0),
            throttle=safe(self.throttle, 0.0, 1.0, 0.0),
            brake=safe(self.brake, 0.0, 1.0, 0.0),
            reverse=bool(self.reverse),
            hand_brake=bool(self.hand_brake),
        )


@dataclass(frozen=True)
class VehicleState:
    """Pose and speed of a vehicle on the ground plane."""

    x: float
    y: float
    yaw: float
    speed: float = 0.0  # signed, m/s; negative when reversing

    @property
    def position(self) -> Vec2:
        """Position as a :class:`Vec2`."""
        return Vec2(self.x, self.y)

    @property
    def transform(self) -> Transform:
        """Body-frame pose."""
        return Transform(Vec2(self.x, self.y), self.yaw)

    def velocity(self) -> Vec2:
        """World-frame velocity vector."""
        return Vec2.from_heading(self.yaw, self.speed)


@dataclass(frozen=True)
class VehicleSpec:
    """Physical parameters of a vehicle.

    Defaults approximate a mid-size sedan; pedestrian "vehicles" never use
    this model.  ``max_steer_angle`` is the road-wheel angle at full steering
    input.
    """

    length: float = 4.5
    width: float = 2.0
    height: float = 1.6
    wheelbase: float = 2.7
    max_steer_angle: float = math.radians(35.0)
    max_accel: float = 3.5  # m/s^2 at full throttle, low speed
    max_brake_decel: float = 8.0  # m/s^2 at full brake
    drag_coeff: float = 0.0024  # quadratic drag, 1/m (gives ~38 m/s top speed)
    rolling_decel: float = 0.12  # m/s^2 constant rolling resistance
    max_speed: float = 30.0  # hard cap, m/s
    max_reverse_speed: float = 5.0

    def half_extents(self) -> tuple[float, float]:
        """``(half_length, half_width)`` for collision boxes."""
        return self.length / 2.0, self.width / 2.0


class BicycleModel:
    """Kinematic bicycle integrator for one vehicle spec.

    The model is deterministic and stateless: ``step`` maps
    ``(state, control, dt)`` to the next state, which keeps replay and
    fault-injection experiments exactly reproducible.
    """

    def __init__(self, spec: VehicleSpec | None = None):
        self.spec = spec or VehicleSpec()

    def step(self, state: VehicleState, control: VehicleControl, dt: float) -> VehicleState:
        """Advance ``state`` by ``dt`` seconds under ``control``.

        The control is sanitised via :meth:`VehicleControl.clamped` first, so
        corrupted commands from fault injection cannot produce NaN states.
        """
        ctl = control.clamped()
        return VehicleState(
            *self.advance(
                state.x, state.y, state.yaw, state.speed,
                ctl.steer, ctl.throttle, ctl.brake, ctl.reverse, ctl.hand_brake, dt,
            )
        )

    def advance(
        self,
        x: float,
        y: float,
        yaw: float,
        speed: float,
        steer: float,
        throttle: float,
        brake: float,
        reverse: bool,
        hand_brake: bool,
        dt: float,
    ) -> tuple[float, float, float, float]:
        """:meth:`step` on plain floats: ``(x, y, yaw, speed)`` after ``dt``.

        The one integrator: :meth:`step` unpacks into it, and a vehicle's
        tick calls it directly, so the per-tick loop builds no state or
        control objects.  The command must already be sanitised (what
        :meth:`VehicleControl.clamped` returns).
        """
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        spec = self.spec
        if hand_brake:
            accel = -math.copysign(spec.max_brake_decel, speed) if abs(speed) > 1e-3 else 0.0
        else:
            drive = throttle * spec.max_accel
            if reverse:
                drive = -drive
            brake = brake * spec.max_brake_decel
            # Brakes oppose motion; at standstill they simply hold the car.
            if abs(speed) > 1e-3:
                brake_term = -math.copysign(brake, speed)
                resist = -math.copysign(
                    spec.rolling_decel + spec.drag_coeff * speed * speed, speed
                )
            else:
                brake_term = 0.0
                resist = 0.0
                if brake > 0.0 and abs(drive) <= brake:
                    drive = 0.0
            accel = drive + brake_term + resist

        new_speed = speed + accel * dt
        # Brakes and resistance never push the car backwards through zero.
        if speed > 0.0 and new_speed < 0.0 and not reverse:
            new_speed = 0.0
        if speed < 0.0 and new_speed > 0.0 and reverse:
            new_speed = 0.0
        # _clamp(new_speed, -max_reverse_speed, max_speed), inlined.
        lo = -spec.max_reverse_speed
        new_speed = new_speed if new_speed > lo else lo
        new_speed = new_speed if new_speed < spec.max_speed else spec.max_speed

        steer_angle = steer * spec.max_steer_angle
        yaw_rate = new_speed / spec.wheelbase * math.tan(steer_angle)
        new_yaw = wrap_angle(yaw + yaw_rate * dt)
        # Integrate position along the average heading for second-order accuracy.
        mid_yaw = yaw + 0.5 * yaw_rate * dt
        nx = x + new_speed * math.cos(mid_yaw) * dt
        ny = y + new_speed * math.sin(mid_yaw) * dt
        return nx, ny, new_yaw, new_speed

    def stopping_distance(self, speed: float, reaction_time: float = 0.3) -> float:
        """Distance needed to stop from ``speed`` with full braking."""
        v = abs(speed)
        return v * reaction_time + v * v / (2.0 * self.spec.max_brake_decel)

    def teleport(self, state: VehicleState, transform: Transform, speed: float = 0.0) -> VehicleState:
        """A new state at ``transform`` (used for spawning/respawning)."""
        return replace(
            state, x=transform.position.x, y=transform.position.y, yaw=transform.yaw, speed=speed
        )
