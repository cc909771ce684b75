"""Traffic-violation detection.

The paper's resilience metrics count *events*: "traffic violations
(including lane violations, driving on the curb, and collisions with
pedestrians, cars, and other objects on the streets)".  Detectors here
translate continuous world state into discrete debounced events:

* a **lane violation** starts when the ego centre leaves its own lane's
  paint-to-paint span while on pavement outside a junction (this covers
  both crossing the centre line into oncoming traffic and hugging the
  road edge);
* a **curb violation** starts when the ego centre leaves the drivable
  surface entirely (sidewalk or off-road);
* a **collision** starts when the ego's bounding box first overlaps
  another actor's or a building's, classified by what was hit.

A condition that stays true for many frames is one violation; it must
clear for ``clear_frames`` before a new event of the same type can start.
However, a *sustained* surface violation re-triggers every
``retrigger_m`` metres driven — driving half a kilometre down the sidewalk
is not one curb violation, it is one per stretch of sidewalk consumed.
Collisions additionally track per-object contact, so hitting two distinct
pedestrians is two accidents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Optional

from .town import SurfaceType

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .actors import Vehicle
    from .world import World

__all__ = ["ViolationType", "ViolationEvent", "ViolationMonitor", "ACCIDENT_TYPES"]


class ViolationType(str, Enum):
    """Categories of traffic violations AVFI counts."""

    LANE = "lane"
    CURB = "curb"
    COLLISION_VEHICLE = "collision_vehicle"
    COLLISION_PEDESTRIAN = "collision_pedestrian"
    COLLISION_STATIC = "collision_static"


#: Violation types that count as *accidents* for the APK metric.
ACCIDENT_TYPES = frozenset(
    {
        ViolationType.COLLISION_VEHICLE,
        ViolationType.COLLISION_PEDESTRIAN,
        ViolationType.COLLISION_STATIC,
    }
)


@dataclass
class ViolationEvent:
    """One detected violation.

    ``start_frame`` is when the condition first held; ``end_frame`` is set
    when it clears (or stays ``None`` if the episode ends mid-violation).
    """

    type: ViolationType
    start_frame: int
    position: tuple[float, float]
    details: dict = field(default_factory=dict)
    end_frame: Optional[int] = None

    @property
    def is_accident(self) -> bool:
        """Whether this event counts towards Accidents-Per-KM."""
        return self.type in ACCIDENT_TYPES


class _DebouncedCondition:
    """Turns a per-frame boolean into debounced open/close events."""

    def __init__(self, clear_frames: int):
        self.clear_frames = clear_frames
        self.active = False
        self._clear_count = 0

    def reset(self) -> None:
        self.active = False
        self._clear_count = 0

    def update(self, condition: bool) -> str:
        """Advance one frame.  Returns 'start', 'end' or 'none'."""
        if condition:
            self._clear_count = 0
            if not self.active:
                self.active = True
                return "start"
            return "none"
        if self.active:
            self._clear_count += 1
            if self._clear_count >= self.clear_frames:
                self.active = False
                self._clear_count = 0
                return "end"
        return "none"


class ViolationMonitor:
    """Tracks all violation events for the ego vehicle over an episode.

    Call :meth:`step` once per frame after the world has ticked.  Newly
    started events are returned (and retained in :attr:`events`).
    """

    def __init__(self, clear_frames: int = 8, retrigger_m: float = 25.0):
        if retrigger_m <= 0:
            raise ValueError("retrigger_m must be positive")
        self.clear_frames = clear_frames
        self.retrigger_m = retrigger_m
        self.events: list[ViolationEvent] = []
        self._lane = _DebouncedCondition(clear_frames)
        self._curb = _DebouncedCondition(clear_frames)
        self._contacts: dict[object, ViolationEvent] = {}
        self._open: dict[ViolationType, ViolationEvent] = {}
        self._open_odometer: dict[ViolationType, float] = {}
        #: ``(town, circles)`` memo of :meth:`_building_circles`.
        self._buildings: tuple | None = None

    def reset(self) -> None:
        """Clear all state between episodes."""
        self.events.clear()
        self._lane.reset()
        self._curb.reset()
        self._contacts.clear()
        self._open.clear()
        self._open_odometer.clear()

    # ------------------------------------------------------------------
    def _update_surface_conditions(
        self, world: "World", ego: "Vehicle", frame: int
    ) -> list[ViolationEvent]:
        new_events: list[ViolationEvent] = []
        # Town.locate's answers, but the nearest lane is looked up only
        # where it is read: on pavement outside a junction.
        town = world.town
        pos = ego.position
        surface = town.classify_point(pos.x, pos.y)
        off_surface = surface is not SurfaceType.ROAD
        lane_bad = False
        lateral = None
        if not off_surface and not town.in_intersection(pos.x, pos.y):
            lane, _, lateral = town.nearest_lane(pos, ego.yaw)
            lane_bad = abs(lateral) > lane.width / 2.0

        for detector, vtype, condition in (
            (self._lane, ViolationType.LANE, lane_bad),
            (self._curb, ViolationType.CURB, off_surface),
        ):
            edge = detector.update(condition)
            if edge == "none" and not condition:
                continue
            if vtype is ViolationType.LANE:
                details = {"lateral": lateral}
            else:
                details = {"surface": surface.name}
            if edge == "start":
                event = ViolationEvent(
                    vtype, frame, (ego.position.x, ego.position.y), details
                )
                self._open[vtype] = event
                self._open_odometer[vtype] = ego.odometer_m
                self.events.append(event)
                new_events.append(event)
            elif edge == "end" and vtype in self._open:
                self._open.pop(vtype).end_frame = frame
                self._open_odometer.pop(vtype, None)
            elif vtype in self._open and condition:
                # Sustained violation: another event per retrigger_m driven.
                if ego.odometer_m - self._open_odometer[vtype] >= self.retrigger_m:
                    self._open[vtype].end_frame = frame
                    event = ViolationEvent(
                        vtype,
                        frame,
                        (ego.position.x, ego.position.y),
                        {**details, "retriggered": True},
                    )
                    self._open[vtype] = event
                    self._open_odometer[vtype] = ego.odometer_m
                    self.events.append(event)
                    new_events.append(event)
        return new_events

    def _building_circles(self, town) -> list[tuple]:
        """Per building ``(center_x, center_y, circumradius, box)``.

        Buildings are static, so this is built once per town.
        """
        cached = self._buildings
        if cached is None or cached[0] is not town:
            circles = [
                (
                    b.box.center.x,
                    b.box.center.y,
                    math.hypot(b.box.half_length, b.box.half_width),
                    b.box,
                )
                for b in town.buildings
            ]
            cached = self._buildings = (town, circles)
        return cached[1]

    def _update_collisions(
        self, world: "World", ego: "Vehicle", frame: int
    ) -> list[ViolationEvent]:
        """Collision edges: the boxes overlapping the ego's this frame.

        Circumradius prescreen first, on plain floats: boxes whose centres
        are farther apart than their circumradii sum cannot overlap, and
        the SAT test would prove exactly that.  Only a box that passes it
        is built and tested, with the same floats the box would carry.
        """
        new_events: list[ViolationEvent] = []
        epos = ego.transform.position
        ego_x, ego_y = epos.x, epos.y
        ego_radius = math.hypot(ego.half_length, ego.half_width)
        hypot = math.hypot
        hits: list[tuple] = []
        for actor in world.actors:
            if actor is ego or not actor.alive:
                continue
            pos = actor.transform.position
            reach = ego_radius + hypot(actor.half_length, actor.half_width)
            if hypot(pos.x - ego_x, pos.y - ego_y) > reach:
                continue
            vtype = (
                ViolationType.COLLISION_PEDESTRIAN
                if actor.role == "pedestrian"
                else ViolationType.COLLISION_VEHICLE
            )
            hits.append((("actor", actor.id), actor.bounding_box(), vtype, actor.role))
        for i, (bx, by, radius, box) in enumerate(self._building_circles(world.town)):
            if hypot(bx - ego_x, by - ego_y) > ego_radius + radius:
                continue
            hits.append((("building", i), box, ViolationType.COLLISION_STATIC, "building"))

        current: set[object] = set()
        if hits:
            ego_box = ego.bounding_box()
            for key, box, vtype, other in hits:
                if not ego_box.overlaps(box):
                    continue
                current.add(key)
                if key in self._contacts:
                    continue
                event = ViolationEvent(
                    vtype, frame, (ego.position.x, ego.position.y), {"other": other}
                )
                self._contacts[key] = event
                self.events.append(event)
                new_events.append(event)

        # Close contacts that separated this frame.
        for key in list(self._contacts):
            if key not in current:
                self._contacts.pop(key).end_frame = frame
        return new_events

    # ------------------------------------------------------------------
    def step(self, world: "World", ego: "Vehicle", frame: int) -> list[ViolationEvent]:
        """Process one frame; returns events that *started* this frame."""
        new_events = self._update_surface_conditions(world, ego, frame)
        new_events += self._update_collisions(world, ego, frame)
        return new_events

    # ------------------------------------------------------------------
    def count(self, vtype: ViolationType | None = None) -> int:
        """Total events, optionally filtered by type."""
        if vtype is None:
            return len(self.events)
        return sum(1 for e in self.events if e.type == vtype)

    def accidents(self) -> list[ViolationEvent]:
        """All events that count as accidents."""
        return [e for e in self.events if e.is_accident]
