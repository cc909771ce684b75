"""The simulation server: world tick loop plus packet I/O.

Mirrors CARLA's server role.  Each frame the server:

1. polls the **control channel** for the freshest due command and applies
   it to the ego's actuators — if nothing arrived (delayed or dropped by a
   timing fault) the previous command stays applied, which is exactly the
   "replay" semantics of the paper's output-delay experiment;
2. ticks the :class:`~repro.sim.world.World` (physics, NPCs, pedestrians);
3. runs the violation monitor;
4. reads the ego's :class:`~repro.sim.sensors.SensorSuite` and ships the
   bundle on the **sensor channel**.

The server never sees the agent: the channels are the only coupling, so
every fault the paper injects between components has a concrete seam here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .channel import Channel, Packet
from .physics import VehicleControl
from .sensors import SensorFrame, SensorSuite
from .violations import ViolationEvent, ViolationMonitor
from .world import World

__all__ = ["SimulationServer", "ServerFrameResult"]


@dataclass
class ServerFrameResult:
    """What one server tick produced (for the episode runner)."""

    frame: int
    new_violations: list[ViolationEvent]
    applied_control: VehicleControl


class SimulationServer:
    """Owns the world and the server side of both channels."""

    def __init__(
        self,
        world: World,
        sensors: SensorSuite,
        sensor_channel: Channel,
        control_channel: Channel,
        monitor: ViolationMonitor | None = None,
    ):
        if world.ego is None:
            raise ValueError("world must have an ego vehicle before the server starts")
        self.world = world
        self.sensors = sensors
        self.sensor_channel = sensor_channel
        self.control_channel = control_channel
        self.monitor = monitor or ViolationMonitor()
        self._last_control = VehicleControl()

    @property
    def frame(self) -> int:
        """Current world frame."""
        return self.world.frame

    def send_initial_frame(self) -> None:
        """Ship the frame-0 sensor bundle so the agent has input to start."""
        ego = self.world.ego
        assert ego is not None
        bundle = self.sensors.read_frame(self.world, ego, self.world.frame)
        self.sensor_channel.send(Packet("sensor", self.world.frame, bundle))

    # -- stepwise phases -----------------------------------------------
    #
    # tick() used to be monolithic; it is now the composition of four
    # explicit phases so an episode multiplexer can interleave many
    # servers at tick granularity and batch the sensing phase across
    # episodes.  The server clock is simply ``world.frame``; channel
    # delivery is keyed on whatever frame the *polling* side passes, so a
    # client stepped on its own clock (jitter) needs no server change.

    def apply_pending_control(self) -> VehicleControl:
        """Phase 1: poll the freshest due control and apply it.

        Polls at the server's own clock (the pre-tick ``world.frame``);
        when nothing is due the previous command stays applied — the
        paper's hold-and-replay semantics.
        """
        ego = self.world.ego
        assert ego is not None
        packet = self.control_channel.poll_latest(self.world.frame)
        if packet is not None:
            self._last_control = packet.payload
        ego.apply_control(self._last_control)
        return self._last_control

    def advance_world(self) -> tuple[int, list[ViolationEvent]]:
        """Phases 2-3: tick physics/NPCs and run the violation monitor."""
        ego = self.world.ego
        assert ego is not None
        frame = self.world.tick()
        new_events = self.monitor.step(self.world, ego, frame)
        return frame, new_events

    def read_bundle(self) -> "SensorFrame":
        """Phase 4a: read the sensor suite at the current world frame."""
        ego = self.world.ego
        assert ego is not None
        return self.sensors.read_frame(self.world, ego, self.world.frame)

    def publish_bundle(self, bundle: "SensorFrame") -> None:
        """Phase 4b: ship a sensor bundle on the sensor channel.

        Split from :meth:`read_bundle` so a multiplexer can compute the
        bundle in a cross-episode batch and publish it here unchanged.
        """
        self.sensor_channel.send(Packet("sensor", self.world.frame, bundle))

    def tick(self) -> ServerFrameResult:
        """Advance the simulation one frame (steps 1-4 above)."""
        applied = self.apply_pending_control()
        frame, new_events = self.advance_world()
        self.publish_bundle(self.read_bundle())
        return ServerFrameResult(frame, new_events, applied)
