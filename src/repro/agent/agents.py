"""Driving agents: the ADA implementations campaigns can run.

Two agents ship with the library:

* :class:`NNAgent` — the paper's configuration: camera image and measured
  speed go through the conditional IL-CNN; the route planner (fed by noisy
  GPS) supplies the command that picks the branch.  This is the agent all
  headline experiments use.
* :class:`AutopilotAgent` — the privileged expert wrapped as an agent.
  Useful as an upper-bound baseline and for infrastructure tests that
  should not depend on learned behaviour.

Factories at the bottom adapt both to the campaign's
``factory(handles, mission) -> Agent`` protocol.  Both factories are
also *registered* by name in :data:`AGENT_REGISTRY`
(:func:`register_agent` / :func:`make_agent_factory`), which is what
lets declarative campaign specs (:mod:`repro.core.spec`) name an agent
as data instead of holding a callable — and both expose a
``config_signature()`` so checkpoint fingerprints can tell two agent
configurations apart (see
:func:`repro.core.campaign.episode_fingerprint`).
"""

from __future__ import annotations

import hashlib
from typing import Callable

import numpy as np

from ..sim.builders import EpisodeHandles
from ..sim.geometry import Vec2
from ..sim.physics import VehicleControl
from ..sim.scenario import Mission
from ..sim.sensors import SensorFrame
from ..sim.town import Town
from ..sim.world import World
from .autopilot import Expert, ExpertConfig
from .ilcnn import ILCNN
from .planner import PlanningError, Route, RoutePlanner

__all__ = [
    "NNAgent",
    "AutopilotAgent",
    "AgentFactory",
    "NNAgentFactory",
    "AutopilotAgentFactory",
    "nn_agent_factory",
    "autopilot_agent_factory",
    "AGENT_REGISTRY",
    "register_agent",
    "make_agent_factory",
    "model_weight_digest",
    "nn_config_signature",
]


class NNAgent:
    """Camera-driven conditional imitation-learning agent.

    All world knowledge at ``step`` time comes from the
    :class:`~repro.sim.sensors.SensorFrame` — exactly the boundary AVFI's
    input fault injectors corrupt.  The agent replans from GPS if it drifts
    off its route (a real ADA's behaviour under perturbation).
    """

    def __init__(self, model: ILCNN, town: Town, replan_tolerance: float = 10.0):
        self.model = model
        self.town = town
        self.planner = RoutePlanner(town)
        self.replan_tolerance = replan_tolerance
        self.route: Route | None = None
        self.mission: Mission | None = None
        self.replans = 0

    def reset(self, mission: Mission) -> None:
        """Plan the route for a new mission."""
        self.mission = mission
        self.route = self.planner.plan(
            mission.start.position, mission.goal, start_yaw=mission.start.yaw
        )
        self.replans = 0

    def _maybe_replan(self, position: Vec2, heading: float) -> None:
        assert self.route is not None and self.mission is not None
        if not self.route.off_route(position, self.replan_tolerance):
            return
        try:
            self.route = self.planner.plan(position, self.mission.goal, start_yaw=heading)
            self.replans += 1
        except PlanningError:
            # Keep the stale route; better than stopping dead.
            pass

    def step(self, frame: SensorFrame) -> VehicleControl:
        """One control step from one sensor bundle."""
        if self.route is None or self.mission is None:
            raise RuntimeError("agent.step before reset")
        gps = Vec2(float(frame.gps[0]), float(frame.gps[1]))
        if not (np.isfinite(gps.x) and np.isfinite(gps.y)):
            # GPS corrupted beyond use: hold the wheel straight and coast.
            return VehicleControl(steer=0.0, throttle=0.0, brake=0.3)
        self._maybe_replan(gps, frame.heading)
        command = self.route.command_at(gps)
        steer, throttle, brake = self.model.predict_one(frame.image, frame.speed, command)

        steer = float(np.clip(steer, -1.0, 1.0))
        throttle = float(np.clip(throttle, 0.0, 1.0))
        brake = float(np.clip(brake, 0.0, 1.0))
        # Suppress brake dribble and contradictory pedals (standard IL
        # post-processing; the raw regressor emits small simultaneous values).
        if brake < 0.12:
            brake = 0.0
        if brake > 0.0 and throttle > brake:
            brake = 0.0
        elif brake > 0.0:
            throttle = 0.0
        if gps.distance_to(self.mission.goal) < self.mission.success_radius:
            return VehicleControl(steer=steer, brake=1.0)
        return VehicleControl(steer=steer, throttle=throttle, brake=brake)


class AutopilotAgent:
    """The privileged expert exposed through the agent interface."""

    def __init__(self, world: World, town: Town, expert_config: ExpertConfig | None = None):
        self.world = world
        self.town = town
        self.planner = RoutePlanner(town)
        self.expert_config = expert_config
        self._expert: Expert | None = None

    def reset(self, mission: Mission) -> None:
        """Plan the route and bind the expert controller."""
        route = self.planner.plan(
            mission.start.position, mission.goal, start_yaw=mission.start.yaw
        )
        self._expert = Expert(self.world, route, self.expert_config)

    def step(self, frame: SensorFrame) -> VehicleControl:
        """Delegate to the expert (which reads the world directly)."""
        if self._expert is None:
            raise RuntimeError("agent.step before reset")
        return self._expert.control(self.world.dt)


AgentFactory = Callable[[EpisodeHandles, Mission], "object"]


def model_weight_digest(model: ILCNN) -> str:
    """SHA-1 over the model's name-sorted weights — the semantic identity
    of a trained network, independent of how (or whether) it was
    serialised to disk.  This is both the hash inside
    :meth:`NNAgentFactory.config_signature` and the content address under
    which the artifact store ships weights to workers
    (:mod:`repro.core.artifacts`) — one key, so a warm-started worker
    provably runs the exact network the fingerprints claim."""
    digest = hashlib.sha1()
    params = model.named_parameters()
    for name in sorted(params):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(params[name].data).tobytes())
    return digest.hexdigest()


def nn_config_signature(weight_digest: str, replan_tolerance: float) -> str:
    """The canonical NN-agent signature string.  Shared by the eager
    factory and the artifact-backed one — they must render identically
    or the same campaign would fingerprint differently depending on how
    the weights travelled."""
    return (
        f"NNAgentFactory(weights={weight_digest[:12]}, "
        f"replan_tolerance={replan_tolerance!r})"
    )


class NNAgentFactory:
    """Factory adapting :class:`NNAgent` to the campaign protocol.

    A plain callable class (not a closure) so campaigns can be pickled to
    parallel worker processes; each worker then builds agents from its own
    copy of the model.
    """

    def __init__(self, model: ILCNN, replan_tolerance: float = 10.0):
        self.model = model
        self.replan_tolerance = replan_tolerance

    def __call__(self, handles: EpisodeHandles, mission: Mission) -> NNAgent:
        agent = NNAgent(self.model, handles.town, self.replan_tolerance)
        agent.reset(mission)
        return agent

    def config_signature(self) -> str:
        """Stable identity for checkpoint fingerprints.

        Hashes the model's weights (name-sorted), so swapping in a
        retrained or differently-shaped model invalidates checkpoints,
        while the ML-fault install/remove cycle — which restores weights
        exactly — does not.  Recomputed on every call rather than cached:
        the model may be trained further between campaigns.
        """
        return nn_config_signature(
            model_weight_digest(self.model), self.replan_tolerance
        )


class AutopilotAgentFactory:
    """Factory adapting :class:`AutopilotAgent` to the campaign protocol.

    Picklable for the same reason as :class:`NNAgentFactory`.
    """

    def __init__(self, expert_config: ExpertConfig | None = None):
        self.expert_config = expert_config

    def __call__(self, handles: EpisodeHandles, mission: Mission) -> AutopilotAgent:
        agent = AutopilotAgent(handles.world, handles.town, self.expert_config)
        agent.reset(mission)
        return agent

    def config_signature(self) -> str:
        """Stable identity for checkpoint fingerprints.

        ``expert_config=None`` normalises to the default
        :class:`ExpertConfig`, which is what the expert actually drives
        with — the two spellings must not invalidate each other's
        checkpoints.
        """
        config = self.expert_config if self.expert_config is not None else ExpertConfig()
        return f"AutopilotAgentFactory({config!r})"


def nn_agent_factory(model: ILCNN, replan_tolerance: float = 10.0) -> AgentFactory:
    """Factory adapting :class:`NNAgent` to the campaign protocol."""
    return NNAgentFactory(model, replan_tolerance)


def autopilot_agent_factory(expert_config: ExpertConfig | None = None) -> AgentFactory:
    """Factory adapting :class:`AutopilotAgent` to the campaign protocol."""
    return AutopilotAgentFactory(expert_config)


# ----------------------------------------------------------------------
# Agent registry: named factories for declarative campaign specs
# ----------------------------------------------------------------------

#: Named agent-factory builders.  Keys are the names campaign specs (and
#: the CLI's ``--agent``) use; values build a picklable agent factory
#: from JSON-able keyword params.
AGENT_REGISTRY: dict[str, Callable[..., AgentFactory]] = {}


def register_agent(name: str):
    """Decorator registering an agent-factory builder under ``name``.

    The builder takes only JSON-serialisable keyword arguments and
    returns a campaign-protocol factory — that restriction is what keeps
    agents nameable from a spec file.
    """

    def decorate(builder: Callable[..., AgentFactory]) -> Callable[..., AgentFactory]:
        existing = AGENT_REGISTRY.get(name)
        if existing is not None and existing is not builder:
            raise ValueError(f"agent name {name!r} is already registered")
        AGENT_REGISTRY[name] = builder
        return builder

    return decorate


def make_agent_factory(name: str, **params) -> AgentFactory:
    """Build a registered agent factory by name (spec/CLI entry point)."""
    try:
        builder = AGENT_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(AGENT_REGISTRY))
        raise KeyError(f"unknown agent {name!r}; registered agents: {known}") from None
    return builder(**params)


@register_agent("autopilot")
def _build_autopilot_factory(**expert_params) -> AutopilotAgentFactory:
    """The privileged expert; params are :class:`ExpertConfig` fields."""
    config = ExpertConfig(**expert_params) if expert_params else None
    return AutopilotAgentFactory(config)


@register_agent("nn")
def _build_nn_factory(
    model_path: str | None = None, replan_tolerance: float = 10.0
) -> NNAgentFactory:
    """The paper's IL-CNN agent.

    ``model_path`` loads a saved checkpoint; without it the shared
    default model is loaded from the artifact cache (trained on first
    use — see :func:`repro.agent.training.get_or_train_default_model`).
    """
    if model_path is not None:
        model = ILCNN.load(model_path)
    else:
        from .training import get_or_train_default_model  # deferred: heavy

        model = get_or_train_default_model()
    model.set_training(False)
    return NNAgentFactory(model, replan_tolerance)
