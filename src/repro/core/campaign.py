"""Fault-injection episodes and their records.

An *episode* drives one agent through one mission under one fault set,
through the full server/client stack (:class:`EpisodeDriver`,
:func:`run_episode`), and yields a :class:`RunRecord` the metrics module
aggregates into the paper's resilience metrics.  A *campaign* — the
paired (scenario × injector) sweep of such episodes, always including a
fault-free baseline as the paper's "NoInject" bars do — is
:class:`~repro.core.runner.Campaign`; its results come back as a
:class:`CampaignResult`.

Experiment design note: every injector configuration sees the *same*
scenario suite (paired design), so differences in MSR/VPK are attributable
to the injector, not to workload luck.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import types
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from ..agent.planner import PlanningError, RoutePlanner
from ..sim.builders import SimulationBuilder
from ..sim.channel import Channel
from ..sim.client import AgentClient
from ..sim.scenario import Scenario, make_scenarios
from ..sim.server import SimulationServer
from ..sim.town import GridTownConfig, ProceduralTownConfig, build_town
from ..sim.violations import ViolationEvent
from .faults.base import FaultModel
from .injector import InjectionHarness

__all__ = [
    "RunRecord",
    "CampaignResult",
    "EpisodeDriver",
    "component_signature",
    "episode_fingerprint",
    "run_episode",
    "standard_scenarios",
]


def component_signature(obj) -> str:
    """A stable, process-portable identity for an agent factory or builder.

    Components that implement ``config_signature()`` (both shipped agent
    factories, :class:`~repro.sim.builders.SimulationBuilder`) report
    their full configuration — swapping the IL-CNN's weights or the
    camera resolution changes the signature.  Anything else (ad-hoc
    callables, test doubles) falls back to its qualified name, which
    still distinguishes *kinds* of component deterministically across
    processes — never ``id()``/``repr()`` of a bare instance, which
    would differ per process and re-run everything.
    """
    if obj is None:
        return "<none>"
    signature = getattr(obj, "config_signature", None)
    if callable(signature):
        return str(signature())
    if isinstance(obj, types.FunctionType):
        return f"function:{obj.__module__}.{obj.__qualname__}"
    return f"{type(obj).__module__}.{type(obj).__qualname__}"


def episode_fingerprint(
    scenario: Scenario,
    faults: Sequence[FaultModel] = (),
    agent_factory=None,
    builder=None,
    *,
    component_key: tuple | None = None,
) -> str:
    """A short stable hash of what defines an episode's configuration.

    Scenario *names* are just ``scn-0..n`` and episode seeds derive from
    grid indices, so two different suites (other seed, town, distances…)
    — or the same injector name with retuned fault parameters — produce
    colliding ``(injector, name, seed)`` identities.  Checkpoint rows
    carry this fingerprint over the scenario **and** the fault
    configuration (each fault's parameter ``describe()`` plus trigger),
    so resuming against a checkpoint from a different configuration
    re-runs episodes instead of silently returning stale records.

    ``agent_factory`` and ``builder`` fold :func:`component_signature`
    into the hash — the campaign always passes them, so resuming
    a checkpoint after switching the agent (autopilot → IL-CNN, retuned
    expert, retrained weights) or the builder (camera, sensors) re-runs
    episodes instead of silently matching.  ``component_key`` lets the
    campaign pass the two signatures precomputed once per grid instead of
    re-deriving them per task (the NN signature hashes model weights).

    Each fault is described through a *reset clone*, so per-episode state
    (a :class:`~repro.core.faults.ml_faults.WeightBitFlip`'s drawn
    ``sites``, say) never leaks into the hash — the fingerprint is the
    same whether computed before, during or after a campaign.
    """

    def fault_config(fault: FaultModel):
        probe = copy.deepcopy(fault)
        probe.reset()
        return (sorted(probe.describe().items()), repr(getattr(probe, "trigger", None)))

    if component_key is None:
        component_key = (
            component_signature(agent_factory) if agent_factory is not None else None,
            component_signature(builder) if builder is not None else None,
        )
    key_parts = (
        scenario.mission,
        scenario.town_config,
        scenario.weather,
        scenario.n_npc_vehicles,
        scenario.n_pedestrians,
        scenario.seed,
        [fault_config(fault) for fault in faults],
        tuple(component_key),
    )
    # Scripted NPCs fold in only when present, so fingerprints of plain
    # scenarios are unchanged (existing checkpoints stay resumable).
    if scenario.npcs:
        key_parts = key_parts + (scenario.npcs,)
    return hashlib.sha1(repr(key_parts).encode()).hexdigest()[:12]


@dataclass
class RunRecord:
    """Outcome of one fault-injection episode."""

    scenario: str
    injector: str
    seed: int
    success: bool
    frames: int
    duration_s: float
    distance_km: float
    time_limit_s: float
    violations: list[dict] = field(default_factory=list)
    injection_frames: list[int] = field(default_factory=list)
    faults: list[dict] = field(default_factory=list)
    agent_frames_missed: int = 0
    #: Configuration fingerprint (:func:`episode_fingerprint`); "" in
    #: records written before the field existed — those never match a
    #: live grid, so resume safely re-runs (and excludes) them.
    config_fingerprint: str = ""

    @property
    def n_violations(self) -> int:
        """Total violation events in the run."""
        return len(self.violations)

    @property
    def fault_names(self) -> tuple[str, ...]:
        """The episode's fault-set identity: fault names in attach order.

        ``()`` for fault-free baseline runs.  Compound episodes carry
        every component, so analytics can match a compound injector to
        its single-fault marginals without parsing injector names.
        """
        return tuple(f.get("name", "?") for f in self.faults)

    @property
    def n_accidents(self) -> int:
        """Violations that count as accidents (collisions)."""
        return sum(1 for v in self.violations if v["is_accident"])

    @property
    def violations_per_km(self) -> float:
        """Per-run VPK (0 when the car never moved)."""
        if self.distance_km <= 0.0:
            return 0.0
        return self.n_violations / self.distance_km

    @property
    def accidents_per_km(self) -> float:
        """Per-run APK."""
        if self.distance_km <= 0.0:
            return 0.0
        return self.n_accidents / self.distance_km

    def time_to_violation_s(self) -> float | None:
        """Time from first injection to the first violation after it.

        ``None`` when no fault fired or no violation followed one — the
        paper's TTV is only defined for manifested faults.
        """
        if not self.injection_frames or not self.violations:
            return None
        first_injection = self.injection_frames[0]
        after = [v["frame"] for v in self.violations if v["frame"] >= first_injection]
        if not after:
            return None
        fps = self.frames / self.duration_s if self.duration_s > 0 else 15.0
        return (min(after) - first_injection) / fps

    def to_dict(self) -> dict:
        """JSON-serialisable form."""
        return asdict(self)


def _violation_to_dict(event: ViolationEvent, fps: float) -> dict:
    return {
        "type": event.type.value,
        "frame": event.start_frame,
        "time_s": event.start_frame / fps,
        "is_accident": event.is_accident,
        "position": list(event.position),
    }


class EpisodeDriver:
    """One episode as an explicit, externally-steppable state machine.

    The monolithic ``run_episode`` loop factored into phases so an
    :class:`~repro.core.multiplex.EpisodeMultiplexer` can interleave many
    live episodes at tick granularity and batch their sensing:

    - :meth:`setup` — build world/agent/channels/harness/tracer
      (``"new"`` → ``"running"``);
    - :meth:`start` — ship the frame-0 sensor bundle;
    - :meth:`advance` — one full client/server frame (itself composed of
      :meth:`begin_frame` / :meth:`step_client` / :meth:`step_world` /
      :meth:`sense` / :meth:`complete_frame`, each callable directly);
    - :meth:`finalize` — collect harness output into the
      :class:`RunRecord` (``"running"`` → ``"finalized"``);
    - :meth:`close` — detach the harness and close the tracer
      (idempotent, always safe).

    :meth:`run` composes them with exactly ``run_episode``'s historical
    control flow and exception semantics (setup errors propagate before
    the harness attaches; loop errors still detach and close the trace),
    so ``run_episode`` is now a thin wrapper over this class.

    ``client_clock_skew`` decouples the client's polling clock from the
    server's frame counter: the client polls the sensor channel at
    ``world.frame + client_clock_skew``.  The default ``0`` is the
    historical lockstep loop (bit-identical); a negative skew makes the
    client see stale frames — the clock-jitter seam the channel layer's
    delivery model keys on.
    """

    def __init__(
        self,
        builder: SimulationBuilder,
        scenario: Scenario,
        agent_factory: Callable,
        faults: Sequence[FaultModel] = (),
        injector_name: str = "none",
        harness_seed: int = 0,
        trace_path: str | Path | None = None,
        config_fingerprint: str | None = None,
        client_clock_skew: int = 0,
    ):
        self.builder = builder
        self.scenario = scenario
        self.agent_factory = agent_factory
        self.faults = faults
        self.injector_name = injector_name
        self.harness_seed = harness_seed
        self.trace_path = trace_path
        self.config_fingerprint = config_fingerprint
        self.client_clock_skew = client_clock_skew
        self.state = "new"
        self.success = False
        self._frames_done = 0
        self._new_violations: list[ViolationEvent] = []

    # -- lifecycle ------------------------------------------------------
    def setup(self) -> "EpisodeDriver":
        """Build the episode stack; mirrors ``run_episode``'s preamble.

        Exceptions propagate without detaching (the harness only needs a
        :meth:`close` once ``attach`` has run — callers that need safety
        across partially-constructed drivers use :meth:`close`, which is
        a no-op before attach).
        """
        from .trace import TraceWriter  # local import: tracing is optional

        assert self.state == "new", f"setup() in state {self.state!r}"
        if self.config_fingerprint is None:
            self.config_fingerprint = episode_fingerprint(self.scenario, self.faults)
        self.handles = builder_handles = self.builder.build_episode(self.scenario)
        self.world = builder_handles.world
        ego = self.world.ego
        assert ego is not None
        self.ego = ego
        self.agent = self.agent_factory(builder_handles, self.scenario.mission)

        self.sensor_channel = Channel("sensor")
        self.control_channel = Channel("control")
        self.server = SimulationServer(
            self.world, builder_handles.sensors, self.sensor_channel, self.control_channel
        )
        self.client = AgentClient(self.agent, self.sensor_channel, self.control_channel)

        self.harness = InjectionHarness(self.faults, seed=self.harness_seed)
        self._attached = False
        self.harness.attach(
            self.server, self.client, model=getattr(self.agent, "model", None)
        )
        self._attached = True

        self.mission = self.scenario.mission
        self.max_frames = int(math.ceil(self.mission.time_limit_s * self.world.fps))
        self.tracer = (
            TraceWriter(
                self.trace_path,
                header={
                    "scenario": self.scenario.name,
                    "injector": self.injector_name,
                    "seed": self.harness_seed,
                },
            )
            if self.trace_path is not None
            else None
        )
        self.state = "running"
        return self

    def start(self) -> None:
        """Ship the frame-0 sensor bundle so the agent has input."""
        self.server.send_initial_frame()

    # -- per-frame phases ----------------------------------------------
    def begin_frame(self) -> bool:
        """Whether another frame should run (the loop guard)."""
        return (
            self.state == "running"
            and not self.success
            and self._frames_done < self.max_frames
        )

    def step_client(self) -> None:
        """Client phase: act on the freshest due sensor bundle.

        Polls at the client's own clock (``world.frame`` plus the skew) —
        with skew 0 this is the historical lockstep ``client.tick``.
        """
        self.client.tick(self.world.frame + self.client_clock_skew)

    def step_world(self) -> None:
        """Server phases 1-3: apply control, tick physics, monitor."""
        self.server.apply_pending_control()
        _, self._new_violations = self.server.advance_world()

    def sense(self):
        """Server phase 4a: read the sensor bundle (batchable)."""
        return self.server.read_bundle()

    def complete_frame(self, bundle) -> None:
        """Publish ``bundle``, run the harness, trace, check success."""
        self.server.publish_bundle(bundle)
        self.harness.on_frame(self.world, self.world.frame)
        if self.tracer is not None:
            ego = self.ego
            self.tracer.state(
                self.world.frame, ego.position.x, ego.position.y, ego.yaw, ego.speed()
            )
            for event in self._new_violations:
                self.tracer.violation(event.start_frame, event.type.value)
        if self.ego.position.distance_to(self.mission.goal) < self.mission.success_radius:
            self.success = True
        self._frames_done += 1

    def advance(self) -> bool:
        """Run one full frame; ``False`` once the episode is over."""
        if not self.begin_frame():
            return False
        self.step_client()
        self.step_world()
        self.complete_frame(self.sense())
        return True

    # -- teardown -------------------------------------------------------
    def finalize(self) -> RunRecord:
        """Collect harness output and build the :class:`RunRecord`."""
        assert self.state == "running", f"finalize() in state {self.state!r}"
        injection_frames = self.harness.injection_frames()
        fault_descriptions = self.harness.describe()
        if self.tracer is not None:
            for frame in injection_frames:
                self.tracer.injection(frame, self.injector_name)
        record = RunRecord(
            scenario=self.scenario.name,
            injector=self.injector_name,
            seed=self.harness_seed,
            success=self.success,
            frames=self.world.frame,
            duration_s=self.world.time_s,
            distance_km=self.ego.odometer_m / 1000.0,
            time_limit_s=self.mission.time_limit_s,
            violations=[
                _violation_to_dict(e, self.world.fps)
                for e in self.server.monitor.events
            ],
            injection_frames=injection_frames,
            faults=fault_descriptions,
            agent_frames_missed=self.client.frames_missed,
            config_fingerprint=self.config_fingerprint,
        )
        self.state = "finalized"
        return record

    def close(self) -> None:
        """Detach the harness and close the tracer.  Idempotent."""
        if self.state == "closed":
            return
        if getattr(self, "_attached", False):
            self.harness.detach()
        tracer = getattr(self, "tracer", None)
        if tracer is not None:
            tracer.close(footer={"success": self.success})
            self.tracer = None
        self.state = "closed"

    def run(self) -> RunRecord:
        """``setup`` + frame loop + ``finalize``, with the historical
        exception semantics of ``run_episode``."""
        self.setup()
        try:
            self.start()
            while self.advance():
                pass
            return self.finalize()
        finally:
            self.close()


def run_episode(
    builder: SimulationBuilder,
    scenario: Scenario,
    agent_factory: Callable,
    faults: Sequence[FaultModel] = (),
    injector_name: str = "none",
    harness_seed: int = 0,
    trace_path: str | Path | None = None,
    config_fingerprint: str | None = None,
) -> RunRecord:
    """Run one episode under the given fault set and record the outcome.

    The loop is the paper's synchronous client/server cycle: the client
    acts on the freshest sensor bundle, the server applies the freshest
    due control (holding the previous one when timing faults starve it).
    With ``trace_path`` given, a JSONL trace (per-frame ego state plus
    violation/injection events) is written for offline analysis and
    replay comparison (:mod:`repro.core.trace`).

    Implemented as :meth:`EpisodeDriver.run`; use the driver directly to
    step an episode externally (the multiplexer does).
    """
    return EpisodeDriver(
        builder,
        scenario,
        agent_factory,
        faults=faults,
        injector_name=injector_name,
        harness_seed=harness_seed,
        trace_path=trace_path,
        config_fingerprint=config_fingerprint,
    ).run()


@dataclass
class CampaignResult:
    """All run records of a campaign, with grouping helpers.

    ``failures`` is the campaign's quarantine list: episodes the
    executors gave up on within the fault-tolerance budget
    (:class:`~repro.core.outcomes.EpisodeFailure`, grid order).  They are
    never mixed into ``records`` — a quarantined episode is missing data,
    not a mission result.
    """

    records: list[RunRecord] = field(default_factory=list)
    failures: list = field(default_factory=list)

    def by_injector(self) -> dict[str, list[RunRecord]]:
        """Records grouped by injector name, insertion-ordered."""
        groups: dict[str, list[RunRecord]] = {}
        for record in self.records:
            groups.setdefault(record.injector, []).append(record)
        return groups

    def injectors(self) -> list[str]:
        """Injector names in first-seen order."""
        return list(self.by_injector())

    def filter(self, injector: str) -> list[RunRecord]:
        """Records of one injector."""
        return [r for r in self.records if r.injector == injector]

    def metrics(self) -> dict:
        """Per-injector :class:`~repro.core.metrics.ResilienceMetrics`;
        quarantined episodes surface as each injector's
        ``failure_counts``, never as runs — so an injector whose every
        episode was quarantined still gets a row."""
        from .metrics import metrics_by_injector  # deferred: metrics imports us

        return metrics_by_injector(self.records + self.failures)

    def quarantined(self) -> list[tuple[str, str, int]]:
        """The quarantine list as ``(injector, scenario, seed)`` triples."""
        return [(f.injector, f.scenario, f.seed) for f in self.failures]

    def save(self, path: str | Path) -> None:
        """Write records (and quarantine rows, if any) as JSON."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [r.to_dict() for r in self.records]
        rows += [f.to_dict() for f in self.failures]
        path.write_text(json.dumps(rows, indent=1))

    @classmethod
    def load(cls, path: str | Path) -> "CampaignResult":
        """Read records written by :meth:`save` (failure rows — the ones
        carrying an ``outcome`` key — rebuild into the quarantine list)."""
        from .outcomes import EpisodeFailure  # deferred: tiny leaf module

        rows = json.loads(Path(path).read_text())
        records, failures = [], []
        for row in rows:
            if isinstance(row, dict) and "outcome" in row:
                failures.append(EpisodeFailure.from_dict(row))
            else:
                records.append(RunRecord(**row))
        return cls(records, failures=failures)


def standard_scenarios(
    n: int,
    seed: int = 0,
    town_config: GridTownConfig | ProceduralTownConfig | None = None,
    weather: str = "ClearNoon",
    n_npc_vehicles: int = 0,
    n_pedestrians: int = 0,
    min_distance: float = 100.0,
    max_distance: float = 400.0,
) -> list[Scenario]:
    """Scenario suite with *planner-accurate* mission time limits.

    Wires the route planner into mission generation so time limits reflect
    true route lengths and unroutable start/goal pairs are rejected — the
    variant campaign code should normally use.
    """
    cfg = town_config or GridTownConfig()
    town = build_town(cfg)
    planner = RoutePlanner(town)

    def route_length(start, goal):
        try:
            return planner.plan(start.position, goal, start_yaw=start.yaw).length
        except PlanningError:
            return None

    return make_scenarios(
        n,
        seed=seed,
        town_config=cfg,
        weather=weather,
        n_npc_vehicles=n_npc_vehicles,
        n_pedestrians=n_pedestrians,
        min_distance=min_distance,
        max_distance=max_distance,
        route_length_fn=route_length,
    )
