"""The injection harness: wiring fault models into a live episode.

Fig. 1 shows four hook points around the ADA — Input FI, NN FI, Output FI
and Timing FI.  :class:`InjectionHarness` owns a set of fault models and
attaches each to its seam:

* :class:`~repro.core.faults.base.SensorFault` → the agent client's
  ``input_filters`` (between sensor channel and agent);
* :class:`~repro.core.faults.base.ControlFault` → the client's
  ``output_filters`` (between agent and control channel);
* :class:`~repro.core.faults.base.TimingFault` → a transform on the named
  channel;
* :class:`~repro.core.faults.base.ModelFault` → installed into the
  IL-CNN's weights/hooks;
* :class:`~repro.core.faults.base.WorldFault` → stepped by the episode
  runner once per frame.

``detach`` undoes everything (restoring model weights exactly), so shared
objects — the trained model above all — survive across episodes.  Every
fault receives a child RNG spawned from the harness seed, making the whole
campaign reproducible from scalar seeds.

Compound (multi-fault) episodes are first-class: the harness attaches the
whole ordered fault set, filters compose in declaration order at each hook
point, and each fault's child RNG derives from its *position* in the set —
so a two-fault episode replays bit-for-bit, and the same fault paired with
different partners draws an unrelated stream.  A fault instance may appear
at most once per set; sharing one instance across campaigns is fine, but a
duplicate within one set is rejected at construction.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..agent.ilcnn import ILCNN
from ..sim.client import AgentClient
from ..sim.server import SimulationServer
from ..sim.world import World
from .faults.base import (
    ControlFault,
    FaultModel,
    ModelFault,
    SensorFault,
    TimingFault,
    WorldFault,
)

__all__ = ["InjectionHarness"]


class InjectionHarness:
    """Attaches fault models to one episode's components."""

    def __init__(self, faults: Sequence[FaultModel], seed: int = 0):
        seen: dict[int, FaultModel] = {}
        for position, fault in enumerate(faults):
            if not isinstance(fault, FaultModel):
                raise TypeError(
                    f"unknown fault kind: {type(fault).__name__} (expected a FaultModel)"
                )
            if id(fault) in seen:
                raise ValueError(
                    f"fault {fault.name!r} appears twice in the fault set "
                    f"(position {position}); each fault needs its own instance — "
                    f"a shared instance would double-attach its hooks and share "
                    f"per-episode state (use copy.deepcopy for a second copy)"
                )
            seen[id(fault)] = fault
        self.faults = list(faults)
        self.seed = seed
        self._attached = False
        self._client: AgentClient | None = None
        self._server: SimulationServer | None = None
        self._model: ILCNN | None = None
        self._installed_model_faults: list[ModelFault] = []
        self._input_filters: list = []
        self._output_filters: list = []
        self._channel_transforms: list[tuple[object, TimingFault]] = []
        self._world_faults: list[WorldFault] = []

    # ------------------------------------------------------------------
    def attach(
        self,
        server: SimulationServer,
        client: AgentClient,
        model: ILCNN | None = None,
    ) -> None:
        """Bind every fault model to its hook point for one episode."""
        if self._attached:
            raise RuntimeError("harness already attached; detach first")
        self._server = server
        self._client = client
        self._model = model
        rng_root = np.random.default_rng(self.seed)

        try:
            for fault in self.faults:
                fault.reset()
                fault.bind(np.random.default_rng(rng_root.integers(2**63)))
                if isinstance(fault, SensorFault):
                    input_filter = _SensorFilter(fault)
                    client.input_filters.append(input_filter)
                    self._input_filters.append(input_filter)
                elif isinstance(fault, ControlFault):
                    output_filter = fault.apply
                    client.output_filters.append(output_filter)
                    self._output_filters.append(output_filter)
                elif isinstance(fault, TimingFault):
                    channel = (
                        server.control_channel
                        if fault.channel == "control"
                        else server.sensor_channel
                    )
                    channel.add_transform(fault)
                    self._channel_transforms.append((channel, fault))
                elif isinstance(fault, ModelFault):
                    if model is None:
                        raise ValueError(
                            f"{fault.name} targets the NN but the agent has no model "
                            "(is this the autopilot baseline?)"
                        )
                    fault.install(model, frame=fault.trigger.start_frame)
                    self._installed_model_faults.append(fault)
                elif isinstance(fault, WorldFault):
                    self._world_faults.append(fault)
                else:
                    raise TypeError(f"unknown fault kind: {type(fault).__name__}")
        except BaseException:
            # A later fault failing to attach (a ModelFault without a
            # model, a fault subclass raising in install) must not leak
            # the hooks earlier faults already planted on the *shared*
            # client/server/model — detach() would no-op because
            # _attached was never set, and the next episode would run
            # with this episode's filters still installed.
            self._unwind()
            raise
        self._attached = True

    def on_frame(self, world: World, frame: int) -> None:
        """Advance per-frame fault machinery (world faults)."""
        for fault in self._world_faults:
            fault.step(world, frame)

    def detach(self) -> None:
        """Remove every hook and restore shared state (model weights)."""
        if not self._attached:
            return
        self._unwind()
        self._attached = False

    def _unwind(self) -> None:
        """Remove whatever hooks are currently planted (full or partial).

        Shared between :meth:`detach` and :meth:`attach`'s failure path:
        only hooks recorded in the tracking lists are removed, so a
        partially failed attach unwinds exactly the state it created.
        """
        assert self._client is not None and self._server is not None
        for input_filter in self._input_filters:
            self._client.input_filters.remove(input_filter)
            input_filter.fault.drop_draw()  # no draw outlives its episode
        for output_filter in self._output_filters:
            self._client.output_filters.remove(output_filter)
        for channel, transform in self._channel_transforms:
            channel.remove_transform(transform)
        for fault in self._installed_model_faults:
            assert self._model is not None
            fault.remove(self._model)
        self._input_filters.clear()
        self._output_filters.clear()
        self._channel_transforms.clear()
        self._installed_model_faults.clear()
        self._world_faults.clear()

    # ------------------------------------------------------------------
    def injection_frames(self) -> list[int]:
        """All frames at which any fault actually fired, sorted."""
        frames: set[int] = set()
        for fault in self.faults:
            frames.update(fault.log.frames)
        return sorted(frames)

    def first_injection_frame(self) -> int | None:
        """Earliest activation across all faults, or ``None``."""
        frames = self.injection_frames()
        return frames[0] if frames else None

    def describe(self) -> list[dict]:
        """Descriptions of every fault (for run records)."""
        return [fault.describe() for fault in self.faults]


class _SensorFilter:
    """Adapter: SensorFault → AgentClient input-filter callable."""

    def __init__(self, fault: SensorFault):
        self.fault = fault

    def __call__(self, bundle):
        return self.fault.apply(bundle, bundle.frame)
