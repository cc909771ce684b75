"""Fault-model foundations: triggers, activation logs, base classes.

AVFI separates *what* a fault does and *where* it lands (the fault model,
which draws its own sites from its seeded RNG) from *when* it fires (the
trigger).  This module defines the shared machinery:

* :class:`Trigger` — frame window plus per-frame probability;
* :class:`ActivationLog` — which frames a fault actually fired on, feeding
  the Time-To-Violation metric;
* the four base classes mirroring fig. 1's hook points:
  :class:`SensorFault` (Input FI), :class:`ControlFault` (Output FI),
  :class:`ModelFault` (NN FI) and :class:`TimingFault` (Timing FI, a
  channel transform), plus :class:`WorldFault` for corrupted world
  measurements (weather/speed type faults);
* the universal fault registry: every concrete fault class registers
  itself under its stable ``name`` via :func:`register_fault`, and every
  fault round-trips through a JSON-serialisable config
  (:meth:`FaultModel.to_config` / :meth:`FaultModel.from_config`) —
  the machinery declarative campaign specs
  (:mod:`repro.core.spec`) are built on.

Every fault model owns a seeded RNG handed to it by the injection harness,
so campaigns replay bit-for-bit.

A sensor fault whose draws depend only on its own RNG and the camera
shape (gaussian noise) makes each in-window frame's draws one frame
ahead, on one helper thread per process, when the draw is large and a
core is spare (:class:`SensorFault`).  NumPy's ``Generator`` fills
release the GIL, so the draw runs on the idle core while the frame goes
on, and it consumes the RNG exactly as an inline draw would.
"""

from __future__ import annotations

import inspect
import json
import multiprocessing
import os
import queue
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

from ...sim.channel import ChannelTransform, Packet
from ...sim.physics import VehicleControl
from ...sim.sensors import SensorFrame

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ...agent.ilcnn import ILCNN
    from ...sim.world import World

__all__ = [
    "Trigger",
    "ActivationLog",
    "FaultModel",
    "SensorFault",
    "ControlFault",
    "ModelFault",
    "TimingFault",
    "WorldFault",
    "FAULT_REGISTRY",
    "register_fault",
    "make_fault",
    "fault_parameters",
    "REQUIRED",
]


#: Every registered fault class, keyed by its stable ``name`` attribute.
#: Populated by :func:`register_fault`; spans ALL hook points (data,
#: hardware, timing, ML, world) — unlike the historical
#: ``INPUT_FAULT_REGISTRY``, which only lists the fig. 2/3 camera faults.
FAULT_REGISTRY: dict[str, type["FaultModel"]] = {}

#: Sentinel for constructor parameters without a default
#: (see :func:`fault_parameters`).
REQUIRED = object()


def register_fault(cls: type["FaultModel"]) -> type["FaultModel"]:
    """Class decorator adding a fault model to :data:`FAULT_REGISTRY`.

    The class must define its *own* ``name`` (an inherited one would
    silently shadow the parent's registration), which becomes the config
    key :meth:`FaultModel.from_config` dispatches on.
    """
    name = cls.__dict__.get("name")
    if not isinstance(name, str) or not name:
        raise ValueError(
            f"{cls.__name__} needs its own class-level `name` string to register"
        )
    existing = FAULT_REGISTRY.get(name)
    if existing is not None and existing is not cls:
        raise ValueError(
            f"fault name {name!r} is already registered by {existing.__name__}"
        )
    FAULT_REGISTRY[name] = cls
    return cls


def make_fault(name: str, **kwargs) -> "FaultModel":
    """Instantiate any registered fault model by its stable name."""
    try:
        cls = FAULT_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(FAULT_REGISTRY))
        raise KeyError(f"unknown fault {name!r}; registered faults: {known}") from None
    return cls(**kwargs)


def fault_parameters(cls: type["FaultModel"]) -> dict[str, object]:
    """A fault class's config parameters and defaults, by introspection.

    Maps constructor parameter names (``trigger`` excluded — it is
    serialised separately) to their defaults, or :data:`REQUIRED` for
    parameters without one.  This is both what ``avfi list-faults``
    prints and the contract :meth:`FaultModel.config_params` auto-derives
    serialisation from.
    """
    out: dict[str, object] = {}
    for pname, param in inspect.signature(cls.__init__).parameters.items():
        if pname in ("self", "trigger"):
            continue
        if param.kind in (param.VAR_POSITIONAL, param.VAR_KEYWORD):
            continue
        out[pname] = param.default if param.default is not param.empty else REQUIRED
    return out


def _json_default(obj):
    item = getattr(obj, "item", None)  # numpy scalars
    if callable(item):
        return item()
    raise TypeError(f"{type(obj).__name__} is not JSON-serialisable")


def _jsonify(value, context: str):
    """Normalise ``value`` to plain JSON types (tuples become lists, numpy
    scalars become Python numbers), so ``to_config`` output is stable
    under a JSON round-trip — the round-trip property tests rely on
    ``to_config → from_config → to_config`` being the identity."""
    try:
        return json.loads(json.dumps(value, default=_json_default))
    except TypeError as exc:
        raise TypeError(f"{context}: {exc}") from None


@dataclass(frozen=True)
class Trigger:
    """When a fault fires.

    Active on frames in ``[start_frame, end_frame]`` (``end_frame`` ``None``
    = forever), firing with ``probability`` per frame.  The default — always
    on — matches the paper's headline experiments, where a sensor fault
    model corrupts every camera frame of the episode.
    """

    start_frame: int = 0
    end_frame: Optional[int] = None
    probability: float = 1.0

    def __post_init__(self) -> None:
        if self.start_frame < 0:
            raise ValueError("start_frame cannot be negative")
        if self.end_frame is not None and self.end_frame < self.start_frame:
            raise ValueError("end_frame before start_frame")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be within [0, 1]")

    def in_window(self, frame: int) -> bool:
        """Whether ``frame`` lies inside the trigger window."""
        if frame < self.start_frame:
            return False
        return self.end_frame is None or frame <= self.end_frame

    def fires(self, frame: int, rng: np.random.Generator) -> bool:
        """Whether the fault fires at ``frame`` (draws from ``rng``)."""
        return self.in_window(frame) and self.roll(rng)

    def roll(self, rng: np.random.Generator) -> bool:
        """Whether an in-window frame fires: one uniform from ``rng``
        when ``probability`` < 1, no draw otherwise."""
        if self.probability >= 1.0:
            return True
        return bool(rng.random() < self.probability)

    def to_dict(self) -> dict:
        """JSON-serialisable form (see :meth:`from_dict`).

        Numerics coerce to canonical JSON types (``probability=1`` and
        ``1.0`` compare equal but serialise differently), keeping spec
        hashes content-stable.
        """
        return {
            "start_frame": int(self.start_frame),
            "end_frame": int(self.end_frame) if self.end_frame is not None else None,
            "probability": float(self.probability),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Trigger":
        """Rebuild a trigger written by :meth:`to_dict`.

        Types are validated here, not just ranges: a hand-edited spec
        with ``"start_frame": "90"`` must fail at load time with a
        readable message, not mid-campaign inside :meth:`fires`.
        """
        if not isinstance(data, dict):
            raise TypeError(
                f"trigger config must be an object, got {type(data).__name__}"
            )
        unknown = set(data) - {"start_frame", "end_frame", "probability"}
        if unknown:
            raise ValueError(f"trigger config has unknown keys {sorted(unknown)}")
        start = data.get("start_frame", 0)
        end = data.get("end_frame")
        probability = data.get("probability", 1.0)
        if not isinstance(start, int) or isinstance(start, bool):
            raise ValueError(f"trigger start_frame must be an integer, got {start!r}")
        if end is not None and (not isinstance(end, int) or isinstance(end, bool)):
            raise ValueError(
                f"trigger end_frame must be an integer or null, got {end!r}"
            )
        if not isinstance(probability, (int, float)) or isinstance(probability, bool):
            raise ValueError(
                f"trigger probability must be a number, got {probability!r}"
            )
        return cls(start_frame=start, end_frame=end, probability=float(probability))


@dataclass
class ActivationLog:
    """Frames at which a fault actually fired."""

    frames: list[int] = field(default_factory=list)

    def record(self, frame: int) -> None:
        """Append one activation."""
        self.frames.append(frame)

    def first(self) -> Optional[int]:
        """Earliest activation, or ``None``."""
        return self.frames[0] if self.frames else None

    def latest_before(self, frame: int) -> Optional[int]:
        """Most recent activation at or before ``frame``."""
        candidates = [f for f in self.frames if f <= frame]
        return candidates[-1] if candidates else None

    def clear(self) -> None:
        """Reset between episodes."""
        self.frames.clear()


class FaultModel:
    """Common behaviour of every fault model."""

    #: Short stable identifier used in reports ("gaussian", "bitflip-ctl"...).
    name: str = "fault"
    #: Which hook point the fault attaches to ("input", "output", "model",
    #: "timing", "world") — set by the base classes below; drives the
    #: grouped ``avfi list-faults`` output.
    hook: str = "generic"

    def __init__(self, trigger: Trigger | None = None):
        self.trigger = trigger or Trigger()
        self.log = ActivationLog()
        self.rng: np.random.Generator = np.random.default_rng(0)

    def bind(self, rng: np.random.Generator) -> None:
        """Receive the harness-seeded RNG (called once per episode)."""
        self.rng = rng

    def reset(self) -> None:
        """Clear per-episode state (activation log, cached sites)."""
        self.log.clear()

    def describe(self) -> dict:
        """Report-friendly description."""
        return {"name": self.name, "class": type(self).__name__}

    def config_params(self) -> dict:
        """Constructor arguments that rebuild this fault (subclass hook).

        Auto-derived from the constructor signature: every parameter
        (``trigger`` aside) must be stored under the same attribute name
        — the convention all shipped faults follow.  A subclass whose
        stored state differs from its constructor arguments (e.g.
        :class:`~repro.core.faults.data_faults.WeatherShiftFault`
        resolving a preset name into a ``Weather`` object) overrides
        this to map back.  Per-episode state (activation logs, drawn
        occlusion patches, bit-flip sites) is never a constructor
        parameter, so it never leaks into the config.
        """
        params = {}
        for pname in fault_parameters(type(self)):
            if not hasattr(self, pname):
                raise TypeError(
                    f"{type(self).__name__} stores no attribute for constructor "
                    f"parameter {pname!r}; override config_params()"
                )
            params[pname] = getattr(self, pname)
        return params

    def to_config(self) -> dict:
        """JSON-serialisable config that rebuilds this fault exactly.

        The round-trip contract every registered fault satisfies:
        ``FaultModel.from_config(f.to_config()).to_config() ==
        f.to_config()`` — including the trigger, and independent of any
        per-episode state the instance has accumulated.
        """
        return {
            "fault": self.name,
            "params": _jsonify(
                self.config_params(), f"{type(self).__name__}.to_config()"
            ),
            "trigger": self.trigger.to_dict(),
        }

    @staticmethod
    def from_config(config: dict) -> "FaultModel":
        """Rebuild any registered fault from :meth:`to_config` output."""
        if not isinstance(config, dict):
            raise TypeError(
                f"fault config must be an object, got {type(config).__name__}"
            )
        if "fault" not in config:
            raise ValueError(
                "fault config needs a 'fault' key naming a registered fault"
            )
        name = config["fault"]
        try:
            cls = FAULT_REGISTRY[name]
        except KeyError:
            known = ", ".join(sorted(FAULT_REGISTRY))
            raise KeyError(
                f"unknown fault {name!r}; registered faults: {known}"
            ) from None
        unknown = set(config) - {"fault", "params", "trigger"}
        if unknown:
            raise ValueError(
                f"fault config for {name!r} has unknown keys {sorted(unknown)}"
            )
        params = config.get("params")
        if params is None:
            params = {}
        if not isinstance(params, dict):
            # `[]`/`""`/`false` must not silently mean "all defaults".
            raise TypeError(
                f"fault config for {name!r}: 'params' must be an object, "
                f"got {type(params).__name__}"
            )
        trigger = (
            Trigger.from_dict(config["trigger"])
            if config.get("trigger") is not None
            else None
        )
        try:
            return cls(**params, trigger=trigger)
        except TypeError as exc:
            known = ", ".join(
                f"{p}" for p in fault_parameters(cls)
            ) or "(no parameters)"
            raise ValueError(
                f"cannot build fault {name!r}: {exc}; accepted params: {known}"
            ) from None


#: A firing that draws fewer values than this draws inline.  Handing a
#: draw to the helper thread costs the main thread ~50-90 µs (the helper
#: takes the GIL twice), which only a large draw repays.  Measured on a
#: 2-vCPU host, frames/s ahead vs inline in one process: gaussian at
#: 32x24 (2,304 values) 0.93x, 48x32 (4,608) 0.97x, 64x48 (9,216) 1.05x,
#: 96x64 (18,432) 1.13x.
DRAW_AHEAD_MIN_VALUES = 8192


#: Whether this process may run on more than one core at all.
_MANY_CORES = (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
) > 1


#: The parent's :func:`_spare_core` answer in a sandboxed attempt's
#: child (see :func:`inherit_spare_core`); None in every other process.
_inherited_spare_core: bool | None = None


def _spare_core() -> bool:
    """Whether the helper can expect a core that this process's frames
    leave idle.  A host with one core has none.  Neither has a process
    that ``multiprocessing`` started: the process and queue backends
    start one worker per core by default.  A sandboxed attempt's child
    takes its parent's answer instead, since the parent only waits for
    it.  On a 2-vCPU host, a process-backend gaussian campaign at two
    workers that drew ahead in every worker gained nothing: frames/s
    median paired ratio 0.99, 4 of 10 pairs."""
    if _inherited_spare_core is not None:
        return _inherited_spare_core
    return _MANY_CORES and multiprocessing.parent_process() is None


def inherit_spare_core(answer: bool) -> None:
    """Make this process answer :func:`_spare_core` as its parent did.

    For a child whose parent waits while it runs (a sandboxed attempt):
    the core the parent's frames would use is the child's to share."""
    global _inherited_spare_core
    _inherited_spare_core = answer


#: The helper thread's job queue, one per process; None until the first
#: draw made ahead starts the thread.
_jobs: queue.SimpleQueue | None = None
_start_lock = threading.Lock()


def _submit(fn, *args) -> queue.SimpleQueue:
    """Run ``fn(*args)`` on the helper thread, after every job submitted
    before it.  Returns the queue that receives ``(result, error)``."""
    global _jobs
    with _start_lock:
        if _jobs is None:
            _jobs = queue.SimpleQueue()
            threading.Thread(target=_serve, args=(_jobs,), name="fault-draws", daemon=True).start()
    outcome: queue.SimpleQueue = queue.SimpleQueue()
    _jobs.put((fn, args, outcome))
    return outcome


def _serve(jobs: queue.SimpleQueue) -> None:
    while True:
        fn, args, outcome = jobs.get()
        try:
            outcome.put((fn(*args), None))
        except BaseException as exc:
            outcome.put((None, exc))


def _drain_helper() -> None:
    if _jobs is not None:  # started: wait out every draw queued so far
        _submit(int).get()


def _forget_helper_in_child() -> None:
    global _jobs, _start_lock
    _jobs = None
    _start_lock = threading.Lock()  # another thread may have held it


# A fork copies no thread but the forking one: the child starts its own
# helper.  Draining first means no draw is half-done in the child's copy
# of memory (a Generator mid-fill holds its lock).
os.register_at_fork(before=_drain_helper, after_in_child=_forget_helper_in_child)


class SensorFault(FaultModel):
    """Input FI: corrupts the sensor bundle before the agent sees it.

    A firing has two parts: what the fault's own RNG draws for it
    (:meth:`draw`) and how that draw corrupts the bundle
    (:meth:`corrupt`).  A fault whose draws never depend on the bundle's
    content says how many values a draw takes (:meth:`draw_values`).
    When that is at least :data:`DRAW_AHEAD_MIN_VALUES` and the process
    has a core to spare (:func:`_spare_core`), :meth:`apply` starts the
    next in-window frame's draws (the trigger's uniform when
    ``probability`` < 1, then the payload if it fires) on the helper
    thread, for the camera shape it just saw.  The frame goes on
    meanwhile, and the main thread touches that RNG again only after the
    draws are done.  The RNG is consumed exactly as by inline draws; a
    draw made for a shape the next bundle does not have is rolled back
    and made again inline.

    A draw made ahead is not fault state: :meth:`bind`, pickling and
    ``copy.deepcopy`` wait it out and roll the RNG back to where
    :meth:`apply` left it, and so does :meth:`drop_draw`, which the
    harness calls on detach so that no draw outlives its episode.
    """

    hook = "input"
    #: Whether :meth:`corrupt` replaces ``bundle.image`` with a new array
    #: and never writes into the one it is handed: its bundle copy then
    #: shares the published image instead of copying it.
    replaces_image = False
    #: ``(shape, rng state before the draws, queue receiving
    #: ((fires, payload), error))`` of the next in-window frame's draws,
    #: made on the helper.
    _ahead: tuple[tuple, dict, queue.SimpleQueue] | None = None

    def apply(self, bundle: SensorFrame, frame: int) -> SensorFrame:
        """Return the (possibly corrupted) bundle for this frame."""
        if not self.trigger.in_window(frame):
            return bundle
        fires, payload = self._drawn_for(bundle.image.shape)
        if not fires:
            return bundle
        self.log.record(frame)
        return self.corrupt(bundle.copy(share_image=self.replaces_image), payload)

    def _draws(self, rng: np.random.Generator, shape: tuple) -> tuple[bool, object]:
        """One in-window frame's draws: ``(fires, payload)``."""
        if not self.trigger.roll(rng):
            return False, None
        return True, self.draw(rng, shape)

    def _drawn_for(self, shape: tuple) -> tuple[bool, object]:
        """This frame's draws (made ahead if they fit ``shape``), then
        the next in-window frame's draws started on the helper if they
        are large enough."""
        if self._ahead is not None and self._ahead[0] != shape:
            self.drop_draw()
        ahead, self._ahead = self._ahead, None
        if ahead is None:
            drawn = self._draws(self.rng, shape)
        else:
            drawn, error = ahead[2].get()
            if error is not None:
                raise error
        values = self.draw_values(shape)
        if values and values >= DRAW_AHEAD_MIN_VALUES and _spare_core():
            # The RNG's state from before the draws, to roll them back.
            state = self.rng.bit_generator.state
            self._ahead = (shape, state, _submit(self._draws, self.rng, shape))
        return drawn

    def drop_draw(self) -> None:
        """Wait out a draw made ahead, if any, and roll the RNG back."""
        ahead, self._ahead = self._ahead, None
        if ahead is not None:
            _, state, outcome = ahead
            outcome.get()  # waits; an error goes with the draw
            self.rng.bit_generator.state = state

    def bind(self, rng: np.random.Generator) -> None:
        self.drop_draw()
        super().bind(rng)

    def __getstate__(self) -> dict:
        self.drop_draw()
        state = self.__dict__.copy()
        state.pop("_ahead", None)
        return state

    def draw_values(self, shape: tuple) -> int:
        """How many values :meth:`draw` takes from the RNG for an image of
        ``shape``; 0 (never drawn ahead) for faults whose draws depend on
        the bundle and are made in :meth:`transform`."""
        return 0

    def draw(self, rng: np.random.Generator, shape: tuple):
        """One firing's payload, drawn from ``rng`` for an image of
        ``shape`` (hook of faults with :meth:`draw_values`)."""
        return None

    def corrupt(self, bundle: SensorFrame, payload) -> SensorFrame:
        """Corrupt ``bundle`` in place with ``payload`` and return it
        (faults with :meth:`draw_values` override this)."""
        return self.transform(bundle)

    def transform(self, bundle: SensorFrame) -> SensorFrame:
        """Corrupt ``bundle`` in place and return it (subclass hook)."""
        raise NotImplementedError


class ControlFault(FaultModel):
    """Output FI: corrupts the control command after the agent produced it."""

    hook = "output"

    def apply(self, control: VehicleControl, frame: int) -> VehicleControl:
        """Return the (possibly corrupted) control for this frame."""
        if not self.trigger.fires(frame, self.rng):
            return control
        self.log.record(frame)
        return self.transform(control)

    def transform(self, control: VehicleControl) -> VehicleControl:
        """Corrupt ``control`` and return the new command (subclass hook)."""
        raise NotImplementedError


class ModelFault(FaultModel):
    """NN FI: perturbs network weights or activations.

    ``install`` corrupts the model (keeping whatever backup is needed);
    ``remove`` must restore it exactly — campaign code shares one model
    instance across episodes.
    """

    hook = "model"

    def install(self, model: "ILCNN", frame: int = 0) -> None:
        """Apply the fault to ``model`` (records one activation)."""
        raise NotImplementedError

    def remove(self, model: "ILCNN") -> None:
        """Undo :meth:`install` exactly."""
        raise NotImplementedError


class TimingFault(ChannelTransform, FaultModel):
    """Timing FI: rewrites packet delivery on a named channel."""

    hook = "timing"
    #: Which channel to attach to: "control" (ADA→actuation) or "sensor".
    channel: str = "control"

    def __init__(self, trigger: Trigger | None = None):
        ChannelTransform.__init__(self)
        FaultModel.__init__(self, trigger)

    def on_send(self, packet: Packet, deliver_frame: int):
        if not self.trigger.fires(packet.frame, self.rng):
            return [(packet, deliver_frame)]
        self.log.record(packet.frame)
        return self.rewrite(packet, deliver_frame)

    def rewrite(self, packet: Packet, deliver_frame: int):
        """Fault-specific delivery rewrite (subclass hook)."""
        raise NotImplementedError

    def reset(self) -> None:  # resolves the diamond: both bases define reset
        FaultModel.reset(self)


class WorldFault(FaultModel):
    """Corrupts world measurements (weather type, global state).

    The harness calls :meth:`step` once per frame with the live world.
    """

    hook = "world"

    def step(self, world: "World", frame: int) -> None:
        """Fire if triggered (records activation) and mutate the world."""
        if not self.trigger.fires(frame, self.rng):
            return
        self.log.record(frame)
        self.mutate(world)

    def mutate(self, world: "World") -> None:
        """World mutation (subclass hook)."""
        raise NotImplementedError
