"""Declarative campaign specs: experiments as portable JSON artifacts.

AVFI's promise is *configuration-driven* fault injection, but the
programmatic API makes every campaign a Python program: injectors are
hand-built dicts of fault objects, agents are arbitrary callables, and a
campaign only exists inside the process that constructed it.  This module
turns an experiment definition into **data**:

* :class:`CampaignSpec` — the complete definition of a campaign
  (scenario suite, agent, injectors, builder, execution options),
  round-trippable to/from JSON via :meth:`CampaignSpec.to_dict` /
  :meth:`CampaignSpec.from_dict` and :func:`load_spec` /
  :func:`save_spec`, with schema-version checking and validation errors
  that name the JSON path they refer to;
* :class:`ScenarioSuiteSpec` — a generator configuration (the
  :func:`~repro.core.campaign.standard_scenarios` parameters), an
  explicit scenario list, or a **grammar** — a seeded scenario
  *distribution* (:mod:`repro.core.scenariogen`) expanded
  deterministically at build time;
* :class:`AgentSpec` — a name from the agent registry
  (:data:`~repro.agent.agents.AGENT_REGISTRY`) plus builder params;
* :class:`ExecutionSpec` — workers/backend/queue/checkpoint options,
  each overridable from the ``avfi run`` command line;
* :class:`CompoundInjectorSpec` — a *generator* entry in the injector
  table: instead of one literal fault list, it declares pools of faults
  and expands (cartesian product, or a seeded sample of it) into many
  compound injectors, one per combination —
  :meth:`CampaignSpec.expanded_injectors` is the single place the
  expansion happens, so ``Campaign.from_spec`` and ``avfi`` all see the
  identical concrete grid.

Fault models serialise through the universal fault registry
(:meth:`~repro.core.faults.base.FaultModel.to_config` /
:meth:`~repro.core.faults.base.FaultModel.from_config`), so every
registered fault — data, hardware, timing, ML, world — can appear in a
spec file.  ``Campaign.from_spec`` rebuilds the
exact programmatic objects, and because checkpoint fingerprints derive
from the *built* components (:func:`~repro.core.campaign.component_signature`),
a spec-driven run and its hand-written equivalent produce byte-identical
records — suites can be generated, sharded across the work queue,
archived and replayed without touching Python.
"""

from __future__ import annotations

import copy
import hashlib
import itertools
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from ..sim.builders import SimulationBuilder
from ..sim.scenario import Scenario, town_config_to_dict
from ..sim.town import GridTownConfig
from .campaign import standard_scenarios
from .faults.base import FaultModel
from .outcomes import FaultTolerancePolicy
from .queue import check_lease_s
from .scenariogen import GrammarError, ScenarioGrammar

__all__ = [
    "SPEC_SCHEMA_VERSION",
    "SpecError",
    "ScenarioSuiteSpec",
    "AgentSpec",
    "ExecutionSpec",
    "CompoundInjectorSpec",
    "CampaignSpec",
    "load_spec",
    "parse_spec",
    "save_spec",
]

#: Version stamped into every emitted spec.  Bump on breaking format
#: changes; :meth:`CampaignSpec.from_dict` rejects specs from the future
#: with a readable error instead of misparsing them.
SPEC_SCHEMA_VERSION = 1


class SpecError(ValueError):
    """A campaign spec failed validation.

    The message always names the JSON path (``spec.injectors['delay'][0]``
    …), so a typo in a 200-line spec file points at its own line instead
    of a traceback deep inside campaign construction.
    """

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"invalid campaign spec at {path}: {message}")


def _expect_object(data, path: str) -> dict:
    if not isinstance(data, dict):
        raise SpecError(path, f"expected an object, got {type(data).__name__}")
    return data


def _reject_unknown(data: dict, allowed: set[str], path: str) -> None:
    unknown = set(data) - allowed
    if unknown:
        raise SpecError(
            path,
            f"unknown keys {sorted(unknown)} (allowed: {sorted(allowed)})",
        )


@dataclass
class ScenarioSuiteSpec:
    """The scenario suite, as data.

    Three forms:

    * **generate** (the default): the
      :func:`~repro.core.campaign.standard_scenarios` parameters —
      planner-accurate time limits, reproducible from the suite seed;
    * **explicit**: a literal scenario list (``scenarios`` non-``None``),
      for suites produced by external tooling or replayed from another
      spec;
    * **grammar**: a seeded scenario *distribution*
      (:class:`~repro.core.scenariogen.ScenarioGrammar`) — distribution
      nodes over weather, traffic, town geometry and junction conflicts,
      expanded deterministically at build time (same spec + seed, same
      concrete suite, in any process).
    """

    n: int = 4
    seed: int = 0
    weather: str = "ClearNoon"
    n_npc_vehicles: int = 0
    n_pedestrians: int = 0
    min_distance: float = 100.0
    max_distance: float = 400.0
    town: GridTownConfig = field(default_factory=GridTownConfig)
    #: Explicit suite; overrides the generator parameters when set.
    scenarios: list[Scenario] | None = None
    #: Generative grammar; overrides the generator parameters when set.
    grammar: ScenarioGrammar | None = None

    def build(self) -> list[Scenario]:
        """Materialise the suite (deterministic for a given spec)."""
        if self.scenarios is not None:
            return list(self.scenarios)
        if self.grammar is not None:
            try:
                return self.grammar.expand(path="spec.scenarios.grammar")
            except GrammarError as exc:
                raise SpecError(exc.path, exc.message) from None
        return standard_scenarios(
            self.n,
            seed=self.seed,
            town_config=self.town,
            weather=self.weather,
            n_npc_vehicles=self.n_npc_vehicles,
            n_pedestrians=self.n_pedestrians,
            min_distance=self.min_distance,
            max_distance=self.max_distance,
        )

    def to_dict(self) -> dict:
        """JSON form (one of ``generate``/``explicit``/``grammar``)."""
        if self.scenarios is not None:
            return {"explicit": [s.to_dict() for s in self.scenarios]}
        if self.grammar is not None:
            return {"grammar": self.grammar.to_dict()}
        # Numeric fields are coerced to their canonical JSON type (60 and
        # 60.0 compare equal but serialise differently), so equal suites
        # always emit identical JSON and CampaignSpec.hash() is stable.
        return {
            "generate": {
                "n": int(self.n),
                "seed": int(self.seed),
                "weather": str(self.weather),
                "n_npc_vehicles": int(self.n_npc_vehicles),
                "n_pedestrians": int(self.n_pedestrians),
                "min_distance": float(self.min_distance),
                "max_distance": float(self.max_distance),
                "town": town_config_to_dict(self.town),
            }
        }

    @classmethod
    def from_dict(cls, data, path: str = "spec.scenarios") -> "ScenarioSuiteSpec":
        """Parse and validate a suite spec."""
        data = _expect_object(data, path)
        _reject_unknown(data, {"generate", "explicit", "grammar"}, path)
        present = [k for k in ("generate", "explicit", "grammar") if k in data]
        if len(present) != 1:
            raise SpecError(
                path, "needs exactly one of 'generate', 'explicit' or 'grammar'"
            )
        if "grammar" in data:
            try:
                grammar = ScenarioGrammar.from_dict(
                    data["grammar"], f"{path}.grammar"
                )
            except GrammarError as exc:
                raise SpecError(exc.path, exc.message) from None
            return cls(grammar=grammar)
        if "explicit" in data:
            rows = data["explicit"]
            if not isinstance(rows, list) or not rows:
                raise SpecError(
                    f"{path}.explicit", "expected a non-empty array of scenarios"
                )
            scenarios = []
            for i, row in enumerate(rows):
                try:
                    scenarios.append(Scenario.from_dict(row))
                except (TypeError, ValueError) as exc:
                    raise SpecError(f"{path}.explicit[{i}]", str(exc)) from None
            return cls(scenarios=scenarios)
        gen = _expect_object(data["generate"], f"{path}.generate")
        _reject_unknown(
            gen,
            {
                "n",
                "seed",
                "weather",
                "n_npc_vehicles",
                "n_pedestrians",
                "min_distance",
                "max_distance",
                "town",
            },
            f"{path}.generate",
        )
        town_data = gen.get("town")
        if town_data is not None:
            town_data = _expect_object(town_data, f"{path}.generate.town")
            try:
                town = GridTownConfig(**town_data)
            except (TypeError, ValueError) as exc:
                raise SpecError(f"{path}.generate.town", str(exc)) from None
        else:
            town = GridTownConfig()
        try:
            return cls(
                n=int(gen.get("n", 4)),
                seed=int(gen.get("seed", 0)),
                weather=str(gen.get("weather", "ClearNoon")),
                n_npc_vehicles=int(gen.get("n_npc_vehicles", 0)),
                n_pedestrians=int(gen.get("n_pedestrians", 0)),
                min_distance=float(gen.get("min_distance", 100.0)),
                max_distance=float(gen.get("max_distance", 400.0)),
                town=town,
            )
        except (TypeError, ValueError) as exc:
            raise SpecError(f"{path}.generate", str(exc)) from None


@dataclass
class AgentSpec:
    """A named agent from the registry, plus its builder params."""

    name: str = "autopilot"
    params: dict = field(default_factory=dict)

    def build(self):
        """Resolve through :func:`repro.agent.agents.make_agent_factory`."""
        from ..agent.agents import make_agent_factory  # deferred: heavy

        try:
            return make_agent_factory(self.name, **self.params)
        except KeyError as exc:
            raise SpecError("spec.agent.name", str(exc.args[0])) from None
        except TypeError as exc:
            raise SpecError(
                "spec.agent.params", f"bad params for agent {self.name!r}: {exc}"
            ) from None

    def to_dict(self) -> dict:
        """JSON-serialisable form."""
        return {"name": self.name, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data, path: str = "spec.agent") -> "AgentSpec":
        """Parse and validate (agent name checked against the registry)."""
        from ..agent.agents import AGENT_REGISTRY  # deferred: heavy

        data = _expect_object(data, path)
        _reject_unknown(data, {"name", "params"}, path)
        name = data.get("name")
        if not isinstance(name, str) or not name:
            raise SpecError(f"{path}.name", "expected a non-empty agent name")
        if name not in AGENT_REGISTRY:
            known = ", ".join(sorted(AGENT_REGISTRY))
            raise SpecError(
                f"{path}.name", f"unknown agent {name!r}; registered agents: {known}"
            )
        params = data.get("params")
        if params is None:
            params = {}
        params = _expect_object(params, f"{path}.params")
        return cls(name=name, params=dict(params))


@dataclass
class ExecutionSpec:
    """How to execute the campaign — every field CLI-overridable."""

    base_seed: int = 0
    workers: int | None = None
    backend: str | None = None
    queue_dir: str | None = None
    lease_s: float | None = None
    checkpoint: str | None = None
    #: Live episodes per multiplexed slot (``backend="multiplexed"``, or
    #: process/queue workers each draining a slot).  ``None`` = backend
    #: default; 1 = classic one-episode-at-a-time execution.
    episodes_per_slot: int | None = None
    #: Retry/timeout/quarantine policy all executors honour (``None`` =
    #: defaults: one attempt, no timeout, abort on first failure).
    fault_tolerance: FaultTolerancePolicy | None = None

    _BACKENDS = (None, "serial", "process", "queue", "multiplexed")

    def __post_init__(self) -> None:
        if self.backend not in self._BACKENDS:
            raise SpecError(
                "spec.execution.backend",
                f"unknown backend {self.backend!r} "
                f"(expected one of 'serial', 'process', 'queue', 'multiplexed')",
            )
        if self.workers is not None and self.workers < 0:
            raise SpecError("spec.execution.workers", "must be >= 0")
        if self.lease_s is not None:
            try:
                check_lease_s(self.lease_s)
            except ValueError as exc:
                raise SpecError("spec.execution.lease_s", str(exc)) from None
        if self.episodes_per_slot is not None and self.episodes_per_slot < 1:
            raise SpecError("spec.execution.episodes_per_slot", "must be >= 1")

    def to_dict(self) -> dict:
        """JSON-serialisable form."""
        return {
            "base_seed": int(self.base_seed),
            "workers": int(self.workers) if self.workers is not None else None,
            "backend": self.backend,
            "queue_dir": str(self.queue_dir) if self.queue_dir is not None else None,
            "lease_s": float(self.lease_s) if self.lease_s is not None else None,
            "checkpoint": str(self.checkpoint) if self.checkpoint is not None else None,
            # Reserved: the parquet sink was removed.  Still written, as
            # null, so every spec serialised before keeps its bytes and
            # its hash.
            "parquet": None,
            "episodes_per_slot": (
                int(self.episodes_per_slot)
                if self.episodes_per_slot is not None
                else None
            ),
            "fault_tolerance": (
                self.fault_tolerance.to_dict()
                if self.fault_tolerance is not None
                else None
            ),
        }

    def resolve(self, **overrides) -> dict:
        """The effective execution options, keyed as
        :class:`~repro.core.runner.Campaign`'s keyword arguments (the
        spec's ``backend`` is the campaign's ``executor``).

        Every non-``None`` override (the ``avfi run`` flags) wins over
        the spec's field.  A queue directory — from the spec or an
        override — selects the queue backend even when the spec pinned
        another one: the same archived spec must shard across machines
        when handed a ``--queue-dir``.
        """
        options = {
            "workers": self.workers,
            "executor": self.backend,
            "queue_dir": self.queue_dir,
            "lease_s": self.lease_s,
            "checkpoint_path": self.checkpoint,
            "fault_tolerance": self.fault_tolerance,
            "episodes_per_slot": self.episodes_per_slot,
        }
        options.update({k: v for k, v in overrides.items() if v is not None})
        if options["queue_dir"] is not None:
            options["executor"] = "queue"
        return options

    @classmethod
    def from_dict(cls, data, path: str = "spec.execution") -> "ExecutionSpec":
        """Parse and validate."""
        data = _expect_object(data, path)
        _reject_unknown(
            data,
            {
                "base_seed",
                "workers",
                "backend",
                "queue_dir",
                "lease_s",
                "checkpoint",
                "parquet",
                "episodes_per_slot",
                "fault_tolerance",
            },
            path,
        )

        # Strict types, matching Trigger.from_dict: "workers": "2" or
        # 2.9 must fail at load time, not run with silently coerced
        # execution settings.
        def integer(key, default):
            value = data.get(key, default)
            if value is not None and (
                not isinstance(value, int) or isinstance(value, bool)
            ):
                raise SpecError(f"{path}.{key}", f"must be an integer, got {value!r}")
            return value

        def number(key):
            value = data.get(key)
            if value is not None and (
                not isinstance(value, (int, float)) or isinstance(value, bool)
            ):
                raise SpecError(f"{path}.{key}", f"must be a number, got {value!r}")
            return float(value) if value is not None else None

        def string(key):
            value = data.get(key)
            if value is not None and not isinstance(value, str):
                raise SpecError(f"{path}.{key}", f"must be a string, got {value!r}")
            return value

        if data.get("parquet") is not None:
            raise SpecError(
                f"{path}.parquet",
                "must be null: the parquet sink was removed; the JSONL "
                "checkpoint (execution.checkpoint) holds every result",
            )
        fault_tolerance = data.get("fault_tolerance")
        if fault_tolerance is not None:
            try:
                fault_tolerance = FaultTolerancePolicy.from_dict(fault_tolerance)
            except (TypeError, ValueError) as exc:
                raise SpecError(f"{path}.fault_tolerance", str(exc))
        return cls(
            base_seed=integer("base_seed", 0),
            workers=integer("workers", None),
            backend=string("backend"),
            queue_dir=string("queue_dir"),
            lease_s=number("lease_s"),
            checkpoint=string("checkpoint"),
            episodes_per_slot=integer("episodes_per_slot", None),
            fault_tolerance=fault_tolerance,
        )


@dataclass
class CompoundInjectorSpec:
    """A generator entry in the injector table: compound faults as data.

    Where a plain injector entry is one literal fault list, a compound
    entry declares **pools** of candidate faults and expands into one
    compound injector per combination (one fault drawn from each pool):

    * ``mode="cartesian"`` — every combination in the cartesian product
      of the pools, in pool order (the full pairing grid over the
      registered catalog fits in one three-line spec entry);
    * ``mode="sample"`` — a seeded, order-stable sample of ``n_samples``
      distinct combinations from that product, for when the full product
      (24 faults squared and up) is more grid than the compute budget.

    Expanded names are ``<entry>:<fault>+<fault>...`` — the entry name
    plus the combination's fault names joined with ``+`` — so records
    and metrics tables self-describe their fault-set composition.
    Combinations that would pair a pool fault with *itself* (the same
    object appearing in overlapping pools) are skipped; every emitted
    fault list holds deep copies, so each expanded injector owns
    independent fault state (a requirement of
    :class:`~repro.core.injector.InjectionHarness`, which rejects shared
    instances).
    """

    pools: list[list[FaultModel]] = field(default_factory=list)
    mode: str = "cartesian"
    n_samples: int | None = None
    seed: int = 0

    _MODES = ("cartesian", "sample")

    def __post_init__(self) -> None:
        if self.mode not in self._MODES:
            raise SpecError(
                "spec.injectors[...].compound.mode",
                f"unknown mode {self.mode!r} (expected 'cartesian' or 'sample')",
            )
        if not self.pools or any(not pool for pool in self.pools):
            raise SpecError(
                "spec.injectors[...].compound.pools",
                "needs at least one non-empty pool of faults",
            )
        if self.mode == "sample":
            if self.n_samples is None or self.n_samples < 1:
                raise SpecError(
                    "spec.injectors[...].compound.n_samples",
                    "sample mode needs n_samples >= 1",
                )

    def combinations(self) -> list[tuple[FaultModel, ...]]:
        """The concrete combination list (pool order; self-pairs skipped).

        In sample mode the subset is drawn without replacement by a
        dedicated :class:`random.Random` seeded from ``seed``, so the
        same spec always expands to the same grid on every machine —
        the paired-design guarantee extends to sampled compound grids.
        """
        combos = [
            combo
            for combo in itertools.product(*self.pools)
            if len({id(f) for f in combo}) == len(combo)
        ]
        if self.mode == "sample":
            if self.n_samples >= len(combos):
                return combos
            picks = sorted(
                random.Random(self.seed).sample(range(len(combos)), self.n_samples)
            )
            return [combos[i] for i in picks]
        return combos

    def expand(self, entry_name: str) -> list[tuple[str, list[FaultModel]]]:
        """``(injector_name, fault_list)`` pairs, deep-copied per combo."""
        out = []
        for combo in self.combinations():
            name = f"{entry_name}:" + "+".join(f.name for f in combo)
            out.append((name, [copy.deepcopy(f) for f in combo]))
        return out

    def to_dict(self) -> dict:
        """JSON form: ``{"compound": {...}}`` (vs a plain fault array)."""
        body = {
            "mode": self.mode,
            "pools": [[f.to_config() for f in pool] for pool in self.pools],
            "seed": int(self.seed),
        }
        if self.n_samples is not None:
            body["n_samples"] = int(self.n_samples)
        return {"compound": body}

    @classmethod
    def from_dict(cls, data, path: str) -> "CompoundInjectorSpec":
        """Parse and validate one compound entry."""
        data = _expect_object(data, path)
        _reject_unknown(data, {"compound"}, path)
        if "compound" not in data:
            raise SpecError(path, "expected a 'compound' object")
        body = _expect_object(data["compound"], f"{path}.compound")
        _reject_unknown(
            body, {"mode", "pools", "n_samples", "seed"}, f"{path}.compound"
        )
        mode = body.get("mode", "cartesian")
        if not isinstance(mode, str):
            raise SpecError(f"{path}.compound.mode", f"must be a string, got {mode!r}")
        pools_data = body.get("pools")
        if not isinstance(pools_data, list) or not pools_data:
            raise SpecError(
                f"{path}.compound.pools", "expected a non-empty array of fault pools"
            )
        pools: list[list[FaultModel]] = []
        for i, pool_data in enumerate(pools_data):
            if not isinstance(pool_data, list) or not pool_data:
                raise SpecError(
                    f"{path}.compound.pools[{i}]",
                    "expected a non-empty array of fault configs",
                )
            pool = []
            for j, config in enumerate(pool_data):
                try:
                    pool.append(FaultModel.from_config(config))
                except (KeyError, TypeError, ValueError) as exc:
                    message = exc.args[0] if exc.args else str(exc)
                    raise SpecError(
                        f"{path}.compound.pools[{i}][{j}]", str(message)
                    ) from None
            pools.append(pool)
        n_samples = body.get("n_samples")
        if n_samples is not None and (
            not isinstance(n_samples, int) or isinstance(n_samples, bool)
        ):
            raise SpecError(
                f"{path}.compound.n_samples",
                f"must be an integer, got {n_samples!r}",
            )
        seed = body.get("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise SpecError(
                f"{path}.compound.seed", f"must be an integer, got {seed!r}"
            )
        try:
            return cls(pools=pools, mode=mode, n_samples=n_samples, seed=seed)
        except SpecError as exc:
            # Re-anchor the generic __post_init__ path at this entry.
            raise SpecError(f"{path}.compound", exc.message) from None


@dataclass
class CampaignSpec:
    """The complete, serialisable definition of a campaign.

    Holds *live* fault models and a live builder (constructed eagerly by
    :meth:`from_dict`, so a broken spec fails at load time with a path
    into the JSON, not mid-campaign); :meth:`to_dict` serialises them
    back through their config round-trips.  Build the runnable campaign
    with :meth:`~repro.core.runner.Campaign.from_spec`.
    """

    scenarios: ScenarioSuiteSpec = field(default_factory=ScenarioSuiteSpec)
    agent: AgentSpec = field(default_factory=AgentSpec)
    #: Injector table: each entry is either a literal fault list or a
    #: :class:`CompoundInjectorSpec` generator that expands into many.
    injectors: dict[str, list[FaultModel] | CompoundInjectorSpec] = field(
        default_factory=lambda: {"none": []}
    )
    builder: SimulationBuilder | None = None
    execution: ExecutionSpec = field(default_factory=ExecutionSpec)
    name: str = "campaign"

    def __post_init__(self) -> None:
        if not self.injectors:
            raise SpecError(
                "spec.injectors", "needs at least one injector (use {'none': []})"
            )

    def build_builder(self) -> SimulationBuilder:
        """The simulation builder (spec's own, or the default)."""
        return self.builder if self.builder is not None else SimulationBuilder()

    def expanded_injectors(self) -> dict[str, list[FaultModel]]:
        """The concrete injector grid, compound entries expanded.

        Literal entries pass through under their own names; each
        :class:`CompoundInjectorSpec` entry contributes one injector per
        combination, named ``<entry>:<fault>+<fault>``.  Name collisions
        (two combinations whose fault names coincide, or an expanded
        name matching a literal entry) are disambiguated with a ``#n``
        suffix in expansion order, so the grid size always equals the
        declared combination count.  This is the *single* expansion
        point — ``Campaign.from_spec`` and the CLI
        all call it, so every consumer sees the identical grid in the
        identical order (checkpoint identity depends on that ordering).
        """
        out: dict[str, list[FaultModel]] = {}

        def place(name: str, faults: list[FaultModel]) -> None:
            if name in out:
                n = 2
                while f"{name}#{n}" in out:
                    n += 1
                name = f"{name}#{n}"
            out[name] = faults

        for entry_name, entry in self.injectors.items():
            if isinstance(entry, CompoundInjectorSpec):
                for name, faults in entry.expand(entry_name):
                    place(name, faults)
            else:
                place(entry_name, list(entry))
        return out

    def to_dict(self) -> dict:
        """The JSON form — stable under ``from_dict(to_dict())``."""
        return {
            "schema_version": SPEC_SCHEMA_VERSION,
            "name": self.name,
            "scenarios": self.scenarios.to_dict(),
            "agent": self.agent.to_dict(),
            "injectors": {
                name: (
                    entry.to_dict()
                    if isinstance(entry, CompoundInjectorSpec)
                    else [fault.to_config() for fault in entry]
                )
                for name, entry in self.injectors.items()
            },
            "builder": self.builder.to_config() if self.builder is not None else None,
            "execution": self.execution.to_dict(),
        }

    @classmethod
    def from_dict(cls, data) -> "CampaignSpec":
        """Parse and validate a spec (schema version first)."""
        data = _expect_object(data, "spec")
        version = data.get("schema_version")
        if version is None:
            raise SpecError(
                "spec.schema_version",
                f"missing (this repro writes version {SPEC_SCHEMA_VERSION})",
            )
        if not isinstance(version, int) or version < 1:
            raise SpecError(
                "spec.schema_version", f"expected a positive integer, got {version!r}"
            )
        if version > SPEC_SCHEMA_VERSION:
            raise SpecError(
                "spec.schema_version",
                f"spec is version {version} but this repro only understands "
                f"<= {SPEC_SCHEMA_VERSION}; upgrade repro or re-emit the spec",
            )
        _reject_unknown(
            data,
            {
                "schema_version",
                "name",
                "scenarios",
                "agent",
                "injectors",
                "builder",
                "execution",
            },
            "spec",
        )
        injectors_data = data.get("injectors")
        if injectors_data is None:
            raise SpecError("spec.injectors", "missing")
        injectors_data = _expect_object(injectors_data, "spec.injectors")
        if not injectors_data:
            raise SpecError(
                "spec.injectors", "needs at least one injector (use {'none': []})"
            )
        injectors: dict[str, list[FaultModel] | CompoundInjectorSpec] = {}
        for inj_name, fault_configs in injectors_data.items():
            entry_path = f"spec.injectors[{inj_name!r}]"
            if isinstance(fault_configs, dict):
                injectors[inj_name] = CompoundInjectorSpec.from_dict(
                    fault_configs, entry_path
                )
                continue
            if not isinstance(fault_configs, list):
                raise SpecError(
                    entry_path,
                    f"expected an array of fault configs or a compound "
                    f"object, got {type(fault_configs).__name__}",
                )
            faults = []
            for i, config in enumerate(fault_configs):
                try:
                    faults.append(FaultModel.from_config(config))
                except (KeyError, TypeError, ValueError) as exc:
                    message = exc.args[0] if exc.args else str(exc)
                    raise SpecError(f"{entry_path}[{i}]", str(message)) from None
            injectors[inj_name] = faults
        builder_data = data.get("builder")
        if builder_data is not None:
            try:
                builder = SimulationBuilder.from_config(builder_data)
            except (TypeError, ValueError) as exc:
                raise SpecError("spec.builder", str(exc)) from None
        else:
            builder = None
        scenarios_data = data.get("scenarios")
        scenarios = (
            ScenarioSuiteSpec.from_dict(scenarios_data)
            if scenarios_data is not None
            else ScenarioSuiteSpec()
        )
        agent_data = data.get("agent")
        agent = AgentSpec.from_dict(agent_data) if agent_data is not None else AgentSpec()
        execution_data = data.get("execution")
        execution = (
            ExecutionSpec.from_dict(execution_data)
            if execution_data is not None
            else ExecutionSpec()
        )
        name = data.get("name", "campaign")
        if not isinstance(name, str) or not name:
            raise SpecError("spec.name", "expected a non-empty string")
        return cls(
            scenarios=scenarios,
            agent=agent,
            injectors=injectors,
            builder=builder,
            execution=execution,
            name=name,
        )

    def hash(self) -> str:
        """Stable content hash of the full spec (archival, manifests).

        Canonical-JSON (sorted keys) SHA-1 — equal for equal specs across
        processes and machines.  Checkpoint identity does *not* use this
        directly: episode fingerprints derive from the built components
        (see :func:`~repro.core.campaign.episode_fingerprint`), which is
        what keeps spec-driven and programmatic runs byte-identical.
        """
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha1(canonical.encode()).hexdigest()[:12]


def load_spec(path: str | Path) -> CampaignSpec:
    """Read and validate a spec file written by :func:`save_spec`."""
    path = Path(path)
    try:
        text = path.read_text()
    except FileNotFoundError:
        raise SpecError(str(path), "no such spec file") from None
    except IsADirectoryError:
        raise SpecError(str(path), "is a directory, not a spec file") from None
    return parse_spec(text, source=str(path))


def parse_spec(text: str, source: str = "<spec>") -> CampaignSpec:
    """Parse spec JSON text (shared by :func:`load_spec` and stdin)."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(source, f"not valid JSON: {exc}") from None
    return CampaignSpec.from_dict(data)


def save_spec(spec: CampaignSpec, path: str | Path) -> None:
    """Write ``spec`` as readable, diff-friendly JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(spec.to_dict(), indent=2) + "\n")
