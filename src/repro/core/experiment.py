"""Higher-level experiment orchestration: sweeps and resumable studies.

A :class:`Campaign` runs one set of named injectors; a *study* is what a
paper section needs — parameter sweeps over a fault model, factor grids,
resumable execution and exportable summaries.  This module provides that
layer:

* :func:`sweep` — one fault class swept over a parameter
  (``OutputDelay`` over ``delay_frames`` is exactly fig. 4);
* :class:`Study` — a named collection of injector configurations executed
  with a paired scenario design, checkpointing records to disk after
  every episode so an interrupted overnight run resumes where it stopped;
* :func:`summary_frame` — flat list-of-dict export of the per-injector
  metrics (ready for csv/json serialisation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from ..sim.builders import SimulationBuilder
from ..sim.scenario import Scenario
from .campaign import RunRecord
from .faults.base import FaultModel
from .metrics import ResilienceMetrics, metrics_by_injector
from .outcomes import FaultTolerancePolicy
from .runner import ParallelCampaignRunner, load_checkpoint_rows

__all__ = ["sweep", "Study", "summary_frame"]


def sweep(
    fault_factory: Callable[[float], FaultModel],
    values: Sequence[float],
    name_format: str = "{value}",
    include_baseline: bool = True,
) -> dict[str, list[FaultModel]]:
    """Build an injector dict sweeping one fault parameter.

    ``fault_factory`` maps each value to a fresh fault model.  Example::

        injectors = sweep(lambda k: OutputDelay(int(k)), [5, 10, 20, 30],
                          name_format="delay-{value:g}")

    Two values formatting to the same injector name (a constant
    ``name_format``, rounded floats like ``0.30001`` vs ``0.3`` under
    ``{value:.1f}``) would silently overwrite one sweep point with
    another; that collision raises a ``ValueError`` instead.
    """
    injectors: dict[str, list[FaultModel]] = {}
    if include_baseline:
        injectors["none"] = []
    for value in values:
        name = name_format.format(value=value)
        if name in injectors:
            raise ValueError(
                f"sweep name collision: value {value!r} formats to {name!r}, "
                f"which is already taken (name_format={name_format!r}); use a "
                f"format that distinguishes every swept value"
            )
        injectors[name] = [fault_factory(value)]
    return injectors


@dataclass
class Study:
    """A resumable fault-injection study.

    Episodes are identified by ``(injector, scenario, seed)`` plus a
    configuration fingerprint (see
    :func:`~repro.core.campaign.episode_fingerprint`); records are
    appended to ``checkpoint_path`` (JSON lines) as they complete, and
    :meth:`run` skips identities already present — re-running a partially
    completed study only executes the remainder, while a checkpoint from
    a *different* suite never matches and re-runs.
    """

    scenarios: Sequence[Scenario]
    agent_factory: Callable
    injectors: dict[str, Sequence[FaultModel]]
    checkpoint_path: Path | str | None = None
    builder: SimulationBuilder = field(default_factory=SimulationBuilder)
    base_seed: int = 0
    verbose: bool = False
    #: Retry/timeout/quarantine policy forwarded to the runner
    #: (:class:`~repro.core.outcomes.FaultTolerancePolicy`); ``None``
    #: keeps the defaults (abort on first failure).
    fault_tolerance: FaultTolerancePolicy | None = None
    #: The CampaignSpec this study was built from (:meth:`from_spec`);
    #: forwarded to queue brokers as their archived ``spec.json``.
    spec: object | None = None

    @classmethod
    def from_spec(
        cls,
        spec,
        *,
        checkpoint_path: Path | str | None = None,
        verbose: bool = False,
    ) -> "Study":
        """Build a resumable study from a
        :class:`~repro.core.spec.CampaignSpec`.

        ``checkpoint_path`` overrides the spec's
        ``execution.checkpoint``; fault models are deep-copied out of
        the spec (see :meth:`~repro.core.campaign.Campaign.from_spec`).
        The spec's remaining execution options (workers, backend,
        queue_dir, lease, parquet sink, slot size) become :meth:`run`'s
        defaults.
        """
        import copy

        execution = spec.execution.resolve(checkpoint_path=checkpoint_path)
        return cls(
            spec.scenarios.build(),
            spec.agent.build(),
            {
                name: [copy.deepcopy(fault) for fault in faults]
                for name, faults in spec.expanded_injectors().items()
            },
            checkpoint_path=execution["checkpoint_path"],
            builder=spec.build_builder(),
            base_seed=spec.execution.base_seed,
            verbose=verbose,
            fault_tolerance=execution["fault_tolerance"],
            spec=spec,
        )

    def __post_init__(self) -> None:
        if not self.scenarios:
            raise ValueError("study needs at least one scenario")
        if not self.injectors:
            raise ValueError("study needs at least one injector")
        if self.checkpoint_path is not None:
            self.checkpoint_path = Path(self.checkpoint_path)
        self.records, self.failures = load_checkpoint_rows(self.checkpoint_path)
        if self.records or self.failures:
            # Keep only rows that belong to this study's episode grid;
            # rows from another suite (or pre-fingerprint rows) would
            # otherwise pollute metrics() and duplicate after re-runs.
            runner = self._runner()
            self.records = runner.grid_records()
            self.failures = runner.grid_failures()

    def _runner(
        self,
        workers: int | None = None,
        backend=None,
        queue_dir=None,
        lease_s=None,
        parquet_path=None,
        episodes_per_slot: int | None = None,
    ) -> ParallelCampaignRunner:
        return ParallelCampaignRunner(
            self.scenarios,
            self.agent_factory,
            self.injectors,
            builder=self.builder,
            base_seed=self.base_seed,
            workers=workers,
            executor=backend,
            queue_dir=queue_dir,
            lease_s=lease_s,
            checkpoint_path=self.checkpoint_path,
            parquet_path=parquet_path,
            episodes_per_slot=episodes_per_slot,
            # self.records/failures already hold the checkpoint contents
            # (loaded once in __post_init__) plus anything run since;
            # handing them over avoids re-parsing the JSONL on every
            # pending()/run() — and keeps quarantined episodes counted
            # as done rather than re-running them each resume.
            resume_records=self.records,
            resume_failures=self.failures,
            policy=self.fault_tolerance,
            spec=self.spec.to_dict() if self.spec is not None else None,
            verbose=self.verbose,
            label="study",
        )

    def pending(self) -> list[tuple[str, Scenario, int]]:
        """The (injector, scenario, seed) triples still to execute."""
        return [(t.injector, t.scenario, t.seed) for t in self._runner().pending()]

    def run(
        self,
        workers: int | None = None,
        executor=None,
        queue_dir=None,
        lease_s=None,
    ) -> list[RunRecord]:
        """Execute every pending episode; returns the study's records.

        One record per completed grid episode (resumed + fresh), in grid
        order; checkpoint rows from a different suite are ignored rather
        than double-counted.  ``workers`` > 1 distributes pending episodes
        over a process pool (see
        :class:`~repro.core.runner.ParallelCampaignRunner`); records still
        stream to the checkpoint as each episode completes, so an
        interrupted parallel study resumes exactly like a serial one.

        A ``queue_dir`` (optionally with ``executor="queue"``) shards the
        pending episodes across machines through the distributed work
        queue; when the study has its own ``checkpoint_path``, records
        are mirrored into it as the coordinator folds them back, so study
        resume semantics are unchanged.

        For a spec-built study (:meth:`from_spec`), arguments left
        ``None`` default to the spec's execution options — a spec
        declaring ``workers: 8`` or the queue backend runs that way
        without repeating it here.
        """
        options = {
            "workers": workers,
            "backend": executor,
            "queue_dir": queue_dir,
            "lease_s": lease_s,
        }
        if self.spec is not None:
            options = self.spec.execution.resolve(**options)
            # The study's own fields own the checkpoint and the policy.
            del options["checkpoint_path"], options["fault_tolerance"]
        runner = self._runner(**options)
        try:
            runner.run()
        finally:
            # Keep whatever completed even when an episode (or the pool)
            # raised, so a retry only executes the remainder.
            self.records = runner.grid_records()
            self.failures = runner.grid_failures()
        return list(self.records)

    def metrics(self) -> dict[str, ResilienceMetrics]:
        """Per-injector metrics over all completed records (quarantined
        episodes surface as per-injector failure counts, never as data)."""
        return metrics_by_injector(list(self.records) + list(self.failures))


def summary_frame(records: Sequence[RunRecord]) -> list[dict]:
    """Flat per-injector summary rows (json/csv-ready).

    One dict per injector with the paper's metrics plus run counts; the
    row ordering follows first appearance in ``records``.
    """
    rows = []
    for name, m in metrics_by_injector(records).items():
        rows.append(
            {
                "injector": name,
                "runs": m.n_runs,
                "msr_percent": round(m.msr, 2),
                "vpk": round(m.vpk, 3),
                "apk": round(m.apk, 3),
                "ttv_median_s": round(m.ttv_median_s, 3) if m.ttv_s else None,
                "total_km": round(m.total_km, 3),
                "total_violations": m.total_violations,
                "total_accidents": m.total_accidents,
            }
        )
    return rows
