"""Episode-multiplexed execution: many live episodes in one process.

Campaign episodes are independent, but each one spends most of its frame
budget in the same vectorised sensing kernels (ground-pass gather,
billboard projection, LIDAR ray casting) on small per-episode arrays.
The :class:`EpisodeMultiplexer` exploits that: it keeps up to
``episodes_per_slot`` :class:`~repro.core.campaign.EpisodeDriver` state
machines live at once, round-robins them at *tick* granularity, and runs
the sensing phase of all live episodes through one cross-episode batched
dispatch (:func:`~repro.sim.sensors.read_frames_batch`) — per-frame numpy
fixed costs amortise across episodes while everything order-sensitive
(per-episode RNG streams, paint order, channel delivery) stays exactly
the serial computation.

The hard invariant, inherited from the rest of the execution stack:
multiplexed output is **byte-identical** to the serial path.  That holds
because (a) every episode owns its world RNG and the drivers interleave
whole phases, never draws; (b) serial sensing runs the same batched
kernels with a slot of one, and they are elementwise over the episode
axis, so an episode's bits never depend on its slot neighbours; and
(c) anything that *cannot* be safely interleaved falls back to the
canonical serial :func:`~repro.core.runner.attempt_task` path:

- tasks whose fault set contains a
  :class:`~repro.core.faults.base.ModelFault` (they mutate agent model
  weights in place, and agent factories may share one model across
  episodes — concurrent live episodes would cross-contaminate);
- any run under a wall-clock ``timeout_s`` policy (tick-interleaved
  episodes cannot be individually sandboxed);
- any episode whose driver raises mid-flight (the partial run is
  discarded and the task re-runs from scratch serially, preserving retry
  accounting).

:class:`MultiplexedExecutor` wraps the multiplexer in the executor
protocol (same budget/quarantine semantics as
:class:`~repro.core.runner.SerialExecutor`), and
:func:`_run_mux_chunk` is the process-pool worker entry point that lets
``backend="process"`` and the queue workers drain whole multiplexed
slots.
"""

from __future__ import annotations

import copy
import pickle
from typing import Iterator, Sequence

from ..sim.sensors import read_frames_batch
from .campaign import EpisodeDriver, RunRecord
from .faults.base import ModelFault
from .outcomes import EpisodeFailure, EpisodeOutcome, FaultTolerancePolicy
from .runner import (
    CampaignContext,
    EpisodeTask,
    _FailureBudget,
    attempt_task,
    context_policy,
)

__all__ = [
    "DEFAULT_EPISODES_PER_SLOT",
    "EpisodeMultiplexer",
    "MultiplexedExecutor",
    "multiplex_slot_size",
]

#: Slot size when the multiplexed backend is selected without an explicit
#: ``episodes_per_slot``: enough episodes to amortise per-frame numpy
#: dispatch without inflating peak memory (each live episode holds a full
#: world + agent).
DEFAULT_EPISODES_PER_SLOT = 4


def multiplex_slot_size(context: CampaignContext) -> int:
    """The context's live-episode slot size (``getattr`` so contexts
    pickled by older versions, which lack the field, keep working)."""
    return max(1, int(getattr(context, "episodes_per_slot", 1) or 1))


class EpisodeMultiplexer:
    """Round-robins up to E live episode drivers at tick granularity.

    ``run`` yields ``(task, RunRecord | EpisodeFailure)`` pairs as
    episodes finish (completion order; the campaign runner re-orders).
    Construction is cheap — all state lives per :meth:`run` call.
    """

    def __init__(
        self,
        context: CampaignContext,
        episodes_per_slot: int | None = None,
        policy: FaultTolerancePolicy | None = None,
    ):
        self.context = context
        self.episodes_per_slot = (
            episodes_per_slot
            if episodes_per_slot is not None
            else multiplex_slot_size(context)
        )
        if self.episodes_per_slot < 1:
            raise ValueError(
                f"episodes_per_slot must be >= 1 (got {self.episodes_per_slot})"
            )
        self.policy = policy if policy is not None else context_policy(context)

    # -- task routing ---------------------------------------------------
    def _multiplexable(self, task: EpisodeTask) -> bool:
        # ModelFaults mutate the agent's model in place, and agent
        # factories (the NN one) may share a single model across all the
        # episodes they build — two live episodes flipping bits in the
        # same weight tensors would cross-contaminate.  Serial execution
        # is safe because the harness restores/resets between episodes.
        return not any(
            isinstance(fault, ModelFault)
            for fault in self.context.injectors[task.injector]
        )

    def _drive_serial(self, task: EpisodeTask) -> RunRecord | EpisodeFailure:
        """The canonical single-episode path (retries, accounting)."""
        return attempt_task(self.context, task, self.policy)

    def _make_driver(self, task: EpisodeTask) -> EpisodeDriver:
        # The context's injector table shares fault objects across tasks;
        # the serial path runs them one episode at a time, so sharing is
        # safe there — live *concurrent* episodes each need private
        # copies (they already pickle for the process executor, so the
        # deepcopy is always possible).  The harness resets fault state
        # on attach, so a copy behaves exactly like the shared original.
        faults = copy.deepcopy(self.context.injectors[task.injector])
        return EpisodeDriver(
            self.context.builder,
            task.scenario,
            self.context.agent_factory,
            faults=faults,
            injector_name=task.injector,
            harness_seed=task.seed,
            config_fingerprint=task.fingerprint or None,
        )

    # -- execution ------------------------------------------------------
    def run(
        self, tasks: Sequence[EpisodeTask]
    ) -> Iterator[tuple[EpisodeTask, RunRecord | EpisodeFailure]]:
        """Execute ``tasks``, yielding outcomes as episodes finish."""
        pending = list(tasks)
        if self.episodes_per_slot <= 1 or self.policy.timeout_s is not None:
            # A one-episode slot is just the serial loop; and a per-episode
            # wall-clock sandbox cannot be enforced at tick granularity,
            # so a timeout policy always takes the sandboxed serial path.
            for task in pending:
                yield task, self._drive_serial(task)
            return
        pending.reverse()  # pop() consumes in the given order
        live: list[tuple[EpisodeTask, EpisodeDriver]] = []
        open_drivers: set[EpisodeDriver] = set()

        def close_driver(driver: EpisodeDriver) -> None:
            open_drivers.discard(driver)
            driver.close()

        try:
            while pending or live:
                # Refill the slot from the pending queue.
                while len(live) < self.episodes_per_slot and pending:
                    task = pending.pop()
                    if not self._multiplexable(task):
                        yield task, self._drive_serial(task)
                        continue
                    driver = self._make_driver(task)
                    open_drivers.add(driver)
                    try:
                        driver.setup()
                        driver.start()
                    except Exception:
                        # Discard the partial episode; the serial path
                        # owns retries and failure accounting.
                        close_driver(driver)
                        yield task, self._drive_serial(task)
                        continue
                    live.append((task, driver))
                if not live:
                    continue  # everything left routed serially

                # Retire finished episodes before stepping the rest.
                active: list[tuple[EpisodeTask, EpisodeDriver]] = []
                for task, driver in live:
                    if driver.begin_frame():
                        active.append((task, driver))
                        continue
                    try:
                        record = driver.finalize()
                        close_driver(driver)
                        yield task, record
                    except Exception:
                        close_driver(driver)
                        yield task, self._drive_serial(task)

                # One multiplexed tick: whole phases interleave, so each
                # episode's RNG draw order matches the serial loop.
                broken: list[tuple[EpisodeTask, EpisodeDriver]] = []
                stepped: list[tuple[EpisodeTask, EpisodeDriver]] = []
                for task, driver in active:
                    try:
                        driver.step_client()
                        driver.step_world()
                        stepped.append((task, driver))
                    except Exception:
                        broken.append((task, driver))
                bundles = []
                if stepped:
                    try:
                        bundles = read_frames_batch(
                            [
                                (d.handles.sensors, d.world, d.ego, d.world.frame)
                                for _, d in stepped
                            ]
                        )
                    except Exception:
                        # A batched-sensing crash may have consumed some
                        # episodes' RNG draws already; re-sensing would
                        # diverge from serial, so every involved episode
                        # restarts from scratch on the serial path.
                        broken.extend(stepped)
                        stepped = []
                live = []
                for (task, driver), bundle in zip(stepped, bundles):
                    try:
                        driver.complete_frame(bundle)
                        live.append((task, driver))
                    except Exception:
                        broken.append((task, driver))
                for task, driver in broken:
                    close_driver(driver)
                    yield task, self._drive_serial(task)
        finally:
            # Consumer bailed early (budget abort, closed generator):
            # harnesses must detach and trace files must close.
            for driver in list(open_drivers):
                driver.close()


class MultiplexedExecutor:
    """Executor protocol wrapper: one multiplexed slot in this process.

    Budget/quarantine semantics mirror
    :class:`~repro.core.runner.SerialExecutor`: terminal failures within
    the policy's budget are yielded quarantined, one over budget aborts
    with the original error after all earlier outcomes were yielded.
    """

    name = "multiplexed"

    def __init__(self, episodes_per_slot: int | None = None):
        if episodes_per_slot is not None and episodes_per_slot < 1:
            raise ValueError(
                f"episodes_per_slot must be >= 1 (got {episodes_per_slot})"
            )
        self.episodes_per_slot = episodes_per_slot

    def run(
        self, context: CampaignContext, tasks: Sequence[EpisodeTask]
    ) -> Iterator[tuple[EpisodeTask, RunRecord | EpisodeFailure]]:
        """Yield ``(task, outcome)`` as episodes finish."""
        policy = context_policy(context)
        if policy.timeout_s is not None:
            # Sandbox children fork from this process (serial fallback
            # path): warm the scene cache once, like SerialExecutor.
            limit = context.builder.scene_cache.max_entries
            for config in context.warm_configs[:limit]:
                context.builder.renderer_for(config)
        budget = _FailureBudget(policy.failure_budget)
        # Explicit executor knob wins; then the context's; a bare
        # "multiplexed" backend still actually multiplexes.
        slot = self.episodes_per_slot
        if slot is None:
            slot = multiplex_slot_size(context)
            if slot <= 1:
                slot = DEFAULT_EPISODES_PER_SLOT
        mux = EpisodeMultiplexer(context, episodes_per_slot=slot, policy=policy)
        for task, result in mux.run(tasks):
            if isinstance(result, EpisodeFailure):
                if not budget.admit(result):
                    result.raise_error()
                result.outcome = EpisodeOutcome.QUARANTINED
            yield task, result


def _run_mux_chunk(
    tasks: Sequence[EpisodeTask],
) -> list[tuple[int, RunRecord | EpisodeFailure]]:
    """Process-pool worker entry: drain one chunk as a multiplexed slot.

    The multiplexed counterpart of
    :func:`~repro.core.runner._run_task_chunk` — failures come back as
    values for the coordinator's budget, carried exceptions are
    pickle-tested before crossing the result pipe.
    """
    from . import runner

    context = runner._WORKER_CONTEXT
    assert context is not None, "worker pool not initialised"
    out: list[tuple[int, RunRecord | EpisodeFailure]] = []
    for task, result in EpisodeMultiplexer(context).run(tasks):
        if isinstance(result, EpisodeFailure) and result.exception is not None:
            try:
                pickle.dumps(result.exception)
            except Exception:
                result.exception = RuntimeError(f"{result.error_type}: {result.error}")
        out.append((task.index, result))
    return out
