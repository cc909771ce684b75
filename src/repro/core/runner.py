"""Campaign execution: the :class:`Campaign` and the transports it runs on.

AVFI's unit of work is a campaign: a paired (scenario × injector) sweep of
*independent* episodes whose records fold into MSR/VPK/APK/TTV.
:class:`Campaign` is the one object that plans, executes, checkpoints and
resumes it, and three invariants survive every way of distributing it:

* **determinism** — every episode's outcome is a pure function of
  ``(scenario, injector faults, harness seed)``; the paired-design seed
  formula (:func:`episode_seed`) is computed up front so results never
  depend on which worker ran what, or in which order;
* **ordering** — records are collected back into the canonical grid order
  (injector-major, scenario-minor), so aggregate metrics and summary rows
  are byte-identical to a serial run;
* **resumability** — each finished episode is appended to a JSONL
  checkpoint (:class:`~repro.core.resultlog.ResultLog`), so an
  interrupted overnight sweep restarts where it stopped and never
  executes an episode twice.

Executors are plain *transports*: :class:`SerialExecutor` runs tasks
in-process through one :class:`~repro.core.multiplex.EpisodeMultiplexer`
slot (``"serial"`` and ``"multiplexed"`` differ only in the default slot
size, 1 vs 4), :class:`ProcessExecutor` fans chunks of tasks out to a
:class:`~concurrent.futures.ProcessPoolExecutor`, and
:class:`~repro.core.queue.QueueExecutor` shards the grid across
*machines* through a shared broker (``executor="queue"`` /
``queue_dir=``).  Each yields ``(task, RunRecord | EpisodeFailure)`` and
never decides an episode failure's fate: :meth:`Campaign.run` holds the
campaign's one failure budget, marks admitted failures quarantined, and
on the first failure over budget sets the ``stop`` event it passed to
the transport, keeps checkpointing what the transport still yields, and
re-raises the original error once it is exhausted (abort-then-drain).
All feed the same top-level, picklable :func:`execute_task` →
:func:`~repro.core.campaign.run_episode` path, so the serial run is the
ground truth every distributed run must reproduce exactly.
"""

from __future__ import annotations

import copy
import multiprocessing
import os
import pickle
import threading
import time
import traceback
from concurrent.futures import CancelledError, ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Sequence

from ..sim.builders import SimulationBuilder
from ..sim.scenario import Scenario
from .campaign import (
    CampaignResult,
    RunRecord,
    component_signature,
    episode_fingerprint,
    run_episode,
)
from .faults import base as fault_base
from .faults.base import FaultModel
from .outcomes import (
    EpisodeFailure,
    EpisodeOutcome,
    FaultTolerancePolicy,
    reap_process,
)
from .resultlog import ResultLog, append_jsonl_line

__all__ = [
    "EpisodeTask",
    "EpisodeTimeout",
    "CampaignContext",
    "available_cpus",
    "execute_task",
    "attempt_task",
    "episode_seed",
    "SerialExecutor",
    "ProcessExecutor",
    "make_executor",
    "append_jsonl_line",
    "record_identity",
    "Campaign",
]


def record_identity(record) -> tuple[str, str, int, str]:
    """A record's checkpoint identity — the counterpart of
    :meth:`EpisodeTask.identity` on the result side."""
    return (record.injector, record.scenario, record.seed, record.config_fingerprint)


def available_cpus() -> int:
    """CPUs this process may actually use (cgroup/affinity aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def episode_seed(base_seed: int, injector_index: int, scenario_index: int) -> int:
    """The paired-design seed for one (injector, scenario) cell.

    Every executor runs the tasks :meth:`Campaign.tasks` seeds with it,
    so all of them execute the *same* episode set for the same
    configuration.
    """
    return base_seed * 1_000_003 + injector_index * 10_007 + scenario_index


@dataclass(frozen=True)
class EpisodeTask:
    """One schedulable unit of campaign work.

    ``index`` is the episode's position in the canonical grid
    (injector-major, scenario-minor); results are re-ordered by it after
    parallel execution.
    """

    index: int
    injector: str
    scenario: Scenario
    seed: int
    #: :func:`~repro.core.campaign.episode_fingerprint` of the scenario
    #: and this injector's fault configuration.
    fingerprint: str = ""

    def identity(self) -> tuple[str, str, int, str]:
        """The checkpoint identity.

        ``(injector, scenario name, seed, config fingerprint)`` — the
        fingerprint keeps a checkpoint written for a *different*
        configuration (other scenario suite, retuned fault parameters)
        from matching.
        """
        return (self.injector, self.scenario.name, self.seed, self.fingerprint)


@dataclass
class CampaignContext:
    """Everything a worker needs to execute any task of one campaign.

    Shipped to each worker process once (pool initializer), so per-task
    payloads stay small.  Must be picklable: the builder, the agent
    factory and every fault model travel to the workers by value — each
    worker therefore mutates only its own copies (model-weight faults
    included), which is what keeps parallel episodes independent.

    Heavy scene state (towns, rasterised textures) deliberately does
    *not* travel: builders pickle without their
    :class:`~repro.sim.builders.SceneCache`, and each worker re-derives
    scenes into its process-local cache.  ``warm_configs`` lists the town
    configurations the campaign will touch so the pool initializer can
    pre-build them once per worker, before the first timed episode —
    and the cache keeps them warm across campaigns in the same pool.
    """

    builder: SimulationBuilder
    agent_factory: Callable
    injectors: dict[str, tuple[FaultModel, ...]]
    #: Town configs to pre-build in each worker (deduplicated, grid order).
    warm_configs: tuple = ()
    #: Fault-tolerance policy every executor honours for this campaign
    #: (``None`` means :class:`~repro.core.outcomes.FaultTolerancePolicy`
    #: defaults: one attempt, no timeout, abort on first failure).
    policy: FaultTolerancePolicy | None = None
    #: Live episodes per multiplexed slot (see
    #: :mod:`repro.core.multiplex`); ``1`` means no multiplexing.  Rides
    #: in the context so process-pool and queue workers drain whole
    #: multiplexed slots without extra plumbing.
    episodes_per_slot: int = 1


def _checked_slot(episodes_per_slot: int | None) -> int | None:
    """``episodes_per_slot`` itself, once it is known to be ``None`` or >= 1."""
    if episodes_per_slot is not None and episodes_per_slot < 1:
        raise ValueError(f"episodes_per_slot must be >= 1 (got {episodes_per_slot})")
    return episodes_per_slot


def context_policy(context: CampaignContext) -> FaultTolerancePolicy:
    """The context's effective policy (``getattr`` so contexts pickled by
    older versions, which lack the field entirely, keep working)."""
    return getattr(context, "policy", None) or FaultTolerancePolicy()


def execute_task(context: CampaignContext, task: EpisodeTask) -> RunRecord:
    """Run one episode task.  Top-level and pure: both executors call this."""
    return run_episode(
        context.builder,
        task.scenario,
        context.agent_factory,
        faults=context.injectors[task.injector],
        injector_name=task.injector,
        harness_seed=task.seed,
        # The task's fingerprint IS the record's identity: passing it
        # through keeps them equal by construction.
        config_fingerprint=task.fingerprint or None,
    )


# ----------------------------------------------------------------------
# Fault-tolerant execution: attempts, timeouts, sandboxes
# ----------------------------------------------------------------------


class EpisodeTimeout(RuntimeError):
    """An episode attempt exceeded the policy's wall-clock timeout."""


def _sandbox_entry(
    conn, context: CampaignContext, task: EpisodeTask, spare_core: bool
) -> None:
    """Sandbox child: run one episode, ship the outcome up the pipe.

    ``spare_core`` is the parent's :func:`~repro.core.faults.base._spare_core`
    answer: the parent only waits, so the child draws noise ahead
    exactly where the parent would have."""
    fault_base.inherit_spare_core(spare_core)
    try:
        record = execute_task(context, task)
    except BaseException as exc:  # noqa: BLE001 - the pipe is the only exit
        tb_text = traceback.format_exc()
        try:
            pickle.dumps(exc)
        except Exception:
            # An unpicklable exception must still cross the pipe; the
            # wrapper keeps class name + message, the traceback text
            # carries the rest.
            exc = RuntimeError(f"{type(exc).__name__}: {exc}")
        try:
            conn.send(("error", exc, tb_text))
        except Exception:  # pragma: no cover - parent already gone
            pass
    else:
        conn.send(("ok", record, ""))
    finally:
        conn.close()


def _run_sandboxed(
    context: CampaignContext, task: EpisodeTask, timeout_s: float
) -> tuple[str, object, str]:
    """Run one attempt in a disposable child process with a wall-clock cap.

    The child is forked fresh per attempt (sharing the parent's warmed
    scene cache copy-on-write) so a hung episode can be *killed* — the
    one thing an in-process timeout cannot do against C-level or
    ``time.sleep`` hangs — without taking the worker down with it.
    Returns ``("ok", record, "")``, ``("error", exc, traceback_text)`` or
    ``("timeout", None, "")``.
    """
    ctx = multiprocessing.get_context()
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    proc = ctx.Process(
        target=_sandbox_entry,
        args=(child_conn, context, task, fault_base._spare_core()),
        daemon=False,
    )
    proc.start()
    child_conn.close()
    try:
        if not parent_conn.poll(timeout_s):
            return ("timeout", None, "")
        try:
            return parent_conn.recv()
        except EOFError:
            # The child died without reporting (segfault, OOM kill): a
            # real failure, not a timeout.
            exc = RuntimeError(
                f"episode sandbox died without a result (exit code {proc.exitcode})"
            )
            return ("error", exc, "")
    finally:
        parent_conn.close()
        reap_process(proc, log=lambda msg: print(f"[sandbox] {msg}", flush=True))


def attempt_task(
    context: CampaignContext,
    task: EpisodeTask,
    policy: FaultTolerancePolicy | None = None,
) -> RunRecord | EpisodeFailure:
    """Run one episode under the fault-tolerance policy.

    Returns the :class:`~repro.core.campaign.RunRecord` on success or an
    :class:`~repro.core.outcomes.EpisodeFailure` once every attempt is
    exhausted — never raises for episode-level errors (infrastructure
    errors and ``KeyboardInterrupt`` still propagate).  Every attempt
    replays the task's own seed against freshly-``reset()`` fault state
    (the harness attach contract), so a successful retry is byte-identical
    to a first-try success.  With ``timeout_s`` set each attempt runs in
    a killable sandbox child; otherwise inline.
    """
    policy = policy if policy is not None else context_policy(context)
    wall_s = 0.0
    failure: EpisodeFailure | None = None
    for attempt in range(1, policy.max_attempts + 1):
        if attempt > 1:
            delay = policy.backoff_for(task.seed, attempt - 1)
            if delay > 0:
                time.sleep(delay)
        start = time.monotonic()
        if policy.timeout_s is None:
            try:
                result = ("ok", execute_task(context, task), "")
            except Exception as exc:  # episode-level failure, not a crash
                result = ("error", exc, traceback.format_exc())
        else:
            result = _run_sandboxed(context, task, policy.timeout_s)
        wall_s += time.monotonic() - start
        status, payload, tb_text = result
        if status == "ok":
            return payload
        if status == "timeout":
            exc = EpisodeTimeout(
                f"episode exceeded the {policy.timeout_s:g}s wall-clock timeout"
            )
            outcome = EpisodeOutcome.TIMED_OUT
        else:
            exc = payload
            outcome = EpisodeOutcome.FAILED
        failure = EpisodeFailure.from_exception(
            task,
            exc,
            attempts=attempt,
            wall_time_s=wall_s,
            traceback_text=tb_text,
            outcome=outcome,
        )
    assert failure is not None
    return failure


# ----------------------------------------------------------------------
# Executors: transports that yield outcomes, never judge failures
# ----------------------------------------------------------------------

#: Per-process campaign context, set once by the pool initializer.
_WORKER_CONTEXT: CampaignContext | None = None


def _warm_scene_cache(context: CampaignContext) -> None:
    """Pre-build the campaign's scenes in this process's scene cache.

    Town building and texture rasterisation (under 0.1 s for a 4x4 town)
    then happen once per process, before the first scheduled episode,
    so they stay out of its timing (and sandbox children forked from
    here inherit them copy-on-write).  Warming more configs than the
    cache holds would evict the early ones again, so cap at the cache
    size (the first configs run first in grid order).
    """
    limit = context.builder.scene_cache.max_entries
    for config in context.warm_configs[:limit]:
        context.builder.renderer_for(config)


def _init_worker(context: CampaignContext) -> None:
    global _WORKER_CONTEXT
    _WORKER_CONTEXT = context
    _warm_scene_cache(context)


def _run_chunk(
    tasks: Sequence[EpisodeTask],
) -> list[tuple[int, RunRecord | EpisodeFailure]]:
    """Worker-side entry point: drain a chunk as one slot of the context's
    size (a slot of one is the plain :func:`attempt_task` loop).

    Failures come back as values, not raises — the coordinator's campaign
    applies the campaign-level budget (workers cannot see each other's
    failures).  The carried exception object is pickle-tested here
    because the whole chunk result must cross the pool's result pipe.
    """
    from .multiplex import EpisodeMultiplexer  # deferred: imports us

    assert _WORKER_CONTEXT is not None, "worker pool not initialised"
    out: list[tuple[int, RunRecord | EpisodeFailure]] = []
    for task, result in EpisodeMultiplexer(_WORKER_CONTEXT).run(tasks):
        if isinstance(result, EpisodeFailure) and result.exception is not None:
            try:
                pickle.dumps(result.exception)
            except Exception:
                result.exception = RuntimeError(f"{result.error_type}: {result.error}")
        out.append((task.index, result))
    return out


class SerialExecutor:
    """In-process execution — deterministic, no pickling, no subprocesses.

    Runs one :class:`~repro.core.multiplex.EpisodeMultiplexer` slot of
    ``episodes_per_slot`` live episodes (``None``: the context's slot
    size; a slot of one is the canonical :func:`attempt_task` loop).  The
    reference implementation parallel executors are checked against, and
    the right choice for ``workers<=1``, debugging and unit tests.
    """

    name = "serial"

    def __init__(self, episodes_per_slot: int | None = None):
        self.episodes_per_slot = _checked_slot(episodes_per_slot)

    def run(
        self,
        context: CampaignContext,
        tasks: Sequence[EpisodeTask],
        stop: threading.Event | None = None,
    ) -> Iterator[tuple[EpisodeTask, RunRecord | EpisodeFailure]]:
        """Yield ``(task, outcome)`` as episodes complete.

        Once ``stop`` is set no new episode starts; live ones finish.
        """
        from .multiplex import EpisodeMultiplexer  # deferred: imports us

        mux = EpisodeMultiplexer(context, self.episodes_per_slot)
        if mux.policy.timeout_s is not None:
            # Sandbox children fork from this process: warm the scene
            # cache once so every attempt inherits built scenes.
            _warm_scene_cache(context)
        yield from mux.run(tasks, stop)


class ProcessExecutor:
    """Process-pool execution with chunked scheduling.

    The default chunk is a single episode: episodes run for seconds, so
    per-task IPC is negligible, the pool load-balances perfectly, and
    every completed episode reaches the checkpoint before the next
    starts.  For sweeps of very short episodes a larger ``chunksize``
    amortises scheduling overhead — at the cost of checkpoint
    granularity, since a chunk's records only travel back (and get
    checkpointed) when the whole chunk finishes.  A context asking for
    episode multiplexing makes each worker drain its chunk as one slot;
    the chunk then defaults to the slot size so slots actually fill.

    Results stream back in completion order; the campaign re-orders them.
    """

    name = "process"

    def __init__(self, workers: int | None = None, chunksize: int | None = None):
        self.workers = max(1, workers if workers is not None else available_cpus())
        self.chunksize = chunksize

    def _chunks(
        self, tasks: Sequence[EpisodeTask], default: int = 1
    ) -> list[list[EpisodeTask]]:
        size = max(1, self.chunksize or default)
        return [list(tasks[i : i + size]) for i in range(0, len(tasks), size)]

    def run(
        self,
        context: CampaignContext,
        tasks: Sequence[EpisodeTask],
        stop: threading.Event | None = None,
    ) -> Iterator[tuple[EpisodeTask, RunRecord | EpisodeFailure]]:
        """Yield ``(task, outcome)`` as episodes complete (arbitrary order).

        Workers retry/time-out episodes locally (:func:`attempt_task`)
        and return terminal failures as values.  When ``stop`` is set (or
        a worker chunk raises an infrastructure error) the queued chunks
        are cancelled but every running one is drained and yielded — so
        the campaign checkpoints all completed work — and a chunk error
        re-raises after the drain.
        """
        from .multiplex import multiplex_slot_size  # deferred: imports us

        tasks = list(tasks)
        if not tasks:
            return
        by_index = {task.index: task for task in tasks}
        pool = ProcessPoolExecutor(
            max_workers=self.workers, initializer=_init_worker, initargs=(context,)
        )
        try:
            futures = [
                pool.submit(_run_chunk, chunk)
                for chunk in self._chunks(tasks, default=multiplex_slot_size(context))
            ]
            stop = stop if stop is not None else threading.Event()
            error: BaseException | None = None
            draining = False
            for future in as_completed(futures):
                try:
                    chunk_results = future.result()
                except CancelledError:
                    continue
                except Exception as exc:
                    error = error or exc
                    chunk_results = []
                for index, result in chunk_results:
                    yield by_index[index], result
                if not draining and (error is not None or stop.is_set()):
                    draining = True
                    for other in futures:
                        other.cancel()
            if error is not None:
                raise error
        finally:
            # On abnormal exit (consumer error, closed generator) queued
            # chunks must not keep burning compute whose results nobody
            # will collect; a no-op on normal completion.
            pool.shutdown(wait=True, cancel_futures=True)


def make_executor(
    executor: str | SerialExecutor | ProcessExecutor | None = None,
    workers: int | None = None,
    queue_dir: str | Path | None = None,
    lease_s: float | None = None,
    episodes_per_slot: int | None = None,
):
    """Resolve an executor spec (``"serial"``/``"process"``/``"queue"``/
    ``"multiplexed"``/instance/None).

    With no explicit spec the other arguments decide: a ``queue_dir``
    selects the distributed queue backend, ``workers`` of
    ``None``/``0``/``1`` stays serial, anything larger gets a process
    pool.  Asking for serial execution *and* multiple workers is a
    contradiction and raises rather than silently dropping the workers.
    An executor instance is authoritative (its own worker count and, for
    a :class:`ProcessExecutor`, its ``chunksize`` win).

    ``"serial"`` and ``"multiplexed"`` are the same in-process
    transport (:class:`SerialExecutor`) running one slot of
    ``episodes_per_slot`` live episodes; they differ only in the slot
    used when none is given (1 vs
    :data:`~repro.core.multiplex.DEFAULT_EPISODES_PER_SLOT`).  The knob
    also composes with the other backends through the campaign context
    (:attr:`CampaignContext.episodes_per_slot`): process-pool and queue
    workers drain whole multiplexed slots when it is above 1.

    For ``"queue"``, ``workers`` is the number of *local* drain
    processes to spawn alongside the coordinator — defaulting to 1 so a
    bare ``queue_dir`` makes progress on its own; an explicit ``0``
    coordinates only and blocks until workers attach from other machines
    via ``avfi worker``.  ``lease_s`` configures the
    :class:`~repro.core.queue.QueueExecutor`.
    """
    if workers is not None and workers < 0:
        raise ValueError(f"workers must be >= 0 (got {workers})")
    _checked_slot(episodes_per_slot)
    parallel_requested = workers is not None and workers > 1
    if executor is None:
        if queue_dir is not None:
            executor = "queue"
        elif parallel_requested:
            executor = "process"
        else:
            # A bare slot-size request multiplexes in this process; with
            # workers/queue above it rides the context into each worker.
            executor = "serial"
    if queue_dir is not None:
        spec = executor if isinstance(executor, str) else getattr(executor, "name", None)
        if spec != "queue":
            raise ValueError(
                f"queue_dir={str(queue_dir)!r} conflicts with "
                f"executor={executor!r}; use executor='queue' or drop queue_dir"
            )
    if isinstance(executor, SerialExecutor) or executor == "serial":
        if parallel_requested:
            raise ValueError(
                f"executor='serial' conflicts with workers={workers}; "
                "drop one of the two"
            )
        if isinstance(executor, SerialExecutor):
            return executor
        return SerialExecutor(episodes_per_slot=episodes_per_slot)
    if not isinstance(executor, str):
        return executor
    if executor == "process":
        return ProcessExecutor(workers=workers)
    if executor == "multiplexed":
        from .multiplex import DEFAULT_EPISODES_PER_SLOT  # deferred: imports us

        if parallel_requested:
            raise ValueError(
                f"executor='multiplexed' conflicts with workers={workers}; "
                "multiplexing is single-process (combine it with the "
                "process or queue backend for multi-worker slots)"
            )
        return SerialExecutor(episodes_per_slot=episodes_per_slot or DEFAULT_EPISODES_PER_SLOT)
    if executor == "queue":
        from .queue import QueueExecutor  # deferred: queue imports us

        if queue_dir is None:
            raise ValueError(
                "executor='queue' needs queue_dir (the shared broker directory)"
            )
        options = {} if lease_s is None else {"lease_s": lease_s}
        # workers=None must not silently mean "coordinate only and block
        # until someone attaches" — default to one local drain process;
        # coordinate-only needs an explicit workers=0.
        return QueueExecutor(queue_dir, workers=1 if workers is None else workers, **options)
    raise ValueError(
        f"unknown executor {executor!r} (expected 'serial', 'process', "
        f"'queue' or 'multiplexed')"
    )


# ----------------------------------------------------------------------
# The campaign: grid, resume, and the one execution loop
# ----------------------------------------------------------------------


class Campaign:
    """A full (injector × scenario) fault-injection sweep — the one way to
    run one.

    Every injector configuration sees the *same* scenario suite with the
    same per-cell seeds (:func:`episode_seed`), so differences in
    MSR/VPK are attributable to the injector.  The grid executes on a
    pluggable transport: ``executor`` is a name (``"serial"``,
    ``"multiplexed"``, ``"process"``, ``"queue"``) or a ready-made
    instance whose own configuration wins; left ``None``, ``workers`` and
    ``queue_dir`` decide (see :func:`make_executor`).  The hard
    invariant: for the same configuration, :meth:`run` returns a
    :class:`~repro.core.campaign.CampaignResult` identical to the serial
    path's, whatever the executor or worker count.

    Completed work is loaded once, at construction: from
    ``checkpoint_path`` (JSONL, appended to as episodes finish), from a
    queue broker's shared checkpoint, or — for a remote ``tcp://``
    broker with no local file — from the broker server itself.  It then
    accumulates across :meth:`run` calls, so a re-run (in this process
    or a later one) executes only what is missing, and an interrupted
    run keeps everything that finished (:meth:`grid_records`).
    """

    def __init__(
        self,
        scenarios: Sequence[Scenario],
        agent_factory: Callable,
        injectors: dict[str, Sequence[FaultModel]],
        builder: SimulationBuilder | None = None,
        base_seed: int = 0,
        workers: int | None = None,
        executor: str | SerialExecutor | ProcessExecutor | None = None,
        queue_dir: str | Path | None = None,
        lease_s: float | None = None,
        checkpoint_path: str | Path | None = None,
        fault_tolerance: FaultTolerancePolicy | None = None,
        episodes_per_slot: int | None = None,
        verbose: bool = False,
        on_record: Callable[[EpisodeTask, RunRecord], None] | None = None,
    ):
        if not scenarios:
            raise ValueError("campaign needs at least one scenario")
        if not injectors:
            raise ValueError("campaign needs at least one injector (use {'none': []})")
        self.scenarios = list(scenarios)
        self.agent_factory = agent_factory
        self.injectors = dict(injectors)
        self.builder = builder or SimulationBuilder()
        self.base_seed = base_seed
        #: Live episodes per multiplexed slot; carried into the campaign
        #: context so every backend's workers see it.
        self.episodes_per_slot = episodes_per_slot
        self.executor = make_executor(
            executor,
            workers=workers,
            queue_dir=queue_dir,
            lease_s=lease_s,
            episodes_per_slot=episodes_per_slot,
        )
        #: :class:`~repro.core.outcomes.FaultTolerancePolicy` every
        #: transport honours (``None`` = defaults: one attempt, no
        #: timeout, abort on the first failure).
        self.fault_tolerance = fault_tolerance
        self.verbose = verbose
        self.on_record = on_record
        #: The :class:`~repro.core.spec.CampaignSpec` this campaign was
        #: built from (set by :meth:`from_spec`); published into queue
        #: brokers so the full campaign definition travels as a portable
        #: JSON artifact next to the pickled context.
        self.spec = None
        self.checkpoint_path = Path(checkpoint_path) if checkpoint_path else None
        # A queue executor's broker owns the shared results checkpoint:
        # adopt it (so resume reads what workers wrote) and skip our own
        # appends for it (workers already append each record durably — a
        # second append would just duplicate every line).
        executor_checkpoint = getattr(self.executor, "checkpoint_path", None)
        if executor_checkpoint is not None and self.checkpoint_path is None:
            self.checkpoint_path = Path(executor_checkpoint)
        # Resolve both sides: the same file spelled differently (relative
        # vs absolute, symlinked mount) must still count as owned, or the
        # campaign would re-append every record the workers already wrote.
        self._executor_owns_checkpoint = (
            executor_checkpoint is not None
            and self.checkpoint_path.resolve() == Path(executor_checkpoint).resolve()
        )
        self._log = (
            ResultLog(self.checkpoint_path) if self.checkpoint_path is not None else None
        )
        if self._log is not None:
            # A torn final line must come off *before* anything appends
            # again (see ResultLog.repair) — this campaign, or queue
            # workers sharing the broker checkpoint.
            self._log.repair()
            self._checkpoint_records, self._checkpoint_failures = self._log.load()
        elif hasattr(self.executor, "resume_rows"):
            # A queue executor on a *remote* (TCP) broker keeps its
            # checkpoint server-side; asking it keeps resume semantics
            # identical to the shared-directory case.
            self._checkpoint_records, self._checkpoint_failures = (
                self.executor.resume_rows()
            )
        else:
            self._checkpoint_records, self._checkpoint_failures = [], []
        self._new_records: dict[int, RunRecord] = {}
        self._new_failures: dict[int, EpisodeFailure] = {}
        self._tasks: list[EpisodeTask] | None = None

    @classmethod
    def from_spec(
        cls,
        spec,
        *,
        workers: int | None = None,
        queue_dir: str | Path | None = None,
        lease_s: float | None = None,
        checkpoint_path: str | Path | None = None,
        fault_tolerance=None,
        episodes_per_slot: int | None = None,
        verbose: bool = False,
    ) -> "Campaign":
        """Build a campaign from a :class:`~repro.core.spec.CampaignSpec`.

        The keyword overrides (the ``avfi run`` flags) beat the spec's
        execution options, resolved by
        :meth:`~repro.core.spec.ExecutionSpec.resolve`; everything else —
        scenario suite, agent, injectors, builder, base seed — comes from
        the spec.  The injector table goes through
        :meth:`~repro.core.spec.CampaignSpec.expanded_injectors`, so
        compound entries arrive as their concrete expanded grid; every
        fault is deep-copied here so two campaigns built from one spec
        never share mutable fault state.
        """
        campaign = cls(
            spec.scenarios.build(),
            spec.agent.build(),
            {
                name: [copy.deepcopy(fault) for fault in faults]
                for name, faults in spec.expanded_injectors().items()
            },
            builder=spec.build_builder(),
            base_seed=spec.execution.base_seed,
            verbose=verbose,
            **spec.execution.resolve(
                workers=workers,
                queue_dir=queue_dir,
                lease_s=lease_s,
                checkpoint_path=checkpoint_path,
                fault_tolerance=fault_tolerance,
                episodes_per_slot=episodes_per_slot,
            ),
        )
        campaign.spec = spec
        return campaign

    def runner(self) -> "Campaign":
        """The campaign itself.  Kept only because perfbench's correctness
        check calls ``campaign.runner().tasks()``; it goes with that call."""
        return self

    # -- planning ------------------------------------------------------

    def tasks(self) -> list[EpisodeTask]:
        """The full episode grid in canonical (injector, scenario) order.

        Computed once, on first use — lazily, so a caller may still swap
        ``agent_factory`` after construction (the service does) and have
        the fingerprints follow.  The fingerprint covers the agent
        factory and builder signatures (computed once per grid — the NN
        agent's hashes model weights), so a checkpoint written under a
        different agent or builder never satisfies this grid.
        """
        if self._tasks is None:
            component_key = (
                component_signature(self.agent_factory),
                component_signature(self.builder),
            )
            out: list[EpisodeTask] = []
            for inj_idx, (injector, faults) in enumerate(self.injectors.items()):
                for scn_idx, scenario in enumerate(self.scenarios):
                    out.append(
                        EpisodeTask(
                            index=len(out),
                            injector=injector,
                            scenario=scenario,
                            seed=episode_seed(self.base_seed, inj_idx, scn_idx),
                            fingerprint=episode_fingerprint(
                                scenario, faults, component_key=component_key
                            ),
                        )
                    )
            self._tasks = out
        return list(self._tasks)

    def total_runs(self) -> int:
        """Number of episodes in the full grid."""
        return len(self.scenarios) * len(self.injectors)

    def completed(self) -> set[tuple[str, str, int, str]]:
        """Identities already present in the checkpoint (or finished).

        Quarantined episodes count as completed: the whole point of
        quarantine is that resume never re-burns compute on a poison
        task.  Re-running one means deleting its row (or using a fresh
        checkpoint).
        """
        rows = (
            self._checkpoint_records,
            self._new_records.values(),
            self._checkpoint_failures,
            self._new_failures.values(),
        )
        return {record_identity(row) for group in rows for row in group}

    def pending(self) -> list[EpisodeTask]:
        """Grid tasks not yet completed, in canonical order."""
        done = self.completed()
        return [task for task in self.tasks() if task.identity() not in done]

    # -- checkpointing -------------------------------------------------

    def _append_checkpoint(self, row: RunRecord | EpisodeFailure) -> None:
        if self._log is not None and not self._executor_owns_checkpoint:
            self._log.append(row.to_dict())

    # -- execution -----------------------------------------------------

    def context(self) -> CampaignContext:
        """The picklable per-campaign worker context."""
        # Deduplicate town configs in scenario order (deterministic) so
        # every worker pre-warms exactly the scenes this grid will touch.
        warm = dict.fromkeys(scenario.town_config for scenario in self.scenarios)
        return CampaignContext(
            builder=self.builder,
            agent_factory=self.agent_factory,
            injectors={name: tuple(faults) for name, faults in self.injectors.items()},
            warm_configs=tuple(warm),
            policy=self.fault_tolerance,
            episodes_per_slot=self.episodes_per_slot or 1,
        )

    def run(self) -> CampaignResult:
        """Execute every pending episode; return the full grid, in order.

        Episodes stream into the checkpoint as they complete (completion
        order), but the returned result is always canonical grid order —
        resumed and fresh runs, serial and parallel executors, all yield
        the same record sequence.  A second call with nothing pending
        executes nothing.

        This loop is the one place an episode failure's fate is decided.
        Terminal failures within the policy's ``failure_budget`` are
        marked quarantined and checkpointed, so resume never re-runs
        them.  The first failure over budget aborts: the transport is
        told to stop, everything it still yields is drained — records
        checkpointed, later failures left uncheckpointed so they re-run
        on resume — and then the original error is re-raised.  What
        completed stays in :meth:`grid_records` either way.
        """
        pending = self.pending()
        context = self.context()
        budget = context_policy(context).failure_budget
        quarantined = 0
        abort: EpisodeFailure | None = None
        stop = threading.Event()
        if self.spec is not None and hasattr(self.executor, "publish_spec"):
            # Queue brokers archive the campaign's declarative spec next
            # to the pickled context, so any attached machine can read
            # what campaign it is serving.
            self.executor.publish_spec(self.spec.to_dict())
        for task, result in self.executor.run(context, pending, stop):
            if isinstance(result, EpisodeFailure):
                if budget is not None and quarantined >= budget:
                    # Over budget: left uncheckpointed, so it re-runs
                    # on resume; the first such error is re-raised.
                    # Set before the transport resumes: a queue
                    # transport reads it as "not admitted".
                    abort = abort or result
                    stop.set()
                    continue
                quarantined += 1
                result.outcome = EpisodeOutcome.QUARANTINED
                self._new_failures[task.index] = result
                self._append_checkpoint(result)
                if self.verbose:
                    print(
                        f"[campaign] {result.injector:>12} "
                        f"{result.scenario:>8} QUAR {result.error_type} "
                        f"after {result.attempts} attempt(s)"
                    )
                continue
            record = result
            self._new_records[task.index] = record
            self._append_checkpoint(record)
            if self.verbose:
                status = "ok " if record.success else "FAIL"
                print(
                    f"[campaign] {record.injector:>12} {record.scenario:>8} "
                    f"{status} {record.distance_km * 1000:6.0f} m  "
                    f"{record.n_violations} violations"
                )
            if self.on_record is not None:
                self.on_record(task, record)
        if abort is not None:
            abort.raise_error()
        return CampaignResult(self.grid_records(), failures=self.grid_failures())

    def grid_records(self) -> list[RunRecord]:
        """One record per completed grid task, resumed or fresh, in grid order.

        Checkpoint rows that match no grid identity (a different suite,
        or rows written before fingerprinting) are excluded — they are
        journal history, not results of *this* campaign.
        """
        by_identity: dict[tuple, RunRecord] = {}
        for record in self._checkpoint_records:
            by_identity.setdefault(record_identity(record), record)
        out = []
        for task in self.tasks():
            record = self._new_records.get(task.index) or by_identity.get(task.identity())
            if record is not None:
                out.append(record)
        return out

    def grid_failures(self) -> list[EpisodeFailure]:
        """Quarantined episodes of *this* grid, in grid order.

        An identity that also has a real record (quarantined in an old
        run, then re-run to success after its row was cleared) is not a
        failure any more and is excluded.
        """
        recorded = {record_identity(r) for r in self._checkpoint_records}
        recorded.update(record_identity(r) for r in self._new_records.values())
        by_identity: dict[tuple, EpisodeFailure] = {}
        for failure in self._checkpoint_failures:
            by_identity.setdefault(record_identity(failure), failure)
        out = []
        for task in self.tasks():
            failure = self._new_failures.get(task.index) or by_identity.get(
                task.identity()
            )
            if failure is not None and task.identity() not in recorded:
                out.append(failure)
        return out
