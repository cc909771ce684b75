"""Distributed campaign execution over a shared work queue.

The campaign grid is embarrassingly parallel across machines, not just
across processes: :class:`~repro.core.runner.EpisodeTask` pickles, the
executor protocol is pluggable, and the JSONL checkpoint is already the
source of truth for completed work.  This module adds the missing piece —
a *broker* that hands tasks to whichever workers are attached:

* a **coordinator** (the machine running a
  :class:`~repro.core.runner.Campaign` with a :class:`QueueExecutor`)
  publishes the campaign context and every pending task into a broker,
  then folds finished records back into canonical grid order exactly
  as the in-process executors do;
* any number of **workers** (``avfi worker --queue-dir …`` /
  :func:`run_worker`, one per machine or several per machine) attach to
  the broker, claim tasks under per-task *leases*, heartbeat while an
  episode runs, append each finished :class:`~repro.core.campaign.RunRecord`
  to the shared JSONL checkpoint, and drain until the queue is idle;
* a worker that dies mid-episode simply stops heartbeating — its lease
  expires and the task is requeued automatically (by any other worker or
  the coordinator), so the campaign completes as long as *one* worker
  survives.

:class:`Broker` is the typed surface every caller uses, written once:
each method pickles or parses at most, then runs one protocol op through
``_call(op, args)`` with JSON-able args.  The reference backend is
:class:`FilesystemBroker`, whose ``op_<name>`` methods are the op table:
a shared directory (local disk for same-machine workers, NFS or similar
for a cluster).  Claims are atomic ``rename(2)`` moves, appends are
single ``O_APPEND`` writes (see :mod:`~repro.core.resultlog`),
and every mutation is a file operation — no server process to operate:

.. code-block:: text

    queue_dir/
      manifest.json     # campaign metadata (task count, lease, created_at)
      context.pkl       # pickled CampaignContext (builder, agent, faults)
      spec.json         # the archived CampaignSpec, when there is one
      tasks/NNNNN_x.task     # pending EpisodeTask pickles (claim = rename away)
      claimed/NNNNN_x.task   # tasks currently leased to a worker
      leases/NNNNN_x.json    # the lease: worker id + heartbeat timestamp
      failed/NNNNN_x.task(.error.json)  # tasks whose execution raised
      quarantined/NNNNN_x.task(.error.json)  # poison tasks given up within budget
      workers/<worker>.json  # per-worker liveness heartbeats (observability)
      artifacts/<sha[:2]>/<sha>  # content-addressed blobs (NN weights)
      results.jsonl     # THE checkpoint: completed records + quarantine rows

Exactly-once is enforced at the *results* layer, not the queue layer: a
lease can expire after its worker actually finished (slow NFS, paused
VM), in which case two workers run the same episode and append two
records with the same identity.  Episodes are deterministic, so the
duplicates are byte-identical, and the campaign's grid fold keeps the
first — the queue only has to guarantee at-least-once delivery.

Clock caveat: lease expiry compares worker heartbeat timestamps against
the local clock, so machines sharing a broker directory should be
NTP-synchronised to well under the lease duration (the 60 s default
leaves a comfortable margin).  As a guard against a worker whose clock
lags (it would stamp heartbeats "in the past" and look instantly
expired), expiry judges each lease by the *fresher* of its embedded
timestamp and the lease file's mtime — on typical shared mounts the
mtime is stamped server-side, one clock for everyone.  The
:class:`~repro.core.netqueue.TcpBroker` removes the caveat entirely:
the broker server stamps every heartbeat with its own clock.

Hand-offs wait instead of sleeping: ``claim`` and ``read_results`` take a
``wait_s``, and on a miss they park until another op on the same broker
root *in this process* publishes, requeues or appends (one wake-up per
resolved root, shared by every broker instance over it), or until
``wait_s`` passes.  Behind a
:class:`~repro.core.netqueue.BrokerServer` — the ``avfi serve`` case,
whose coordinator runs in the server's process — a published task
reaches a parked worker, and an appended row reaches the coordinator,
in one round trip.  Processes that only share a directory are not woken:
their waits run out after ``poll_s``, the cadence of a poll.

Brokers other than the filesystem one are resolved by
:func:`~repro.core.netqueue.make_broker` — ``"tcp://host:port"``
selects a :class:`~repro.core.netqueue.TcpBroker`, which sends each op
as one length-prefixed JSON frame to an ``avfi serve`` (or
:class:`~repro.core.netqueue.BrokerServer`) endpoint that runs it on its
own ``FilesystemBroker``.  Everything in this module
(:func:`run_worker`, :class:`QueueExecutor`, ``avfi queue-status``)
accepts such a URL wherever it accepts a queue directory.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
import numbers
import os
import pickle
import re
import socket
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

from contextlib import ExitStack

from .campaign import RunRecord
from .multiplex import EpisodeMultiplexer, multiplex_slot_size
from .outcomes import EpisodeFailure, reap_process
from .resultlog import ResultLog, build_rows
from .runner import (
    CampaignContext,
    EpisodeTask,
    _init_worker,
    context_policy,
    record_identity,
)

__all__ = [
    "Broker",
    "BrokerError",
    "Claim",
    "FilesystemBroker",
    "QueueExecutor",
    "check_lease_s",
    "run_worker",
]

#: Wire protocol version, reported by the ``ping`` op.
PROTOCOL_VERSION = 1

#: Longest one waiting op (``claim``/``read_results`` with ``wait_s``)
#: parks, whatever the caller asked for: a longer wait would hold a
#: server thread, and the client's transport timeout, for nothing.
MAX_WAIT_S = 10.0


class BrokerError(RuntimeError):
    """The broker refused or failed an op — a real application error,
    never retried (unlike transport errors)."""


#: The exact shape :meth:`Broker._task_filename` mints.
_TASK_NAME_RE = re.compile(r"^\d{5}_[0-9a-f]{12}\.task$")
_WORKER_ID_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._:-]{0,127}$")


def _check_task_name(name) -> str:
    """Task names become path components under the broker root
    (``tasks/<name>``, ``claimed/<name>``, ``leases/<stem>.json``,
    ``failed/<name>.error.json``) — accept only names the broker itself
    mints (:meth:`Broker._task_filename`), so a hostile frame cannot
    smuggle ``../`` traversal into a write or unlink, the same guard
    :func:`~repro.core.artifacts._check_sha` applies to artifact
    digests."""
    if not isinstance(name, str) or not _TASK_NAME_RE.fullmatch(name):
        raise BrokerError(
            f"invalid task name {name!r} (want NNNNN_<12 hex chars>.task)"
        )
    return name


def _check_worker_id(worker_id) -> str:
    """Worker ids name liveness files (``workers/<id>.json``) — same
    path-component exposure as task names, same rejection."""
    if not isinstance(worker_id, str) or not _WORKER_ID_RE.fullmatch(worker_id):
        raise BrokerError(f"invalid worker id {worker_id!r}")
    return worker_id


def check_lease_s(lease_s) -> float:
    """A lease duration as a float, if it is finite and > 0.

    An infinite or NaN lease never expires, so the task of a worker that
    dies under it never returns to the queue; a non-positive one expires
    the moment it is written.  Raises ``ValueError`` for both."""
    if (
        isinstance(lease_s, bool)
        or not isinstance(lease_s, numbers.Real)
        or not math.isfinite(lease_s)
        or lease_s <= 0
    ):
        raise ValueError(f"lease_s must be a finite number > 0, got {lease_s!r}")
    return float(lease_s)


def _check_wait_s(wait_s) -> float:
    """A wait for a waiting op as a float, if it is finite and >= 0.

    Raises :class:`BrokerError`: an infinite or NaN wait would park a
    server thread for good, and a negative one means nothing."""
    if (
        isinstance(wait_s, bool)
        or not isinstance(wait_s, numbers.Real)
        or not math.isfinite(wait_s)
        or wait_s < 0
    ):
        raise BrokerError(f"wait_s must be a finite number >= 0, got {wait_s!r}")
    return float(wait_s)


class _Waker:
    """The wake-up of one broker root in this process: a generation
    counter, bumped by every op that makes a task claimable or a result
    readable, and a condition that waiting ops park on."""

    def __init__(self):
        self.cond = threading.Condition()
        self.generation = 0

    def bump(self) -> None:
        with self.cond:
            self.generation += 1
            self.cond.notify_all()

    def wait(self, generation: int, timeout: float) -> None:
        """Park until the generation moves past ``generation`` or
        ``timeout`` seconds pass."""
        with self.cond:
            self.cond.wait_for(lambda: self.generation != generation, timeout)


#: One :class:`_Waker` per resolved broker root, not per broker: a
#: coordinator's own ``FilesystemBroker`` must wake on appends that reach
#: the same directory through a ``BrokerServer`` in this process.
_WAKERS: dict[str, _Waker] = {}
_WAKERS_LOCK = threading.Lock()


def _waker_for(key: str) -> _Waker:
    with _WAKERS_LOCK:
        waker = _WAKERS.get(key)
        if waker is None:
            waker = _WAKERS[key] = _Waker()
        return waker


def _reset_wakers_after_fork() -> None:
    # A forked child may inherit a condition locked by a thread it does
    # not have; it shares no threads with its parent, so start afresh.
    global _WAKERS_LOCK
    _WAKERS_LOCK = threading.Lock()
    _WAKERS.clear()


os.register_at_fork(after_in_child=_reset_wakers_after_fork)


def _b64(blob: bytes) -> str:
    return base64.b64encode(blob).decode("ascii")


def _unb64(text: str) -> bytes:
    return base64.b64decode(text.encode("ascii"))


@dataclass
class Claim:
    """A task leased to one worker (returned by :meth:`Broker.claim`)."""

    name: str
    task: EpisodeTask
    worker_id: str
    lease_s: float


class Broker:
    """The typed queue surface, shared by every backend.

    The coordinator calls :meth:`publish`, :meth:`read_results`,
    :meth:`requeue_expired` and :meth:`failures`; workers call
    :meth:`load_context`, :meth:`claim`, :meth:`heartbeat`,
    :meth:`append_result`, :meth:`release`/:meth:`fail` and
    :meth:`requeue_expired`.  Each method is one protocol op run through
    :meth:`_call` — pickling, :class:`Claim` building and row parsing
    happen here, on the caller's side, so whatever executes the op never
    unpickles anything.  A backend provides ``_call``:
    :class:`FilesystemBroker` runs the op in-process,
    :class:`~repro.core.netqueue.TcpBroker` sends it to a
    :class:`~repro.core.netqueue.BrokerServer`.  All ops must be safe
    under concurrent callers on different machines.
    """

    lease_s: float

    def _call(self, op: str, args: dict | None = None):
        """Run protocol op ``op`` with its JSON-able ``args``; returns
        the op's JSON-able result."""
        raise NotImplementedError

    def ensure_layout(self) -> None:
        """Create the backing store (a no-op where a server owns it)."""

    @staticmethod
    def _task_filename(task: EpisodeTask) -> str:
        # Grid index first so workers drain in roughly canonical order;
        # an identity digest after it so files are unique even if two
        # campaigns (accidentally) share a directory across resumes.
        digest = hashlib.sha1(repr(task.identity()).encode()).hexdigest()[:12]
        return f"{task.index:05d}_{digest}.task"

    def ping(self) -> dict:
        return self._call("ping")

    # -- coordinator side ----------------------------------------------

    def publish(
        self,
        context: CampaignContext,
        tasks: Sequence[EpisodeTask],
        spec: dict | None = None,
    ) -> None:
        """Make the campaign context and pending tasks claimable (see
        :meth:`FilesystemBroker.op_publish` for re-publish semantics).
        ``spec`` is a serialised :class:`~repro.core.spec.CampaignSpec`
        to archive beside the context."""
        named = [[self._task_filename(t), _b64(pickle.dumps(t))] for t in tasks]
        self._call(
            "publish",
            {"context": _b64(pickle.dumps(context)), "tasks": named, "spec": spec},
        )

    def manifest(self) -> dict | None:
        """The published campaign manifest, or ``None`` before publish."""
        return self._call("manifest")

    def status(self) -> dict:
        """Queue counts, for logging and doctors."""
        return self._call("status")

    def failures(self) -> list[dict]:
        """Error reports of failed tasks (empty when all is well)."""
        return self._call("failures")

    def requeue_expired(self) -> list[str]:
        """Return expired claims to the pending queue; list what moved."""
        return self._call("requeue_expired")

    def requeue_failed(self) -> list[str]:
        """Move failed tasks back to pending (retry after a fix)."""
        return self._call("requeue_failed")

    def quarantine(self, name: str) -> None:
        """Retire a parked failed task for good (coordinator decision)."""
        self._call("quarantine", {"name": name})

    def live_leases(self) -> int:
        """Claims whose lease has not (yet) expired."""
        return self._call("live_leases")

    def is_idle(self) -> bool:
        """No pending and no claimed tasks — nothing left to drain."""
        return self._call("is_idle")

    def claimed_names(self) -> list[str]:
        """Task names currently claimed — the in-flight episodes."""
        return self._call("claimed_names")

    def workers(self) -> list[dict]:
        """Per-worker liveness rows (observability, not correctness)."""
        return self._call("workers")

    # -- worker side ---------------------------------------------------

    def repair_results(self) -> int:
        """Drop a torn final checkpoint line so appends can resume."""
        return self._call("repair_results")

    def context_blob(self) -> bytes | None:
        """The published context, still pickled (``None`` before publish)."""
        blob = self._call("context")
        return None if blob is None else _unb64(blob)

    def load_context(self, timeout_s: float = 0.0) -> CampaignContext | None:
        """The published context, or ``None`` if none appears in time."""
        deadline = time.monotonic() + timeout_s
        while True:
            blob = self.context_blob()
            if blob is not None:
                return pickle.loads(blob)
            if time.monotonic() >= deadline:
                return None
            time.sleep(0.1)

    def _wait_arg(self, wait_s) -> dict:
        """The ``wait_s`` arg of a waiting op, only when it is > 0, so a
        frame that does not wait stays byte-identical to one sent before
        waits existed."""
        wait_s = _check_wait_s(wait_s)
        return {"wait_s": wait_s} if wait_s > 0 else {}

    def claim(
        self, worker_id: str, lease_s: float | None = None, wait_s: float = 0
    ) -> Claim | None:
        """Atomically take one pending task, or ``None`` if the queue is
        empty — after waiting up to ``wait_s`` for a task to arrive."""
        result = self._call(
            "claim",
            {"worker_id": worker_id, "lease_s": lease_s, **self._wait_arg(wait_s)},
        )
        if result is None:
            return None
        return Claim(
            name=result["name"],
            task=pickle.loads(_unb64(result["task"])),
            worker_id=worker_id,
            lease_s=float(result["lease_s"]),
        )

    def heartbeat(self, claim: Claim) -> None:
        """Refresh a claim's lease so it does not expire mid-episode."""
        self._call(
            "heartbeat",
            {"name": claim.name, "worker_id": claim.worker_id, "lease_s": claim.lease_s},
        )

    def release(self, claim: Claim) -> bool:
        """Retire a finished claim; False if the lease had already expired."""
        return bool(self._call("release", {"name": claim.name}))

    def fail(
        self,
        claim: Claim,
        error: BaseException | None = None,
        failure: EpisodeFailure | None = None,
    ) -> None:
        """Park a failed claim with its error report.

        With ``failure`` (the worker already exhausted the retry policy)
        the report carries the structured outcome dict — the coordinator
        reads it back to decide quarantine-vs-abort.  A bare ``error``
        marks an infrastructure fault (context unloadable, broker I/O),
        which always aborts the campaign.
        """
        if error is None and failure is not None:
            error = failure.exception
        tb_text = failure.traceback_text if failure is not None else ""
        self._call(
            "fail",
            {
                "name": claim.name,
                "worker_id": claim.worker_id,
                "error": repr(error) if error is not None else (
                    failure.error if failure is not None else ""
                ),
                # Rendered here: the exception context lives with the
                # caller, not with whatever runs the op.
                "traceback": tb_text or traceback.format_exc(),
                "failure": failure.to_dict() if failure is not None else None,
            },
        )

    def heartbeat_worker(self, worker_id: str, done: int) -> None:
        """Beat this process's liveness row (observability only)."""
        self._call(
            "heartbeat_worker",
            {
                "worker_id": worker_id,
                "done": int(done),
                "host": socket.gethostname(),
                "pid": os.getpid(),
            },
        )

    # -- results (the JSONL checkpoint) --------------------------------

    def append_result(self, record: RunRecord) -> None:
        """Durably append one finished record to the shared checkpoint."""
        self._call("append_row", {"row": record.to_dict()})

    def append_failure(self, failure: EpisodeFailure) -> None:
        """Durably append one quarantine row.  It lives in the same
        checkpoint as records — the ``outcome`` key is the discriminator
        (:mod:`~repro.core.resultlog`), and a resuming campaign folds
        both back, so it never re-runs a quarantined episode."""
        self._call("append_row", {"row": failure.to_dict()})

    def read_results(
        self, offset: int, wait_s: float = 0
    ) -> tuple[int, list[RunRecord]]:
        """New complete records past ``offset``, waiting up to ``wait_s``
        for a line to land; returns the next offset."""
        result = self._call(
            "read_results", {"offset": int(offset), **self._wait_arg(wait_s)}
        )
        return int(result["offset"]), build_rows(result["rows"], RunRecord)

    def checkpoint_rows(self) -> tuple[list[RunRecord], list[EpisodeFailure]]:
        """The full checkpoint, parsed — what a resuming coordinator
        whose only access is a broker connection folds to decide which
        episodes are still pending."""
        result = self._call("checkpoint_rows")
        return (
            build_rows(result["records"], RunRecord),
            build_rows(result["failures"], EpisodeFailure),
        )

    def result_identities(self) -> set[tuple[str, str, int, str]]:
        """Identities of every *settled* episode — completed records and
        quarantine rows alike (both mean "never run this again")."""
        records, failures = self.checkpoint_rows()
        return {record_identity(r) for r in records} | {
            record_identity(f) for f in failures
        }

    # -- artifacts (content-addressed warm-start blobs) ----------------

    def artifact_put(self, sha: str, blob: bytes) -> str:
        return self._call("artifact_put", {"sha": sha, "blob": _b64(blob)})

    def artifact_get(self, sha: str) -> bytes | None:
        blob = self._call("artifact_get", {"sha": sha})
        return None if blob is None else _unb64(blob)

    def artifact_has(self, sha: str) -> bool:
        return bool(self._call("artifact_has", {"sha": sha}))


def _write_atomic(path: Path, data: bytes) -> None:
    """Write via a same-directory temp file + rename so readers never see
    a partial file (rename is atomic on POSIX filesystems, NFS included)."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


class FilesystemBroker(Broker):
    """The reference :class:`Broker`: a shared directory, no server.

    Claiming is ``rename(tasks/X, claimed/X)`` — atomic, and it fails
    with ``FileNotFoundError`` for every worker but the winner.  Leases
    are small JSON files refreshed by the claimer's heartbeat thread;
    anyone may requeue a claim whose heartbeat is older than its lease.

    The ``op_<name>`` methods are the op table: they take the wire args
    and return JSON-able results, and :meth:`_call` runs them in-process.
    A :class:`~repro.core.netqueue.BrokerServer` serves the same table,
    so local and remote callers get the same checks — task names and
    worker ids are validated at the top of each op — and no op ever
    unpickles: blobs stay opaque, so a server can serve coordinators and
    workers of a different repro build (and a hostile frame cannot make
    it execute a pickle; workers only unpickle what their coordinator
    published, the same trust a shared directory needs).
    """

    def __init__(self, root: str | Path, lease_s: float = 60.0):
        self.root = Path(root)
        self.lease_s = check_lease_s(lease_s)
        self.tasks_dir = self.root / "tasks"
        self.claimed_dir = self.root / "claimed"
        self.leases_dir = self.root / "leases"
        self.failed_dir = self.root / "failed"
        self.quarantined_dir = self.root / "quarantined"
        self.workers_dir = self.root / "workers"
        self.results_path = self.root / "results.jsonl"
        self.results_log = ResultLog(self.results_path)
        self.context_path = self.root / "context.pkl"
        self.manifest_path = self.root / "manifest.json"
        #: Optional archived CampaignSpec (JSON) — written by publish()
        #: when the campaign came from a declarative spec.
        self.spec_path = self.root / "spec.json"
        #: Which :class:`_Waker` this root's ops bump and wait on.
        self._wake_key = os.path.realpath(self.root)

    def _call(self, op: str, args: dict | None = None):
        handler = getattr(self, f"op_{op}", None)
        if handler is None:
            raise BrokerError(f"unknown broker op {op!r}")
        return handler(**(args or {}))

    # -- layout --------------------------------------------------------

    def ensure_layout(self) -> None:
        for d in (self.tasks_dir, self.claimed_dir, self.leases_dir,
                  self.failed_dir, self.quarantined_dir, self.workers_dir):
            d.mkdir(parents=True, exist_ok=True)

    def _list(self, directory: Path) -> list[str]:
        try:
            return sorted(n for n in os.listdir(directory) if n.endswith(".task"))
        except FileNotFoundError:
            return []

    def _lease_path(self, name: str) -> Path:
        return self.leases_dir / f"{Path(name).stem}.json"

    def _wake(self) -> None:
        """Wake this process's waiting ops on this root.  Processes that
        share the directory are not woken: their waits run out."""
        _waker_for(self._wake_key).bump()

    def _wait_for(self, attempt, wait_s, until_result: bool = True):
        """``attempt()`` until it returns something other than ``None``,
        parked between tries until an op on this root wakes it, for up
        to ``wait_s`` (clamped to :data:`MAX_WAIT_S`) in all.  With
        ``until_result`` false it tries once more after the first wake
        and returns whatever that gives."""
        waker = _waker_for(self._wake_key)
        deadline = time.monotonic() + min(_check_wait_s(wait_s), MAX_WAIT_S)
        while True:
            # Read before the attempt: a wake that lands between the
            # attempt and the park moves the generation, so it is not lost.
            generation = waker.generation
            result = attempt()
            if result is not None:
                return result
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return None
            if not self._park(waker, generation, remaining):
                return None
            if not until_result:
                return attempt()

    def _park(self, waker: _Waker, generation: int, timeout: float) -> bool:
        """Wait for a wake past ``generation`` or ``timeout``; whether the
        waiting op may try again (a served broker that was closed in the
        meantime says no)."""
        waker.wait(generation, timeout)
        return True

    def op_ping(self) -> dict:
        return {
            "protocol": PROTOCOL_VERSION,
            "pid": os.getpid(),
            "host": socket.gethostname(),
        }

    # -- coordinator side ----------------------------------------------

    def op_publish(self, context: str, tasks: list, spec: dict | None = None) -> None:
        """Write the context and sync ``tasks/`` to the pending set.

        ``tasks`` pairs each :meth:`_task_filename` with its pickle.
        Re-publishing (a resumed coordinator) is safe: failed tasks are
        returned for retry, stale entries not in the new pending set are
        dropped — from ``tasks/`` *and* ``claimed/`` (an orphaned claim
        of an already-completed or foreign-config task would otherwise
        expire, requeue, and burn a worker on work outside this grid) —
        and currently-claimed tasks of this grid are left to their
        workers.

        ``spec`` is archived as ``spec.json`` next to the pickled
        context: a human- and machine-readable record of what campaign
        this broker serves, portable across repro versions in a way the
        pickle is not.
        """
        wanted = {_check_task_name(name): _unb64(blob) for name, blob in tasks}
        context_blob = _unb64(context)
        self.ensure_layout()
        if spec is not None:
            _write_atomic(
                self.spec_path, (json.dumps(spec, indent=2) + "\n").encode()
            )
        # Context and manifest land BEFORE the task files.  The ordering
        # is load-bearing: once a new task is claimable, the context it
        # must run under (and the manifest hash long-lived workers use to
        # notice a re-publish) is already visible — the reverse order
        # lets a worker claim a re-published task and execute it against
        # the previous campaign's fault objects, checkpointing wrong
        # results under the new fingerprint.  The cost is benign: a
        # worker attaching mid-publish may see the context with an empty
        # queue, but it keeps polling for ``idle_timeout`` (and task
        # files follow within milliseconds); a worker claiming a stale
        # task with the new context produces a foreign-fingerprint row
        # the grid fold ignores.
        _write_atomic(self.context_path, context_blob)
        _write_atomic(
            self.manifest_path,
            json.dumps(
                {
                    "n_tasks": len(tasks),
                    "lease_s": self.lease_s,
                    "created_at": time.time(),
                    "coordinator": f"{socket.gethostname()}:{os.getpid()}",
                    # Long-lived workers compare this to detect a
                    # re-publish with changed configuration and reload.
                    "context_sha": hashlib.sha1(context_blob).hexdigest(),
                }
            ).encode(),
        )
        self.op_requeue_failed()
        existing = set(self._list(self.tasks_dir))
        claimed = set(self._list(self.claimed_dir))
        for name in existing - wanted.keys():
            (self.tasks_dir / name).unlink(missing_ok=True)
        for name in claimed - wanted.keys():
            # If a live worker still holds this orphan, its release()
            # simply reports the claim lost; a duplicate record dedupes.
            self._lease_path(name).unlink(missing_ok=True)
            (self.claimed_dir / name).unlink(missing_ok=True)
        for name, blob in wanted.items():
            if name in existing or name in claimed:
                continue
            _write_atomic(self.tasks_dir / name, blob)
        self._wake()

    def op_manifest(self) -> dict | None:
        try:
            return json.loads(self.manifest_path.read_text())
        except (FileNotFoundError, json.JSONDecodeError):
            return None

    def op_requeue_failed(self) -> list[str]:
        """The failed→pending round-trip preserves the task payload byte
        for byte (it is a rename) and clears the parked error report, so
        a retried task starts with a clean slate."""
        recovered = []
        for name in self._list(self.failed_dir):
            try:
                os.rename(self.failed_dir / name, self.tasks_dir / name)
            except FileNotFoundError:
                continue
            (self.failed_dir / f"{name}.error.json").unlink(missing_ok=True)
            recovered.append(name)
        if recovered:
            self._wake()
        return recovered

    def op_quarantine(self, name: str) -> None:
        """The coordinator decided (within the campaign's failure budget)
        to give this episode up, so a later re-publish must NOT requeue
        it.  The task pickle and its error report move to
        ``quarantined/`` as the post-mortem artifact."""
        _check_task_name(name)
        self.ensure_layout()
        try:
            os.rename(self.failed_dir / name, self.quarantined_dir / name)
        except FileNotFoundError:
            pass  # already quarantined (or requeued) by someone else
        error_name = f"{name}.error.json"
        try:
            os.rename(self.failed_dir / error_name, self.quarantined_dir / error_name)
        except FileNotFoundError:
            pass

    def op_failures(self) -> list[dict]:
        out = []
        try:
            names = sorted(os.listdir(self.failed_dir))
        except FileNotFoundError:
            return []
        for name in names:
            if not name.endswith(".error.json"):
                continue
            try:
                out.append(json.loads((self.failed_dir / name).read_text()))
            except (OSError, json.JSONDecodeError):
                continue
        return out

    def op_status(self) -> dict:
        return {
            "pending": len(self._list(self.tasks_dir)),
            "claimed": len(self._list(self.claimed_dir)),
            "failed": len(self._list(self.failed_dir)),
            "quarantined": len(self._list(self.quarantined_dir)),
            "results": len(self.result_identities()),
        }

    # -- worker side ---------------------------------------------------

    def op_context(self) -> str | None:
        try:
            return _b64(self.context_path.read_bytes())
        except FileNotFoundError:
            return None

    def op_claim(
        self, worker_id: str, lease_s: float | None = None, wait_s: float = 0
    ) -> dict | None:
        """Atomically take one pending task, with its lease already
        written; the task blob stays opaque.  On an empty queue, wait up
        to ``wait_s`` for a publish or requeue on this root."""
        _check_worker_id(worker_id)
        lease_s = self.lease_s if lease_s is None else check_lease_s(lease_s)
        return self._wait_for(lambda: self._claim_once(worker_id, lease_s), wait_s)

    def _claim_once(self, worker_id: str, lease_s: float) -> dict | None:
        for name in self._list(self.tasks_dir):
            claimed = self.claimed_dir / name
            try:
                os.rename(self.tasks_dir / name, claimed)
            except FileNotFoundError:
                continue  # another worker won this rename
            # Reset the claim's age NOW: the rename preserved the task
            # file's publish-time mtime, and until our lease file lands
            # the expiry check falls back to that mtime — a task that sat
            # pending longer than the lease would look instantly expired
            # and a concurrent requeue_expired() could steal it back.
            now = time.time()
            try:
                os.utime(claimed, (now, now))
            except FileNotFoundError:
                continue  # stolen in the utime window; harmless, move on
            except OSError:
                # utimensat with explicit times needs file ownership; a
                # worker running as a different user than the coordinator
                # (shared NFS dir) gets EPERM.  The lease write below
                # covers the age window within milliseconds anyway.
                pass
            try:
                blob = claimed.read_bytes()
            except FileNotFoundError:
                continue  # stolen before our lease landed; move on
            self.op_heartbeat(name, worker_id, lease_s)
            return {"name": name, "task": _b64(blob), "lease_s": lease_s}
        return None

    def op_heartbeat(self, name: str, worker_id: str, lease_s: float) -> None:
        # Stamped with this machine's clock: behind a BrokerServer, worker
        # skew cannot fake or hide an expiry.
        _check_task_name(name)
        _write_atomic(
            self._lease_path(name),
            json.dumps(
                {
                    "task": name,
                    "worker": worker_id,
                    "heartbeat_at": time.time(),
                    "lease_s": check_lease_s(lease_s),
                }
            ).encode(),
        )

    def op_release(self, name: str) -> bool:
        _check_task_name(name)
        self._lease_path(name).unlink(missing_ok=True)
        try:
            os.unlink(self.claimed_dir / name)
            return True
        except FileNotFoundError:
            # The lease expired and someone requeued the task while we
            # were (slowly) finishing; the rerun will dedupe by identity.
            return False

    def op_fail(
        self,
        name: str,
        worker_id: str = "?",
        error: str = "",
        traceback: str = "",
        failure: dict | None = None,
    ) -> None:
        """Park a claim with its report, already flattened to strings and
        a dict — no exception is reconstructed here."""
        _check_task_name(name)
        self._lease_path(name).unlink(missing_ok=True)
        try:
            os.rename(self.claimed_dir / name, self.failed_dir / name)
        except FileNotFoundError:
            return  # requeued from under us; let the retry speak for itself
        _write_atomic(
            self.failed_dir / f"{name}.error.json",
            json.dumps(
                {
                    "task": name,
                    "worker": worker_id,
                    "error": error,
                    "traceback": traceback,
                    "failed_at": time.time(),
                    "failure": failure,
                }
            ).encode(),
        )
        self._wake()

    def op_heartbeat_worker(
        self,
        worker_id: str,
        done: int = 0,
        host: str | None = None,
        pid: int | None = None,
    ) -> None:
        """Per-worker liveness file (observability, not correctness).

        Callers are expected to have run :meth:`ensure_layout` once at
        attach — no per-beat mkdir chatter against a shared mount.
        ``host``/``pid`` name the beating worker, which behind a
        :class:`~repro.core.netqueue.BrokerServer` is not this process.
        """
        _check_worker_id(worker_id)
        _write_atomic(
            self.workers_dir / f"{worker_id}.json",
            json.dumps(
                {
                    "worker": worker_id,
                    "host": host if host is not None else socket.gethostname(),
                    "pid": pid if pid is not None else os.getpid(),
                    "heartbeat_at": time.time(),
                    "episodes_done": int(done),
                }
            ).encode(),
        )

    def op_workers(self) -> list[dict]:
        """Each row is the worker's own heartbeat payload plus ``age_s``:
        seconds since the *fresher* of the embedded ``heartbeat_at`` and
        the heartbeat file's mtime, clamped non-negative.  Judging by the
        embedded timestamp alone turns clock skew into a lie — a worker
        whose clock lags by minutes would be reported stale (and a worker
        whose clock leads would look alive long after dying), even while
        it rewrites its heartbeat file every few seconds.  The mtime is
        stamped when the file lands (server-side on typical shared
        mounts), so a freshly-rewritten heartbeat always reads as fresh
        regardless of what clock the worker carries.
        """
        now = time.time()
        rows: list[dict] = []
        try:
            names = sorted(os.listdir(self.workers_dir))
        except FileNotFoundError:
            return rows
        for fname in names:
            if not fname.endswith(".json"):
                continue
            path = self.workers_dir / fname
            try:
                beat = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError):
                rows.append(
                    {"worker": fname[:-5], "age_s": None, "error": "unreadable heartbeat"}
                )
                continue
            stamps = []
            heartbeat_at = beat.get("heartbeat_at")
            if isinstance(heartbeat_at, (int, float)):
                stamps.append(float(heartbeat_at))
            try:
                stamps.append(path.stat().st_mtime)
            except OSError:
                pass
            row = dict(beat) if isinstance(beat, dict) else {"worker": fname[:-5]}
            row["age_s"] = max(0.0, now - max(stamps)) if stamps else None
            rows.append(row)
        return rows

    # -- lease expiry --------------------------------------------------

    def _lease_expired(self, name: str, now: float) -> bool:
        try:
            lease = json.loads(self._lease_path(name).read_text())
            heartbeat_at = float(lease["heartbeat_at"]) + 0.0  # TypeError on junk
            lease_s = float(lease["lease_s"])
            # Same skew guard as op_workers(): a claimer whose clock lags
            # writes heartbeats stamped "in the past"; trusting the
            # embedded time alone would expire its lease the instant it
            # lands and requeue a task that is actively running (a
            # duplicate-execution storm).  The lease file is rewritten
            # every heartbeat, so its mtime tracks real freshness.
            try:
                heartbeat_at = max(heartbeat_at, self._lease_path(name).stat().st_mtime)
            except OSError:
                pass
            return heartbeat_at + lease_s < now
        except (FileNotFoundError, json.JSONDecodeError, KeyError, TypeError, ValueError):
            # Claim without a readable lease: the claimer crashed between
            # rename and lease write (or tore the file); judge by the
            # claimed file's age with the default lease as grace.
            try:
                return now - (self.claimed_dir / name).stat().st_mtime > self.lease_s
            except FileNotFoundError:
                return False

    def op_requeue_expired(self) -> list[str]:
        now = time.time()
        requeued = []
        for name in self._list(self.claimed_dir):
            if not self._lease_expired(name, now):
                continue
            self._lease_path(name).unlink(missing_ok=True)
            try:
                os.rename(self.claimed_dir / name, self.tasks_dir / name)
            except FileNotFoundError:
                continue  # finished (or requeued) concurrently
            requeued.append(name)
        if requeued:
            self._wake()
        return requeued

    def op_live_leases(self) -> int:
        now = time.time()
        return sum(
            1 for name in self._list(self.claimed_dir)
            if not self._lease_expired(name, now)
        )

    def op_claimed_names(self) -> list[str]:
        """Names start with the 5-digit grid index (see
        :meth:`_task_filename`), which is how the campaign service maps a
        claim back to "episode N is running"."""
        return self._list(self.claimed_dir)

    def op_is_idle(self) -> bool:
        return not self._list(self.tasks_dir) and not self._list(self.claimed_dir)

    # -- results (the JSONL checkpoint) --------------------------------

    def op_repair_results(self) -> int:
        """A torn final line comes from a crashed non-atomic writer or
        filesystem-level truncation."""
        return self.results_log.repair()

    def op_append_row(self, row: dict) -> None:
        self.results_log.append(row)
        self._wake()

    def op_checkpoint_rows(self) -> dict:
        _, records, failures = self.results_log.read(0)
        return {"records": records, "failures": failures}

    def op_read_results(self, offset: int = 0, wait_s: float = 0) -> dict:
        """The rows without an ``outcome`` key on complete lines past
        ``offset``, unbuilt (:meth:`Broker.read_results` builds them and
        drops a foreign row).  When there are none yet, waits up to
        ``wait_s`` for the next op on this root that wakes waiters (an
        append, but also a parked failure, a publish or a requeue) and
        reads once more, so an empty answer before ``wait_s`` ran out
        tells the caller something else changed.  A trailing partial
        line (an append in flight on another machine) stays unread until
        the next read."""
        offset = int(offset)
        return self._wait_for(
            lambda: self._read_results_once(offset), wait_s, until_result=False
        ) or {"offset": offset, "rows": []}

    def _read_results_once(self, offset: int) -> dict | None:
        end, records, _ = self.results_log.read(offset)
        return {"offset": end, "rows": records} if end > offset else None

    # -- artifacts (content-addressed warm-start blobs) ----------------

    @property
    def artifacts(self):
        """Content-addressed blob store under ``<root>/artifacts/`` —
        how NN agent weights ship *once per worker* instead of once per
        context pickle (see :mod:`repro.core.artifacts`).  Lazy so
        queue-only deployments never touch the directory."""
        from .artifacts import ArtifactStore

        return ArtifactStore(self.root / "artifacts")

    def op_artifact_put(self, sha: str, blob: str) -> str:
        return self.artifacts.put(_unb64(blob), sha=sha)

    def op_artifact_get(self, sha: str) -> str | None:
        blob = self.artifacts.get(sha)
        return None if blob is None else _b64(blob)

    def op_artifact_has(self, sha: str) -> bool:
        return self.artifacts.has(sha)


# ----------------------------------------------------------------------
# Worker
# ----------------------------------------------------------------------


class _LeaseKeeper:
    """Background thread refreshing one claim's lease while it executes."""

    def __init__(self, broker: Broker, claim: Claim):
        self._broker = broker
        self._claim = claim
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        interval = max(self._claim.lease_s / 4.0, 0.05)
        while not self._stop.wait(interval):
            self._broker.heartbeat(self._claim)

    def __enter__(self) -> "_LeaseKeeper":
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop beating; once this returns, no beat is in flight."""
        self._stop.set()
        self._thread.join(timeout=5.0)

    def __exit__(self, *exc) -> None:
        self.stop()


def default_worker_id() -> str:
    return f"{socket.gethostname()}-{os.getpid()}"


def _sigterm_to_exit(signum, frame):
    raise SystemExit(143)


def run_worker(
    queue_dir: str | Path,
    worker_id: str | None = None,
    lease_s: float = 60.0,
    poll_s: float = 0.5,
    idle_timeout: float = 5.0,
    max_tasks: int | None = None,
    verbose: bool = False,
    broker: Broker | None = None,
    chaos: dict | None = None,
    episodes_per_slot: int | None = None,
) -> int:
    """Attach to a broker directory and drain tasks until the queue is idle.

    This is what ``avfi worker --queue-dir DIR`` runs.  The loop:
    requeue any expired leases, claim a task, skip it if its identity is
    already in the results (a lease that expired *after* its worker
    finished), execute it under a heartbeating lease — honouring the
    campaign's :class:`~repro.core.outcomes.FaultTolerancePolicy`
    (retries with backoff, per-attempt wall-clock sandbox) via
    :func:`~repro.core.runner.attempt_task` — append the record to the
    shared checkpoint, release.  An episode whose attempts are exhausted
    parks the task in ``failed/`` with its structured
    :class:`~repro.core.outcomes.EpisodeFailure`; the *coordinator*
    decides quarantine-vs-abort (workers cannot see each other's
    failures, so the campaign-level budget cannot live here).

    ``queue_dir`` may also be a broker URL (``tcp://host:port``) — the
    worker then drains a remote :class:`~repro.core.netqueue.BrokerServer`
    instead of a shared directory (see
    :func:`~repro.core.netqueue.make_broker`).

    ``broker`` substitutes a pre-built broker (chaos tests wrap the
    filesystem one); ``chaos`` is a picklable kwargs dict — for
    :class:`~repro.core.chaos.ChaosBroker` on a filesystem broker, for
    :class:`~repro.core.chaos.NetworkChaos` on a TCP one (see
    :func:`~repro.core.chaos.apply_chaos`) — applied to this worker's
    own broker: the form local drain processes can receive across
    ``fork``.

    When the published campaign multiplexes
    (``context.episodes_per_slot > 1``, or an explicit
    ``episodes_per_slot`` override here), the worker claims up to a full
    slot of tasks per cycle and drains them through one
    :class:`~repro.core.multiplex.EpisodeMultiplexer` — every claim's
    lease heartbeats until its own episode finishes, and that episode's
    record/failure then retires the claim.  Output stays
    byte-identical to single-task draining.

    ``poll_s`` is the longest the first claim of a cycle waits for a
    task: a broker server wakes it as soon as one is published or
    requeued, and over a shared directory it runs out, so the loop polls
    at that period.

    Exits once ``tasks/`` and ``claimed/`` have stayed empty for
    ``idle_timeout`` seconds — i.e. nothing is pending and no live lease
    could still expire back into the queue, or once it has run
    ``max_tasks`` claims to an end, completed or parked as failed.
    Returns the number of episodes this worker completed; ``verbose``
    also prints which of the two ended the drain.
    """
    worker_id = worker_id or default_worker_id()
    if broker is None:
        from .netqueue import make_broker  # deferred: netqueue imports this module

        broker = make_broker(queue_dir, lease_s=lease_s)
    if chaos:
        from .chaos import apply_chaos  # deferred: chaos imports this module

        broker = apply_chaos(broker, chaos)
    # QueueExecutor shuts local drain workers down with SIGTERM; turn it
    # into a normal SystemExit so ``finally`` blocks run — in particular
    # attempt_task's sandbox reap, which otherwise orphans a hung episode
    # child to sleep out its bounded hang.  Only the main thread may set
    # signal handlers; inside one (embedded/test use) keep the default.
    import signal

    previous_handler = None
    try:
        previous_handler = signal.signal(signal.SIGTERM, _sigterm_to_exit)
    except ValueError:
        pass
    try:
        return _drain(
            broker,
            worker_id,
            lease_s,
            poll_s,
            idle_timeout,
            max_tasks,
            verbose,
            episodes_per_slot,
        )
    finally:
        if previous_handler is not None:
            signal.signal(signal.SIGTERM, previous_handler)


def _drain(
    broker,
    worker_id: str,
    lease_s: float,
    poll_s: float,
    idle_timeout: float,
    max_tasks: int | None,
    verbose: bool,
    episodes_per_slot: int | None = None,
) -> int:
    context = broker.load_context(timeout_s=idle_timeout)
    if context is None:
        if verbose:
            print(f"[worker {worker_id}] no campaign published; exiting")
        return 0
    broker.ensure_layout()
    broker.repair_results()
    # Warm this worker's scene cache exactly like a pool worker would.
    _init_worker(context)
    policy = context_policy(context)
    context_sha = (broker.manifest() or {}).get("context_sha")
    done = 0
    # Claims this worker ran to an end, completed or parked: what
    # ``max_tasks`` limits (``done`` counts only the completed ones).
    retired = 0
    idle_since: float | None = None
    # Incremental view of the results checkpoint for the finish-after-
    # expiry dedupe below: re-parsing the whole (growing) JSONL before
    # every claim would make the drain loop quadratic in campaign size.
    seen_identities: set[tuple[str, str, int, str]] = set()
    results_offset = 0
    # Liveness beats are observability only — rate-limit them like the
    # lease keeper instead of rewriting the file every poll iteration.
    beat_interval = max(lease_s / 4.0, 1.0)
    last_beat = float("-inf")
    # Expiry can only happen on a lease_s timescale; scanning claimed/
    # and leases/ every poll tick is pure shared-mount metadata chatter.
    scan_interval = max(poll_s, min(lease_s / 4.0, 5.0))
    last_scan = float("-inf")
    while True:
        now = time.monotonic()
        if now - last_beat >= beat_interval:
            broker.heartbeat_worker(worker_id, done)
            last_beat = now
        if now - last_scan >= scan_interval:
            broker.requeue_expired()
            last_scan = now
        # The cycle's first claim waits for work: a broker server wakes
        # it the moment a task is published or requeued.
        claim = broker.claim(worker_id, lease_s, wait_s=poll_s)
        if claim is None:
            if broker.is_idle():
                if idle_since is None:
                    idle_since = time.monotonic()
                elif time.monotonic() - idle_since >= idle_timeout:
                    ending = "queue idle"
                    break
            else:
                idle_since = None
            continue
        idle_since = None
        # A long-lived worker can outlive the campaign it attached to: a
        # re-publish against the same directory (retuned faults, new
        # suite) swaps the context, and executing new tasks against the
        # old injector objects would checkpoint wrong results under the
        # new fingerprints.  The manifest's context hash detects that.
        current_sha = (broker.manifest() or {}).get("context_sha")
        if current_sha != context_sha:
            fresh_context = broker.load_context()
            if fresh_context is not None:
                context = fresh_context
                _init_worker(context)
                policy = context_policy(context)
            context_sha = current_sha
            if verbose:
                print(f"[worker {worker_id}] campaign re-published; context reloaded")
        # Fill this worker's multiplexed slot: the published context
        # carries the campaign's episodes_per_slot, an explicit worker
        # override wins.  Slot size 1 degenerates to the classic
        # one-claim-at-a-time drain (the multiplexer's serial path).
        slot = (
            max(1, int(episodes_per_slot))
            if episodes_per_slot is not None
            else multiplex_slot_size(context)
        )
        if max_tasks is not None:
            slot = max(1, min(slot, max_tasks - retired))
        claims = [claim]
        # Slot-filling claims never wait: the lease keepers of the claims
        # already held start only once the slot is full.
        while len(claims) < slot:
            extra = broker.claim(worker_id, lease_s)
            if extra is None:
                break
            claims.append(extra)
        results_offset, fresh = broker.read_results(results_offset)
        seen_identities.update(record_identity(r) for r in fresh)
        runnable: list[Claim] = []
        for claim in claims:
            if claim.task.identity() in seen_identities:
                # A previous holder finished after losing its lease; the
                # record is already checkpointed — retire, don't re-run.
                broker.release(claim)
            else:
                runnable.append(claim)
        if not runnable:
            continue
        by_identity = {c.task.identity(): c for c in runnable}
        mux = EpisodeMultiplexer(context, episodes_per_slot=slot, policy=policy)
        try:
            with ExitStack() as leases:
                keepers = {
                    identity: leases.enter_context(_LeaseKeeper(broker, claim))
                    for identity, claim in by_identity.items()
                }
                for task, result in mux.run([c.task for c in runnable]):
                    claim = by_identity.pop(task.identity())
                    # Stop this claim's beats before retiring it: a beat
                    # landing after the release would rewrite the lease of
                    # a task nobody holds any more.
                    keepers.pop(task.identity()).stop()
                    retired += 1
                    if isinstance(result, EpisodeFailure):
                        # Attempts exhausted: park the structured failure
                        # for the coordinator's budget decision.  Never
                        # appended to results here — only the coordinator
                        # may declare quarantine, and a budget-exceeded
                        # abort must leave the task resumable.
                        broker.fail(claim, failure=result)
                        if verbose:
                            print(
                                f"[worker {worker_id}] {claim.name} "
                                f"{result.outcome} after {result.attempts} "
                                f"attempt(s): {result.error}"
                            )
                        continue
                    record = result
                    broker.append_result(record)
                    broker.release(claim)
                    done += 1
                    if verbose:
                        status = "ok " if record.success else "FAIL"
                        print(
                            f"[worker {worker_id}] {claim.name} "
                            f"{record.injector:>12} {record.scenario:>8} "
                            f"{status} {record.n_violations} violations"
                        )
        except Exception as exc:  # noqa: BLE001 — infra error: park, keep draining
            # Claims whose episodes already finished were retired above;
            # everything still held parks with the error so the
            # coordinator sees it and a re-publish can retry.
            for claim in by_identity.values():
                broker.fail(claim, error=exc)
                retired += 1
                if verbose:
                    print(f"[worker {worker_id}] {claim.name} FAILED: {exc!r}")
        if max_tasks is not None and retired >= max_tasks:
            ending = f"reached max_tasks ({retired} claims retired)"
            break
    broker.heartbeat_worker(worker_id, done)
    if verbose:
        print(f"[worker {worker_id}] {ending}; completed {done} episode(s)")
    return done


# ----------------------------------------------------------------------
# Coordinator executor
# ----------------------------------------------------------------------


class QueueExecutor:
    """Queue-backed executor satisfying the campaign's executor protocol.

    :meth:`run` publishes the pending grid into the broker, optionally
    spawns ``workers`` local drain processes (so ``executor="queue"``
    works standalone on one machine), then reads the shared results
    checkpoint and yields ``(task, record)`` pairs as remote workers land
    them — the campaign folds these back into grid order exactly as with
    the in-process executors.  Each read waits up to ``poll_s`` for the
    next row; an append through a broker in this process (the
    ``avfi serve`` case) wakes it at once, so ``poll_s`` bounds only the
    cadence against workers that share a directory.  Expired leases are
    requeued from the coordinator as well, so a campaign survives worker
    deaths even when every other worker is busy.

    The broker's ``results.jsonl`` *is* the campaign checkpoint: the
    campaign adopts it (``checkpoint_path``) and skips its own appends,
    since workers already wrote each record durably.
    """

    name = "queue"

    def __init__(
        self,
        queue_dir: str | Path,
        workers: int = 0,
        lease_s: float = 60.0,
        poll_s: float = 0.2,
        stall_timeout: float | None = None,
        worker_idle_timeout: float = 5.0,
        chaos: dict | None = None,
    ):
        if workers < 0:
            raise ValueError(f"workers must be >= 0 (got {workers})")
        from .netqueue import is_broker_url, make_broker  # deferred: imports us

        self.broker = make_broker(queue_dir, lease_s=lease_s)
        # Keep broker URLs as strings: Path("tcp://h:p") collapses the
        # double slash, corrupting what _spawn_local_workers hands back
        # to run_worker.
        self.queue_dir = queue_dir if is_broker_url(queue_dir) else Path(queue_dir)
        self.workers = workers
        self.lease_s = float(lease_s)
        self.poll_s = float(poll_s)
        #: Raise if no progress and no live lease for this long (None =
        #: wait forever for workers on other machines to attach).
        self.stall_timeout = stall_timeout
        self.worker_idle_timeout = float(worker_idle_timeout)
        #: ChaosBroker kwargs injected into each local drain worker
        #: (chaos testing; each worker gets a distinct derived seed).
        self.chaos = dict(chaos) if chaos else None
        self._spec: dict | None = None

    def publish_spec(self, spec: dict) -> None:
        """Attach a serialised campaign spec; archived at :meth:`run`'s
        publish as the broker's ``spec.json`` (see
        :meth:`Broker.publish`)."""
        self._spec = spec

    @property
    def checkpoint_path(self) -> Path | None:
        """The shared JSONL checkpoint workers append to — ``None`` when
        the broker is remote (TCP): the checkpoint then lives on the
        server, reachable through :meth:`resume_rows` instead of as a
        local file the campaign could adopt."""
        return getattr(self.broker, "results_path", None)

    def resume_rows(self):
        """``(records, failures)`` already in the broker's checkpoint —
        what the campaign folds as completed work when it has no local
        checkpoint file to read (the remote-broker case)."""
        return self.broker.checkpoint_rows()

    def _spawn_local_workers(self) -> list:
        import multiprocessing

        procs = []
        for i in range(self.workers):
            chaos = None
            if self.chaos is not None:
                # Decorrelate workers: identical chaos schedules on every
                # worker would synchronise their misbehaviour instead of
                # exercising races.
                chaos = dict(self.chaos)
                chaos["seed"] = int(chaos.get("seed", 0)) + i
            proc = multiprocessing.Process(
                target=run_worker,
                kwargs=dict(
                    queue_dir=str(self.queue_dir),
                    worker_id=f"local-{os.getpid()}-{i}",
                    lease_s=self.lease_s,
                    poll_s=max(self.poll_s / 2.0, 0.05),
                    idle_timeout=self.worker_idle_timeout,
                    chaos=chaos,
                ),
                # Not daemonic: a policy with timeout_s forks sandbox
                # children per attempt, and daemonic processes may not
                # have children.  Shutdown is explicit (terminate→kill
                # escalation in run()'s finally) instead of implicit.
                daemon=False,
            )
            proc.start()
            procs.append(proc)
        return procs

    def run(
        self,
        context: CampaignContext,
        tasks: Sequence[EpisodeTask],
        stop: threading.Event | None = None,
    ) -> Iterator[tuple[EpisodeTask, RunRecord | EpisodeFailure]]:
        """Yield ``(task, outcome)`` as workers complete episodes.

        Workers park terminal episode failures in ``failed/`` with their
        structured :class:`~repro.core.outcomes.EpisodeFailure`; this
        loop yields each one to the campaign, which decides its fate.  If
        ``stop`` is still clear when iteration resumes, the campaign
        admitted it: the quarantine row goes to the shared checkpoint
        and the task retires to ``quarantined/``.  If the campaign set
        ``stop`` instead, the task stays parked in ``failed/`` (so a
        re-publish retries it) and the loop ends; records the workers
        already appended are in the checkpoint either way.  An
        unstructured park (infrastructure failure) or a stalled queue
        raises after every completed record was yielded.
        """
        tasks = list(tasks)
        if not tasks:
            return
        stop = stop if stop is not None else threading.Event()
        by_identity = {task.identity(): task for task in tasks}
        pending = set(by_identity)
        self.broker.publish(context, tasks, spec=self._spec)
        procs = self._spawn_local_workers()
        offset = 0
        last_progress = time.monotonic()
        # Expiry/failure/lease scans read every lease file in claimed/;
        # on a shared mount that is metadata traffic other participants
        # pay for, and nothing there changes faster than lease_s anyway.
        scan_interval = max(self.poll_s, min(self.lease_s / 4.0, 5.0))
        last_scan = float("-inf")
        try:
            while pending and not stop.is_set():
                # Waits for the next appended row; an append through a
                # broker in this process (a BrokerServer on the same
                # root) wakes it at once.  So does a parked failure, and
                # a read that comes back empty before its wait ran out
                # reads the failures now rather than at the next scan.
                read_at = time.monotonic()
                offset, fresh = self.broker.read_results(offset, wait_s=self.poll_s)
                woken = not fresh and time.monotonic() - read_at < self.poll_s
                progressed = False
                for record in fresh:
                    identity = record_identity(record)
                    if identity in pending:
                        pending.discard(identity)
                        progressed = True
                        yield by_identity[identity], record
                if not pending:
                    break
                now = time.monotonic()
                scan_due = now - last_scan >= scan_interval
                if scan_due:
                    last_scan = now
                    self.broker.requeue_expired()
                if scan_due or woken:
                    for report in self.broker.failures():
                        fdict = report.get("failure")
                        if fdict is None:
                            # Unstructured park = infrastructure fault;
                            # no budget applies. Left parked: re-publish
                            # retries it after the operator intervenes.
                            raise RuntimeError(
                                f"queue worker {report.get('worker')} failed on "
                                f"{report.get('task')}: {report.get('error')}\n"
                                f"{report.get('traceback', '')}"
                            )
                        failure = EpisodeFailure.from_dict(fdict)
                        failure.traceback_text = report.get("traceback") or ""
                        identity = record_identity(failure)
                        if identity not in pending:
                            # Stale park (task of a previous publish, or
                            # a duplicate holder losing a race with a
                            # completed record): journal it and move on.
                            self.broker.quarantine(str(report.get("task")))
                            continue
                        yield by_identity[identity], failure
                        if stop.is_set():
                            return
                        self.broker.append_failure(failure)
                        self.broker.quarantine(str(report.get("task")))
                        pending.discard(identity)
                        progressed = True
                if not pending:
                    break
                if progressed:
                    last_progress = now
                elif scan_due:
                    if self.broker.live_leases():
                        last_progress = now
                    elif procs and not any(p.is_alive() for p in procs):
                        # Inline mode: our own drain processes all exited
                        # (idle or crashed) yet episodes remain and nobody
                        # holds a lease — nothing will ever progress.
                        raise RuntimeError(
                            f"all {len(procs)} local queue workers exited with "
                            f"{len(pending)} episode(s) still pending "
                            f"(queue dir: {self.queue_dir})"
                        )
                if (
                    self.stall_timeout is not None
                    and time.monotonic() - last_progress > self.stall_timeout
                ):
                    raise RuntimeError(
                        f"queue stalled: no completed episode and no live "
                        f"worker lease for {self.stall_timeout:.0f}s "
                        f"({len(pending)} pending; queue dir: {self.queue_dir})"
                    )
        finally:
            # Escalating shutdown: terminate, grace, kill, reap.  A drain
            # worker wedged in uninterruptible I/O used to be silently
            # abandoned after join(10) — now it is killed and the PID
            # reported, so nothing outlives the campaign unannounced.
            import sys

            for proc in procs:
                how = reap_process(
                    proc,
                    grace_s=10.0,
                    log=lambda msg: print(f"[queue] {msg}", file=sys.stderr, flush=True),
                )
                if how in ("killed", "leaked"):
                    print(
                        f"[queue] local worker pid={proc.pid} needed {how} "
                        f"during shutdown",
                        file=sys.stderr,
                        flush=True,
                    )
