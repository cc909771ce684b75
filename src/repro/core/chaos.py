"""Chaos-testing the campaign harness with its own fault-injection discipline.

The paper's method — inject faults, observe containment — applied to the
execution stack itself.  The AV harness claims campaign results are
byte-identical across serial, process-pool and distributed-queue
backends; that claim is only trustworthy if it survives the failures a
real fleet produces.  This module supplies the faults:

* :class:`ChaosBroker` — a seeded misbehaviour wrapper over a
  :class:`~repro.core.queue.FilesystemBroker`-compatible broker:
  delivery delays, duplicate deliveries, claim races (claimed tasks
  snatched back), lease storms (heartbeats silently dropped, so live
  leases expire mid-episode) and drop-and-requeue on release.  All of it
  is noise the at-least-once queue contract plus the exactly-once
  results fold must absorb: a chaos campaign must produce byte-identical
  records to a serial run.
* :class:`NetworkChaos` — the transport-level counterpart for the TCP
  broker (:class:`~repro.core.netqueue.TcpBroker`): seeded connection
  drops before and after a request lands, torn half-frames, injected
  delays (responses land reordered relative to other workers' traffic)
  and post-response disconnects (reconnect storms).  Injected faults
  travel the client's *real* transport-error paths, so surviving them
  proves the reconnect/retry/at-least-once machinery, not a mock.
* Episode fixtures — :class:`CrashFault` (raises), :class:`HangFault`
  (sleeps past any reasonable wall-clock budget) and :class:`FlakyFault`
  (fails the first N attempts, then succeeds) — implemented as
  :class:`~repro.core.faults.base.WorldFault` subclasses so a *dedicated
  injector row* makes specific grid episodes poison while every other
  row stays untouched.  They are deliberately **not** in the fault
  registry: they model failures of the harness, not of the vehicle, and
  must never appear in a campaign spec.

Everything is seeded (``random.Random``), so a chaotic run is exactly
reproducible.
"""

from __future__ import annotations

import os
import pickle
import random
import time
from pathlib import Path

from .faults.base import Trigger, WorldFault
from .queue import Claim

__all__ = [
    "ChaosBroker",
    "NetworkChaos",
    "apply_chaos",
    "InjectedCrash",
    "TransientEpisodeError",
    "CrashFault",
    "HangFault",
    "FlakyFault",
]


class NetworkChaos:
    """Seeded transport misbehaviour for :class:`~repro.core.netqueue.TcpBroker`.

    The client consults :meth:`plan` once per request *attempt* and acts
    on the verdicts inside its own send/receive path, so every injected
    fault surfaces exactly like the real thing — a closed socket, a torn
    frame — and is healed by the same reconnect-and-retry loop real
    faults exercise.  Dials (each a probability in ``[0, 1]``):

    ``delay_p``/``delay_s``
        Sleep before sending — this worker's request lands *after*
        traffic other workers issued later (reordering, slow links).
    ``drop_before_p``
        Drop the connection before the request is sent: pure retry, the
        server never saw it.
    ``drop_after_p``
        Send the full request, then drop before reading the response:
        the server *did* execute it, and the retry re-executes — the
        at-least-once duplicate case (double claims, duplicate appended
        rows) the results fold must absorb.
    ``partial_frame_p``
        Send half a frame and hang up: the server must discard the torn
        request without executing anything.
    ``reconnect_p``
        Close the connection after a successful exchange, forcing the
        next request onto a fresh connection (reconnect storm).

    Picklable (one ``random.Random`` stream), so local drain workers can
    rebuild it from a kwargs dict across ``fork`` exactly like
    :class:`ChaosBroker` — see :func:`apply_chaos`.
    """

    def __init__(
        self,
        seed: int = 0,
        delay_p: float = 0.0,
        delay_s: float = 0.02,
        drop_before_p: float = 0.0,
        drop_after_p: float = 0.0,
        partial_frame_p: float = 0.0,
        reconnect_p: float = 0.0,
    ):
        for name, p in (
            ("delay_p", delay_p),
            ("drop_before_p", drop_before_p),
            ("drop_after_p", drop_after_p),
            ("partial_frame_p", partial_frame_p),
            ("reconnect_p", reconnect_p),
        ):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be within [0, 1] (got {p})")
        self.seed = int(seed)
        self.delay_p = float(delay_p)
        self.delay_s = float(delay_s)
        self.drop_before_p = float(drop_before_p)
        self.drop_after_p = float(drop_after_p)
        self.partial_frame_p = float(partial_frame_p)
        self.reconnect_p = float(reconnect_p)
        self.rng = random.Random(seed)

    def plan(self) -> dict:
        """One attempt's misfortunes.  At most one *failure* fires per
        attempt (drop-before beats partial-frame beats drop-after) so a
        single dial's probability reads directly as that failure's rate;
        delay and post-success reconnect are independent."""
        plan = {
            "delay_s": self.delay_s if self.rng.random() < self.delay_p else 0.0,
            "drop_before": False,
            "partial_frame": False,
            "drop_after": False,
            "reconnect": self.rng.random() < self.reconnect_p,
        }
        if self.rng.random() < self.drop_before_p:
            plan["drop_before"] = True
        elif self.rng.random() < self.partial_frame_p:
            plan["partial_frame"] = True
        elif self.rng.random() < self.drop_after_p:
            plan["drop_after"] = True
        return plan


def apply_chaos(broker, chaos: dict):
    """Route a picklable chaos-kwargs dict to the wrapper that fits the
    broker: transport chaos (:class:`NetworkChaos`) for a
    :class:`~repro.core.netqueue.TcpBroker`, delivery chaos
    (:class:`ChaosBroker`) for anything filesystem-compatible.  This is
    what :func:`~repro.core.queue.run_worker` applies to the broker each
    (possibly ``fork``-spawned) worker builds for itself."""
    from .netqueue import TcpBroker  # deferred: netqueue imports queue

    if isinstance(broker, TcpBroker):
        broker.chaos = NetworkChaos(**chaos)
        return broker
    return ChaosBroker(broker, **chaos)


class ChaosBroker:
    """Wrap a broker in seeded misbehaviour.

    Only the delivery-path methods (``claim``/``heartbeat``/``release``)
    misbehave; everything else delegates verbatim, so the wrapped broker
    still satisfies the full :class:`~repro.core.queue.Broker` protocol.
    Every dial is a probability in ``[0, 1]`` drawn from one
    ``random.Random(seed)`` stream:

    ``delay_p``/``delay_s``
        Sleep up to ``delay_s`` before a claim or release (slow NFS,
        paused VM).
    ``duplicate_claim_p``
        After a successful claim, republish a copy of the task — a
        second worker will run the same episode concurrently
        (at-least-once delivery; the results fold dedupes).
    ``drop_claim_p``
        Claim a task, then immediately requeue it and report "queue
        empty" — a lost race with a phantom competitor.
    ``drop_heartbeat_p``
        Silently drop lease refreshes, so a *live* worker's lease
        expires mid-episode and the task storms back into the queue.
    ``drop_release_p``
        On finish, requeue the task instead of retiring it — the record
        is already appended, so the re-run must dedupe at the results
        layer.

    Requeue/duplicate chaos reaches into the filesystem layout
    (``tasks_dir``/``claimed_dir``), so the inner broker must be
    :class:`~repro.core.queue.FilesystemBroker`-compatible.  Picklable —
    local drain workers rebuild it from a kwargs dict across ``fork``.
    """

    def __init__(
        self,
        inner,
        seed: int = 0,
        delay_p: float = 0.0,
        delay_s: float = 0.05,
        duplicate_claim_p: float = 0.0,
        drop_claim_p: float = 0.0,
        drop_heartbeat_p: float = 0.0,
        drop_release_p: float = 0.0,
    ):
        for name, p in (
            ("delay_p", delay_p),
            ("duplicate_claim_p", duplicate_claim_p),
            ("drop_claim_p", drop_claim_p),
            ("drop_heartbeat_p", drop_heartbeat_p),
            ("drop_release_p", drop_release_p),
        ):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be within [0, 1] (got {p})")
        self.inner = inner
        self.seed = int(seed)
        self.delay_p = float(delay_p)
        self.delay_s = float(delay_s)
        self.duplicate_claim_p = float(duplicate_claim_p)
        self.drop_claim_p = float(drop_claim_p)
        self.drop_heartbeat_p = float(drop_heartbeat_p)
        self.drop_release_p = float(drop_release_p)
        self.rng = random.Random(seed)

    def __getattr__(self, name):
        # Called only when normal lookup fails; guard against recursion
        # while ``self.__dict__`` is still empty during unpickling.
        inner = self.__dict__.get("inner")
        if inner is None:
            raise AttributeError(name)
        return getattr(inner, name)

    # -- chaos primitives ----------------------------------------------

    def _maybe_delay(self) -> None:
        if self.delay_p and self.rng.random() < self.delay_p:
            time.sleep(self.rng.random() * self.delay_s)

    def _requeue(self, claim: Claim) -> None:
        """Force a claimed task back to pending (the expiry path, minus
        the waiting)."""
        self.inner._lease_path(claim.name).unlink(missing_ok=True)
        try:
            os.rename(
                self.inner.claimed_dir / claim.name,
                self.inner.tasks_dir / claim.name,
            )
        except FileNotFoundError:
            pass  # someone else already moved it; chaos achieved either way

    # -- misbehaving Broker surface ------------------------------------

    def claim(
        self, worker_id: str, lease_s: float | None = None, wait_s: float = 0
    ) -> Claim | None:
        self._maybe_delay()
        claim = self.inner.claim(worker_id, lease_s, wait_s)
        if claim is None:
            return None
        if self.drop_claim_p and self.rng.random() < self.drop_claim_p:
            self._requeue(claim)
            return None
        if self.duplicate_claim_p and self.rng.random() < self.duplicate_claim_p:
            # Republish a copy while keeping our claim: two workers end
            # up executing the same (deterministic) episode.
            duplicate = self.inner.tasks_dir / claim.name
            if not duplicate.exists():
                from .queue import _write_atomic

                _write_atomic(duplicate, pickle.dumps(claim.task))
        return claim

    def heartbeat(self, claim: Claim) -> None:
        if self.drop_heartbeat_p and self.rng.random() < self.drop_heartbeat_p:
            return  # the lease quietly ages toward an expiry storm
        self.inner.heartbeat(claim)

    def release(self, claim: Claim) -> bool:
        self._maybe_delay()
        if self.drop_release_p and self.rng.random() < self.drop_release_p:
            self._requeue(claim)
            return False
        return self.inner.release(claim)


# ----------------------------------------------------------------------
# Poison-episode fixtures
# ----------------------------------------------------------------------


class InjectedCrash(RuntimeError):
    """Raised by :class:`CrashFault` — an episode that always dies."""


class TransientEpisodeError(RuntimeError):
    """Raised by :class:`FlakyFault` while its failure allowance lasts."""


class CrashFault(WorldFault):
    """An always-crashing episode: raises on its first triggered frame.

    Attach it on a dedicated injector row to make that row's episodes
    poison — the campaign must quarantine exactly them and finish the
    rest untouched.
    """

    name = "chaos-crash"

    def __init__(self, message: str = "injected episode crash", trigger: Trigger | None = None):
        super().__init__(trigger)
        self.message = str(message)

    def mutate(self, world) -> None:
        raise InjectedCrash(self.message)


class HangFault(WorldFault):
    """An always-hanging episode: sleeps far past any sane wall-clock
    budget on its first triggered frame.

    The hang is *bounded* (``hang_s``, default 5 minutes) so an episode
    that escapes its watchdog leaks a finite sleep, not a forever-child —
    but any reasonable ``timeout_s`` fires long before.
    """

    name = "chaos-hang"

    def __init__(self, hang_s: float = 300.0, trigger: Trigger | None = None):
        super().__init__(trigger)
        self.hang_s = float(hang_s)

    def mutate(self, world) -> None:
        time.sleep(self.hang_s)


class FlakyFault(WorldFault):
    """Fails the episode's first ``fail_times`` *attempts*, then succeeds.

    Attempt counting must survive process boundaries (retries may run in
    sandbox forks or different pool workers), so the counter is a file
    under ``state_dir``: one byte appended per attempt (``O_APPEND`` is
    atomic), count = file size.  To build the first-try-success
    counterpart for byte-identity checks, pre-seed the counter with
    ``exhaust()`` — the fault object (and thus the episode fingerprint
    and the world it mutates: nothing) is identical either way.
    """

    name = "chaos-flaky"

    def __init__(
        self,
        state_dir: str,
        fail_times: int = 2,
        trigger: Trigger | None = None,
    ):
        super().__init__(trigger)
        self.state_dir = str(state_dir)
        self.fail_times = int(fail_times)
        self._counted = False

    @property
    def counter_path(self) -> Path:
        return Path(self.state_dir) / f"{self.name}.attempts"

    def reset(self) -> None:
        super().reset()
        self._counted = False

    def exhaust(self) -> None:
        """Pre-spend the failure allowance (first-try-success counterpart)."""
        Path(self.state_dir).mkdir(parents=True, exist_ok=True)
        for _ in range(self.fail_times):
            self._bump()

    def _bump(self) -> int:
        path = self.counter_path
        path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            os.write(fd, b".")
        finally:
            os.close(fd)
        return os.stat(path).st_size

    def mutate(self, world) -> None:
        if self._counted:
            return
        self._counted = True
        attempt = self._bump()
        if attempt <= self.fail_times:
            raise TransientEpisodeError(
                f"injected transient failure (attempt {attempt} of "
                f"{self.fail_times} doomed)"
            )
