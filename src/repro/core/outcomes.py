"""Episode outcome taxonomy and fault-tolerance policy.

The paper's methodology is that resilience claims need *observed
containment* under injected faults — and the same discipline applies to
the campaign harness itself.  Before this module, an episode either
returned a :class:`~repro.core.campaign.RunRecord` or blew up the whole
run: one raising episode killed a million-episode campaign, one hung
episode hung it forever.  This module makes episode failure a first-class
*outcome* instead of a control-flow accident:

* :class:`EpisodeOutcome` — the taxonomy.  ``ok`` is a normal record;
  ``failed`` (raised), ``timed_out`` (exceeded the wall-clock budget) and
  ``quarantined`` (given up after the retry budget; the campaign
  continues without it) describe everything else;
* :class:`EpisodeFailure` — the structured record of a non-``ok``
  episode: exception class, traceback digest, attempt count, wall time.
  It carries the same identity fields as a ``RunRecord``
  (``injector``/``scenario``/``seed``/``config_fingerprint``) so it is
  checkpointed *beside* normal records, streamed by
  :class:`~repro.core.resultlog.ResultLog`, counted by
  :class:`~repro.core.metrics.MetricsAccumulator` (never folded into
  MSR/VPK) and deduplicated on resume exactly like a record;
* :class:`FaultTolerancePolicy` — how hard the executors try before
  quarantining: ``max_attempts`` with exponential backoff (deterministic
  seeded jitter, so two coordinators racing the same grid back off
  identically), a per-episode wall-clock ``timeout_s``, and a
  campaign-level ``failure_budget``.  The defaults reproduce the
  historical behaviour exactly: one attempt, no timeout, zero budget —
  the first failure aborts the campaign (after completed work is
  drained and checkpointed).

Retries reuse the episode's own seed and fault objects, so a successful
retry is byte-identical to a first-try success — the determinism
invariant every executor already upholds extends through the retry path.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field, fields
from typing import Optional

__all__ = [
    "EpisodeOutcome",
    "EpisodeFailure",
    "EpisodeFailureError",
    "FaultTolerancePolicy",
    "reap_process",
]


class EpisodeOutcome:
    """The episode outcome taxonomy (string constants, JSON-stable)."""

    OK = "ok"
    FAILED = "failed"
    TIMED_OUT = "timed_out"
    QUARANTINED = "quarantined"

    #: Every value that may appear in a checkpoint row's ``outcome`` key.
    #: ``ok`` episodes are stored as plain records (no ``outcome`` key),
    #: so its presence is what distinguishes a failure row.
    FAILURE_VALUES = (FAILED, TIMED_OUT, QUARANTINED)
    ALL = (OK,) + FAILURE_VALUES


#: EpisodeFailure fields that serialise into checkpoint rows, in emit
#: order.  ``exception`` and ``traceback_text`` stay in-memory only: the
#: row carries the digest, the parked queue error report carries the full
#: text.
_SERIALIZED_FIELDS = (
    "scenario",
    "injector",
    "seed",
    "config_fingerprint",
    "outcome",
    "error_type",
    "error",
    "traceback_digest",
    "attempts",
    "wall_time_s",
)


@dataclass
class EpisodeFailure:
    """Structured record of a non-``ok`` episode.

    Shares the checkpoint identity fields with
    :class:`~repro.core.campaign.RunRecord`
    (:func:`~repro.core.runner.record_identity` accepts either), so a
    quarantined episode counts as *done* on resume — the campaign never
    re-burns compute on a poison task — while metrics surface it as an
    explicit failure count, never as a fake mission result.
    """

    scenario: str
    injector: str
    seed: int
    config_fingerprint: str = ""
    #: One of :data:`EpisodeOutcome.FAILURE_VALUES`.  Executors flip
    #: ``failed``/``timed_out`` to ``quarantined`` when the campaign
    #: gives the episode up and continues; the original cause stays
    #: visible through ``error_type``/``error``.
    outcome: str = EpisodeOutcome.FAILED
    #: Exception class name (``"EpisodeTimeout"`` for wall-clock kills).
    error_type: str = ""
    #: ``repr()`` of the terminal exception.
    error: str = ""
    #: Short SHA-1 of the full traceback text — enough to group identical
    #: failures across thousands of episodes without shipping the text
    #: into every row.
    traceback_digest: str = ""
    #: How many attempts were made before giving up.
    attempts: int = 1
    #: Wall-clock seconds spent executing (summed across attempts,
    #: excluding backoff sleeps).
    wall_time_s: float = 0.0
    #: The terminal exception object when it survived pickling — used to
    #: re-raise the *original* error on a budget-exceeded abort.  Never
    #: serialised into checkpoint rows.
    exception: Optional[BaseException] = field(default=None, repr=False, compare=False)
    #: Full traceback text (parked queue error reports, abort messages).
    #: Never serialised into checkpoint rows.
    traceback_text: str = field(default="", repr=False, compare=False)

    def to_dict(self) -> dict:
        """The checkpoint row.  The ``outcome`` key is the discriminator:
        :class:`~repro.core.campaign.RunRecord` rows never have one."""
        return {name: getattr(self, name) for name in _SERIALIZED_FIELDS}

    @classmethod
    def from_dict(cls, row: dict) -> "EpisodeFailure":
        """Rebuild from a checkpoint row (unknown keys ignored, so rows
        written by a newer repro still parse as failures here)."""
        known = {f.name for f in fields(cls)}
        data = {k: v for k, v in row.items() if k in known}
        failure = cls(**data)
        if failure.outcome not in EpisodeOutcome.FAILURE_VALUES:
            raise TypeError(f"not an episode-failure outcome: {failure.outcome!r}")
        return failure

    @classmethod
    def from_exception(
        cls,
        task,
        exc: BaseException,
        attempts: int,
        wall_time_s: float,
        traceback_text: str = "",
        outcome: str = EpisodeOutcome.FAILED,
    ) -> "EpisodeFailure":
        """Build a failure for ``task`` from a raised exception."""
        digest = (
            hashlib.sha1(traceback_text.encode()).hexdigest()[:12]
            if traceback_text
            else ""
        )
        return cls(
            scenario=task.scenario.name,
            injector=task.injector,
            seed=task.seed,
            config_fingerprint=task.fingerprint,
            outcome=outcome,
            error_type=type(exc).__name__,
            error=repr(exc),
            traceback_digest=digest,
            attempts=attempts,
            wall_time_s=wall_time_s,
            exception=exc,
            traceback_text=traceback_text,
        )

    def raise_error(self) -> "NoReturn":  # noqa: F821 - typing-only name
        """Abort the campaign with this failure's original exception.

        Used when the failure budget is exhausted: the original exception
        object re-raises when it survived transport (so existing
        ``pytest.raises(RuntimeError, match=...)`` semantics hold), and a
        readable :class:`EpisodeFailureError` carries the digest +
        traceback text otherwise (timeouts, unpicklable exceptions).
        """
        if self.exception is not None:
            raise self.exception
        raise EpisodeFailureError(self)


class EpisodeFailureError(RuntimeError):
    """An episode failure aborted the campaign (budget exceeded) and the
    original exception object was not transportable."""

    def __init__(self, failure: EpisodeFailure):
        self.failure = failure
        detail = f"\n{failure.traceback_text}" if failure.traceback_text else ""
        super().__init__(
            f"episode ({failure.injector}, {failure.scenario}, seed "
            f"{failure.seed}) {failure.outcome} after {failure.attempts} "
            f"attempt(s): {failure.error or failure.error_type}{detail}"
        )


@dataclass(frozen=True)
class FaultTolerancePolicy:
    """How executors respond to episode failures.

    The defaults are exactly the historical behaviour: one attempt, no
    timeout, a zero failure budget — the first failure aborts the
    campaign after completed work drains to the checkpoint.  Raising
    ``max_attempts`` retries transient failures (same seed, so a
    successful retry is byte-identical to a first-try success); setting
    ``failure_budget`` lets the campaign *quarantine* that many poison
    episodes and complete with partial results plus an explicit
    quarantine list; ``timeout_s`` bounds each attempt's wall time by
    running the episode in a disposable sandbox process that can be
    killed without taking the worker down.
    """

    #: Attempts per episode before the failure becomes terminal (>= 1).
    max_attempts: int = 1
    #: Per-attempt wall-clock timeout in seconds.  ``None`` (default)
    #: runs episodes inline; a value runs each attempt in a killable
    #: sandbox subprocess.
    timeout_s: float | None = None
    #: First retry delay; doubles per attempt (exponential backoff).
    backoff_s: float = 0.1
    #: Backoff ceiling.
    backoff_max_s: float = 30.0
    #: Jitter fraction: each delay is stretched by up to this fraction,
    #: drawn from a :class:`random.Random` seeded by (episode seed,
    #: attempt) — deterministic, but decorrelated across episodes.
    backoff_jitter: float = 0.1
    #: How many episodes may be quarantined before the campaign aborts.
    #: ``0`` (default) aborts on the first terminal failure (historical
    #: behaviour); ``None`` means unlimited — always complete with
    #: partial results.
    failure_budget: int | None = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1 (got {self.max_attempts})")
        if self.timeout_s is not None and not self.timeout_s > 0:
            raise ValueError(f"timeout_s must be > 0 (got {self.timeout_s})")
        if self.backoff_s < 0:
            raise ValueError(f"backoff_s must be >= 0 (got {self.backoff_s})")
        if self.backoff_max_s < 0:
            raise ValueError(f"backoff_max_s must be >= 0 (got {self.backoff_max_s})")
        if not 0.0 <= self.backoff_jitter <= 1.0:
            raise ValueError(
                f"backoff_jitter must be within [0, 1] (got {self.backoff_jitter})"
            )
        if self.failure_budget is not None and self.failure_budget < 0:
            raise ValueError(
                f"failure_budget must be >= 0 or None (got {self.failure_budget})"
            )

    def backoff_for(self, seed: int, attempt: int) -> float:
        """Delay before retry number ``attempt`` (the first retry is 1).

        Exponential with a deterministic seeded jitter: the same episode
        backs off identically on every machine and every re-run (no
        wall-clock or global-RNG dependence — resume stays replayable),
        while different episodes decorrelate so a thundering herd of
        retries against a shared broker spreads out.
        """
        base = min(self.backoff_s * (2.0 ** (attempt - 1)), self.backoff_max_s)
        if base <= 0.0 or self.backoff_jitter <= 0.0:
            return max(base, 0.0)
        jitter_rng = random.Random(f"backoff:{seed}:{attempt}")
        return base * (1.0 + self.backoff_jitter * jitter_rng.random())

    def to_dict(self) -> dict:
        """JSON-serialisable form (``spec.execution.fault_tolerance``)."""
        return {
            "max_attempts": int(self.max_attempts),
            "timeout_s": float(self.timeout_s) if self.timeout_s is not None else None,
            "backoff_s": float(self.backoff_s),
            "backoff_max_s": float(self.backoff_max_s),
            "backoff_jitter": float(self.backoff_jitter),
            "failure_budget": (
                int(self.failure_budget) if self.failure_budget is not None else None
            ),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultTolerancePolicy":
        """Rebuild from :meth:`to_dict` output (strict types; unknown
        keys raise so a typo'd policy never silently means defaults)."""
        if not isinstance(data, dict):
            raise TypeError(
                f"fault_tolerance must be an object, got {type(data).__name__}"
            )
        known = {
            "max_attempts",
            "timeout_s",
            "backoff_s",
            "backoff_max_s",
            "backoff_jitter",
            "failure_budget",
        }
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown fault_tolerance keys {sorted(unknown)} "
                f"(allowed: {sorted(known)})"
            )

        def integer(key, default):
            value = data.get(key, default)
            if value is not None and (
                not isinstance(value, int) or isinstance(value, bool)
            ):
                raise ValueError(f"{key} must be an integer, got {value!r}")
            return value

        def number(key, default):
            value = data.get(key, default)
            if value is not None and (
                not isinstance(value, (int, float)) or isinstance(value, bool)
            ):
                raise ValueError(f"{key} must be a number, got {value!r}")
            return float(value) if value is not None else None

        return cls(
            max_attempts=integer("max_attempts", 1),
            timeout_s=number("timeout_s", None),
            backoff_s=number("backoff_s", 0.1),
            backoff_max_s=number("backoff_max_s", 30.0),
            backoff_jitter=number("backoff_jitter", 0.1),
            failure_budget=integer("failure_budget", 0),
        )


def reap_process(proc, grace_s: float = 5.0, log=None) -> str:
    """Make sure a child process is dead: join → terminate → kill → join.

    The escalation ladder for sandbox children and queue drain workers:
    a cooperative exit is joined, a busy process gets SIGTERM, a process
    that ignores SIGTERM for ``grace_s`` gets SIGKILL.  Returns how the
    process went (``"exited"``/``"terminated"``/``"killed"``/``"leaked"``)
    and reports escalations through ``log`` (a callable taking one
    string) so operators can see which PID needed force.
    """
    if not proc.is_alive():
        proc.join()
        return "exited"
    proc.terminate()
    proc.join(timeout=grace_s)
    if not proc.is_alive():
        return "terminated"
    if log is not None:
        log(f"process pid={proc.pid} ignored terminate() for {grace_s:.0f}s; killing")
    proc.kill()
    proc.join(timeout=grace_s)
    if proc.is_alive():  # pragma: no cover - unkillable process (D-state)
        if log is not None:
            log(f"process pid={proc.pid} survived kill(); leaking it")
        return "leaked"
    return "killed"
