"""Reusable Broker conformance suite.

Any class implementing the :class:`~repro.core.queue.Broker` protocol —
today the shared-directory :class:`~repro.core.queue.FilesystemBroker`
and the networked :class:`~repro.core.netqueue.TcpBroker`, tomorrow a
redis one — must pass every test here.  The suite exercises the
*semantics* the queue executor and workers rely on, through the public
Broker surface only (no reaching into ``tasks/`` listings or lease
files, which a remote broker cannot offer):

* claims are exclusive even under thread contention, and an empty queue
  claims ``None``;
* leases expire without heartbeats, survive with them, and a worker that
  finishes *after* its lease was requeued is told so (``release() is
  False``) instead of silently double-completing;
* failed tasks park with their structured error report and round-trip
  back to pending via ``requeue_failed`` (or retire via ``quarantine``);
* the results checkpoint appends durably, reads back incrementally by
  offset, and discriminates records from failure rows;
* every checkpoint reader follows the result log's parse rule
  (:mod:`repro.core.resultlog`) on the shared fixture files of
  :func:`parse_rule_files`: an unterminated tail is not a row, a
  complete non-JSON line raises naming its line, a foreign row is
  skipped, a failure row is a failure;
* the campaign context and manifest survive publish/load;
* worker heartbeats surface through ``workers()`` with a sane age;
* a waiting ``claim``/``read_results`` (``wait_s``) returns as soon as
  another thread publishes or appends, runs out after ``wait_s`` on
  nothing, and refuses an unbounded or negative wait.

Usage: subclass :class:`BrokerConformanceSuite` in a ``test_*`` module
and provide three fixtures —

``make_broker(lease_s) -> Broker``
    a factory building a broker on a **fresh, empty** backing store
    (each test calls it at most twice; both calls must reach the same
    store);
``material -> (context, tasks)``
    a published-campaign payload: a real
    :class:`~repro.core.runner.CampaignContext` and its grid of
    :class:`~repro.core.runner.EpisodeTask` (module-scoped is fine, the
    suite never mutates it).
``write_results(data: bytes)``
    replaces the results checkpoint of that store with raw ``data``
    (the parse-rule fixtures hold lines no broker op would write).
"""

import threading
import time

import pytest

from repro.core.campaign import RunRecord
from repro.core.outcomes import EpisodeFailure
from repro.core.queue import BrokerError
from repro.core.resultlog import render_line
from repro.core.runner import record_identity

__all__ = [
    "BrokerConformanceSuite",
    "PARSE_RULE_CASES",
    "failure_for",
    "parse_rule_files",
    "record_for",
]


def record_for(task, success: bool = True) -> RunRecord:
    """A synthetic result row carrying ``task``'s checkpoint identity."""
    return RunRecord(
        scenario=task.scenario.name,
        injector=task.injector,
        seed=task.seed,
        success=success,
        frames=10,
        duration_s=1.0,
        distance_km=0.1,
        time_limit_s=60.0,
        config_fingerprint=task.fingerprint,
    )


def failure_for(task, outcome: str = "failed") -> EpisodeFailure:
    """A synthetic failure row carrying ``task``'s checkpoint identity."""
    return EpisodeFailure(
        scenario=task.scenario.name,
        injector=task.injector,
        seed=task.seed,
        config_fingerprint=task.fingerprint,
        outcome=outcome,
        error_type="RuntimeError",
        error="RuntimeError('synthetic')",
        attempts=1,
    )


def parse_rule_files(tasks) -> dict[str, tuple[bytes, tuple[list, list] | int]]:
    """The parse rule's fixture files over rows of ``tasks[:4]``: case
    name -> ``(file bytes, verdict)``.  The verdict is the task indexes
    every reader returns as ``(records, failures)``, or, for a corrupt
    file, the line number every reader's error names."""
    rec = [render_line(record_for(task).to_dict()) for task in tasks[:3]]
    failure = render_line(failure_for(tasks[3], outcome="quarantined").to_dict())
    return {
        # A whole row whose newline never landed is not a row yet.
        "unterminated row": (rec[0] + rec[1] + rec[2][:-1], ([0, 1], [])),
        "torn tail": (rec[0] + rec[1] + rec[2][:25], ([0, 1], [])),
        "corrupt line after blank lines": (
            b"\n\n" + rec[0] + b"not json\n" + rec[1], 4
        ),
        "foreign row": (
            rec[0] + b'{"event": "queue-heartbeat"}\n' + rec[1], ([0, 1], [])
        ),
        "failure row": (rec[0] + failure + rec[1], ([0, 1], [3])),
    }


#: The case names of :func:`parse_rule_files`, for parametrising.
PARSE_RULE_CASES = (
    "unterminated row",
    "torn tail",
    "corrupt line after blank lines",
    "foreign row",
    "failure row",
)


class BrokerConformanceSuite:
    """Semantics every Broker implementation must honour (see module
    docstring for the fixtures a subclass provides)."""

    #: Default lease for tests that never let one expire.
    LEASE_S = 10.0

    @pytest.fixture
    def broker(self, make_broker, material):
        """A broker on a fresh store with the campaign published."""
        broker = make_broker(self.LEASE_S)
        context, tasks = material
        broker.publish(context, tasks)
        return broker

    # -- claims --------------------------------------------------------

    def test_claim_is_exclusive_under_contention(self, broker, material):
        _, tasks = material
        claimed: list[str] = []
        lock = threading.Lock()

        def grab(worker_id):
            while True:
                claim = broker.claim(worker_id)
                if claim is None:
                    return
                assert claim.worker_id == worker_id
                with lock:
                    claimed.append(claim.name)

        threads = [
            threading.Thread(target=grab, args=(f"w{i}",)) for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(claimed) == len(tasks), "every task claimed exactly once"
        assert len(set(claimed)) == len(claimed), "no task claimed twice"
        assert broker.claim("late") is None

    def test_claim_returns_task_payload(self, broker, material):
        _, tasks = material
        by_identity = {t.identity(): t for t in tasks}
        claim = broker.claim("reader")
        assert claim is not None
        task = claim.task
        assert task.identity() in by_identity
        assert task.fingerprint == by_identity[task.identity()].fingerprint

    # -- leases --------------------------------------------------------

    def test_forced_expiry_requeues(self, broker, material):
        _, tasks = material
        claim = broker.claim("ghost", lease_s=0.2)
        assert claim is not None
        status = broker.status()
        assert status["pending"] == len(tasks) - 1
        assert status["claimed"] == 1
        assert broker.live_leases() == 1
        assert broker.requeue_expired() == []  # still live
        time.sleep(0.5)
        assert broker.live_leases() == 0
        assert broker.requeue_expired() == [claim.name]
        status = broker.status()
        assert status["pending"] == len(tasks)
        assert status["claimed"] == 0

    def test_heartbeat_keeps_lease_alive(self, broker):
        claim = broker.claim("keeper", lease_s=0.5)
        assert claim is not None
        for _ in range(3):
            time.sleep(0.25)
            broker.heartbeat(claim)
            assert broker.requeue_expired() == []
        time.sleep(1.0)
        assert broker.requeue_expired() == [claim.name]

    def test_finish_after_expiry_is_reported_lost(self, broker, material):
        """The 'lease expired after the worker actually finished' race:
        release() tells the slow worker its claim was already requeued,
        and must not eat the requeued pending copy."""
        _, tasks = material
        claim = broker.claim("slow", lease_s=0.15)
        assert claim is not None
        time.sleep(0.4)
        assert broker.requeue_expired() == [claim.name]
        assert broker.release(claim) is False
        assert broker.status()["pending"] == len(tasks)

    def test_release_retires_claim(self, broker, material):
        _, tasks = material
        claim = broker.claim("worker")
        assert broker.release(claim) is True
        status = broker.status()
        assert status["claimed"] == 0
        assert status["pending"] == len(tasks) - 1  # released ≠ requeued
        assert claim.name not in broker.claimed_names()

    def test_claimed_names_reports_in_flight(self, broker):
        claim = broker.claim("watcher")
        assert claim.name in broker.claimed_names()
        broker.release(claim)
        assert claim.name not in broker.claimed_names()

    # -- failure parking -----------------------------------------------

    def test_requeue_failed_roundtrip(self, broker, material):
        _, tasks = material
        claim = broker.claim("unlucky")
        parked = failure_for(claim.task)
        broker.fail(claim, failure=parked)
        status = broker.status()
        assert status["failed"] == 1
        assert status["pending"] == len(tasks) - 1
        reports = broker.failures()
        assert len(reports) == 1
        assert reports[0]["task"] == claim.name
        assert reports[0]["worker"] == "unlucky"
        assert reports[0]["failure"] == parked.to_dict()
        assert broker.requeue_failed() == [claim.name]
        status = broker.status()
        assert status["failed"] == 0
        assert status["pending"] == len(tasks)
        assert broker.failures() == []
        # The payload survived the round-trip: it can be claimed again.
        names = set()
        while (again := broker.claim("retrier")) is not None:
            names.add(again.name)
        assert claim.name in names

    def test_quarantine_retires_failed_task(self, broker):
        claim = broker.claim("doomed")
        broker.fail(claim, failure=failure_for(claim.task))
        broker.quarantine(claim.name)
        status = broker.status()
        assert status["failed"] == 0
        assert status["quarantined"] == 1
        assert broker.requeue_failed() == []  # gone for good

    # -- the results checkpoint ----------------------------------------

    def test_append_and_read_results_by_offset(self, broker, material):
        _, tasks = material
        first, second = record_for(tasks[0]), record_for(tasks[1], success=False)
        broker.append_result(first)
        offset, rows = broker.read_results(0)
        assert [r.to_dict() for r in rows] == [first.to_dict()]
        broker.append_result(second)
        offset2, rows = broker.read_results(offset)
        assert [r.to_dict() for r in rows] == [second.to_dict()]
        _, nothing = broker.read_results(offset2)
        assert nothing == []
        assert broker.status()["results"] == 2

    def test_checkpoint_rows_discriminate_records_from_failures(
        self, broker, material
    ):
        _, tasks = material
        record = record_for(tasks[0])
        failure = failure_for(tasks[1], outcome="quarantined")
        broker.append_result(record)
        broker.append_failure(failure)
        records, failures = broker.checkpoint_rows()
        assert [r.to_dict() for r in records] == [record.to_dict()]
        assert [f.to_dict() for f in failures] == [failure.to_dict()]
        # read_results skips failure rows (they are journal, not results)
        _, rows = broker.read_results(0)
        assert [r.to_dict() for r in rows] == [record.to_dict()]

    def test_result_identities_cover_both_row_kinds(self, broker, material):
        _, tasks = material
        broker.append_result(record_for(tasks[0]))
        broker.append_failure(failure_for(tasks[1], outcome="quarantined"))
        identities = broker.result_identities()
        assert tasks[0].identity() in identities
        assert tasks[1].identity() in identities

    @pytest.mark.parametrize("case", PARSE_RULE_CASES)
    def test_checkpoint_readers_follow_the_parse_rule(
        self, make_broker, write_results, material, case
    ):
        _, tasks = material
        data, verdict = parse_rule_files(tasks)[case]
        broker = make_broker(self.LEASE_S)
        write_results(data)
        if isinstance(verdict, int):
            corrupt = f"unparseable JSON on line {verdict}$"
            # From the start, and from the corrupt line's own offset: the
            # error counts lines over the whole file either way.
            for offset in (0, data.index(b"not json")):
                with pytest.raises(ValueError, match=corrupt):
                    broker.read_results(offset)
            with pytest.raises(ValueError, match=corrupt):
                broker.status()
            return
        records, failures = verdict
        offset, rows = broker.read_results(0)
        assert [r.to_dict() for r in rows] == [
            record_for(tasks[i]).to_dict() for i in records
        ]
        assert offset == data.rfind(b"\n") + 1, "an unterminated tail stays unread"
        assert broker.status()["results"] == len(records) + len(failures)
        got_records, got_failures = broker.checkpoint_rows()
        assert [r.to_dict() for r in got_records] == [r.to_dict() for r in rows]
        assert [record_identity(f) for f in got_failures] == [
            tasks[i].identity() for i in failures
        ]

    # -- context, manifest, liveness -----------------------------------

    def test_context_and_manifest_roundtrip(self, broker, material):
        context, tasks = material
        loaded = broker.load_context()
        assert loaded is not None
        assert list(loaded.injectors) == list(context.injectors)
        assert loaded.warm_configs == context.warm_configs
        manifest = broker.manifest()
        assert manifest is not None
        assert manifest["n_tasks"] == len(tasks)

    def test_is_idle_tracks_pending_and_claimed(self, broker):
        assert broker.is_idle() is False
        claims = []
        while (claim := broker.claim("drainer")) is not None:
            claims.append(claim)
        assert broker.is_idle() is False  # claimed, not yet released
        for claim in claims:
            broker.release(claim)
        assert broker.is_idle() is True

    def test_worker_heartbeat_surfaces_with_fresh_age(self, broker):
        broker.heartbeat_worker("conformance-w1", 3)
        rows = [r for r in broker.workers() if r.get("worker") == "conformance-w1"]
        assert len(rows) == 1
        assert rows[0]["episodes_done"] == 3
        assert rows[0]["age_s"] is not None
        assert rows[0]["age_s"] < 30.0

    # -- waiting ops ---------------------------------------------------

    @staticmethod
    def _after(delay_s, action):
        """Run ``action()`` on a thread after ``delay_s``; returns a
        ``finish()`` that joins the thread and gives the monotonic time
        the action returned."""
        done = {}

        def run():
            time.sleep(delay_s)
            action()
            done["at"] = time.monotonic()

        thread = threading.Thread(target=run, daemon=True)
        thread.start()

        def finish() -> float:
            thread.join(timeout=30)
            assert not thread.is_alive() and "at" in done, "the action never finished"
            return done["at"]

        return finish

    def test_waiting_claim_wakes_on_publish(self, make_broker, material):
        context, tasks = material
        waiter = make_broker(self.LEASE_S)
        publisher = make_broker(self.LEASE_S)
        finish = self._after(0.3, lambda: publisher.publish(context, tasks))
        claim = waiter.claim("patient", wait_s=5.0)
        returned = time.monotonic()
        published = finish()
        assert claim is not None, "the waiting claim got the published task"
        assert returned - published < 1.0, "woken by the publish, not the timeout"

    def test_waiting_claim_on_empty_queue_runs_out(self, make_broker):
        broker = make_broker(self.LEASE_S)
        start = time.monotonic()
        assert broker.claim("patient", wait_s=0.3) is None
        assert time.monotonic() - start >= 0.3

    def test_waiting_read_results_wakes_on_append(self, broker, make_broker, material):
        _, tasks = material
        appender = make_broker(self.LEASE_S)
        record = record_for(tasks[0])
        finish = self._after(0.3, lambda: appender.append_result(record))
        offset, rows = broker.read_results(0, wait_s=5.0)
        returned = time.monotonic()
        appended = finish()
        assert [r.to_dict() for r in rows] == [record.to_dict()]
        assert offset > 0
        assert returned - appended < 1.0, "woken by the append, not the timeout"

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_unbounded_or_negative_wait_is_refused(self, broker, bad):
        with pytest.raises(BrokerError, match="wait_s"):
            broker.claim("impatient", wait_s=bad)
        with pytest.raises(BrokerError, match="wait_s"):
            broker.read_results(0, wait_s=bad)
        assert broker.status()["claimed"] == 0, "a refused claim takes nothing"
