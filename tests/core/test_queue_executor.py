"""Tests for the distributed work-queue backend (repro.core.queue).

The hard acceptance invariant: a campaign run through ``QueueExecutor``
with multiple worker processes — one of them SIGKILLed mid-episode and
its lease requeued — produces a ``CampaignResult`` identical in record
content and grid order to the same campaign run through
``SerialExecutor``, resuming purely from the shared JSONL checkpoint.
"""

import json
import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.agent import autopilot_agent_factory
from repro.core import (
    Campaign,
    FilesystemBroker,
    QueueExecutor,
    make_executor,
    run_worker,
    standard_scenarios,
)
from repro.core.chaos import CrashFault
from repro.core.faults import OutputDelay
from repro.core.runner import record_identity
from repro.sim.builders import SimulationBuilder
from repro.sim.render import CameraModel
from repro.sim.town import GridTownConfig

TOWN = GridTownConfig(rows=2, cols=3)
INJECTORS = {"none": [], "delay": [OutputDelay(8)]}


@pytest.fixture(scope="module")
def builder():
    return SimulationBuilder(camera=CameraModel(width=24, height=16), with_lidar=False)


@pytest.fixture(scope="module")
def scenarios():
    return standard_scenarios(2, seed=9, town_config=TOWN, min_distance=60, max_distance=160)


def _campaign(builder, scenarios, injectors=INJECTORS, **kw):
    return Campaign(
        scenarios, autopilot_agent_factory(), injectors, builder=builder, **kw
    )


def _queue_executor(qdir, **kw):
    kw.setdefault("lease_s", 10.0)
    kw.setdefault("poll_s", 0.05)
    kw.setdefault("stall_timeout", 120.0)
    return QueueExecutor(qdir, **kw)


def _dicts(result):
    return [r.to_dict() for r in result.records]


def _spawn_worker(qdir, worker_id, lease_s=1.5, idle_timeout=1.0):
    proc = multiprocessing.Process(
        target=run_worker,
        kwargs=dict(
            queue_dir=str(qdir),
            worker_id=worker_id,
            lease_s=lease_s,
            poll_s=0.02,
            idle_timeout=idle_timeout,
        ),
        daemon=True,
    )
    proc.start()
    return proc


def _wait_for(predicate, timeout=60.0, interval=0.002, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError(f"timed out waiting for {message}")


class _CoordinatorThread(threading.Thread):
    """Runs ``campaign.run()`` so the test can orchestrate workers around it."""

    def __init__(self, campaign):
        super().__init__(daemon=True)
        self.campaign = campaign
        self.result = None
        self.error = None

    def run(self):
        try:
            self.result = self.campaign.run()
        except BaseException as exc:  # noqa: BLE001 — surfaced in the test
            self.error = exc

    def finish(self, timeout=120.0):
        self.join(timeout)
        assert not self.is_alive(), "coordinator did not finish"
        if self.error is not None:
            raise self.error
        return self.result


class TestQueueAcceptance:
    def test_queue_with_killed_worker_matches_serial(self, builder, scenarios, tmp_path):
        """≥2 worker processes, one SIGKILLed mid-episode; its lease
        expires, the task requeues, and the result — rebuilt purely from
        the shared JSONL checkpoint — is identical to a serial run."""
        serial = _campaign(builder, scenarios, executor="serial").run()

        qdir = tmp_path / "queue"
        coordinator = _CoordinatorThread(
            _campaign(builder, scenarios, executor=_queue_executor(qdir, lease_s=1.5))
        )
        coordinator.start()
        broker = FilesystemBroker(qdir)
        _wait_for(lambda: broker._list(broker.tasks_dir), message="tasks published")

        # The victim is the only worker, so it must be the one claiming.
        victim = _spawn_worker(qdir, "victim", lease_s=1.5, idle_timeout=30.0)
        _wait_for(
            lambda: any(broker.leases_dir.glob("*.json")), message="victim's lease"
        )
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=30)

        healthy = [_spawn_worker(qdir, f"healthy-{i}") for i in range(2)]
        result = coordinator.finish()
        for proc in healthy:
            proc.join(timeout=60)

        assert _dicts(result) == _dicts(serial)

        # Resume purely from the checkpoint: nothing pending, same grid.
        resumed = _campaign(
            builder, scenarios, executor="serial", checkpoint_path=qdir / "results.jsonl"
        )
        assert resumed.pending() == []
        assert _dicts(resumed.run()) == _dicts(serial)

    def test_inline_local_workers_match_serial_and_resume(self, builder, scenarios, tmp_path):
        """backend-style inline use: the executor spawns its own drain
        processes; a second run against the same queue dir resumes from
        the checkpoint and executes nothing."""
        serial = _campaign(builder, scenarios, executor="serial").run()
        qdir = tmp_path / "queue"
        first = _campaign(builder, scenarios, executor=_queue_executor(qdir, workers=2))
        assert first.checkpoint_path == qdir / "results.jsonl"
        assert _dicts(first.run()) == _dicts(serial)

        again = _campaign(builder, scenarios, executor=_queue_executor(qdir, workers=2))
        assert again.pending() == []
        assert _dicts(again.run()) == _dicts(serial)


class TestLeases:
    """Filesystem-specific lease mechanics (mtime fallbacks, lease files,
    republish pruning).  The *generic* lease semantics — forced expiry,
    heartbeat keep-alive, the finish-after-expiry race — live in the
    Broker conformance suite (tests/core/broker_conformance.py), which
    runs them against the filesystem AND TCP brokers."""

    def _published_broker(self, builder, scenarios, qdir):
        runner = _campaign(builder, scenarios)
        broker = FilesystemBroker(qdir, lease_s=0.5)
        broker.publish(runner.context(), runner.tasks())
        return broker, runner

    def test_claiming_stale_pending_task_is_not_stolen(self, builder, scenarios, tmp_path):
        """A task pending longer than the lease keeps its publish-time
        mtime through the claim rename; the claim must not look expired
        to a concurrent requeue scan before its lease lands."""
        broker, _ = self._published_broker(builder, scenarios, tmp_path / "q")
        name = broker._list(broker.tasks_dir)[0]
        old = time.time() - 20 * broker.lease_s
        os.utime(broker.tasks_dir / name, (old, old))
        claim = broker.claim("slowpoke", lease_s=broker.lease_s)
        assert claim.name == name
        # Re-create the dangerous window: the claim exists but its lease
        # has not landed yet.  The age fallback must now see the *claim*
        # time (utime'd at claim), not the stale publish-time mtime.
        broker._lease_path(name).unlink()
        assert broker.requeue_expired() == [], "fresh claim must not be stolen"
        broker.heartbeat(claim)
        assert broker.live_leases() == 1

    def test_lagging_clock_heartbeat_does_not_expire_lease(
        self, builder, scenarios, tmp_path
    ):
        """Regression: a worker whose clock lags stamps heartbeats 'in
        the past'.  Judged by the embedded timestamp alone its lease
        would expire the instant it lands and the running task would be
        requeued (duplicate execution); expiry must trust the fresher of
        the embedded time and the lease file's mtime."""
        broker, _ = self._published_broker(builder, scenarios, tmp_path / "q")
        claim = broker.claim("lagger", lease_s=5.0)
        lease_path = broker._lease_path(claim.name)
        lease = json.loads(lease_path.read_text())
        lease["heartbeat_at"] -= 600.0  # ten minutes of clock lag
        lease_path.write_text(json.dumps(lease))  # rewrite => fresh mtime
        assert broker.requeue_expired() == [], "skewed-but-fresh lease stolen"
        assert broker.live_leases() == 1
        # A lease that is *actually* stale — old embedded time AND old
        # mtime — must still expire; the guard is not an immortality pass.
        old = time.time() - 600.0
        os.utime(lease_path, (old, old))
        assert broker.requeue_expired() == [claim.name]

    def test_worker_liveness_survives_clock_skew(self, builder, scenarios, tmp_path):
        """Same guard for observability: a lagging worker rewriting its
        heartbeat file every few seconds must read as alive in
        ``workers()``, and a genuinely dead one as stale."""
        broker, _ = self._published_broker(builder, scenarios, tmp_path / "q")
        broker.heartbeat_worker("lagger", 2)
        path = broker.workers_dir / "lagger.json"
        beat = json.loads(path.read_text())
        beat["heartbeat_at"] -= 600.0
        path.write_text(json.dumps(beat))  # fresh mtime, skewed stamp
        (row,) = [r for r in broker.workers() if r.get("worker") == "lagger"]
        assert row["episodes_done"] == 2
        assert row["age_s"] < 30.0, "skew misread as staleness"
        old = time.time() - 600.0
        os.utime(path, (old, old))  # now both signals agree: dead
        (row,) = [r for r in broker.workers() if r.get("worker") == "lagger"]
        assert row["age_s"] > 500.0

    def test_claim_without_lease_file_requeues_by_age(self, builder, scenarios, tmp_path):
        """A claimer that died between rename and lease write leaves a
        lease-less claim; it requeues once the file is older than the
        default lease."""
        broker, _ = self._published_broker(builder, scenarios, tmp_path / "q")
        name = broker._list(broker.tasks_dir)[0]
        os.rename(broker.tasks_dir / name, broker.claimed_dir / name)
        assert broker.requeue_expired() == []  # too fresh to judge
        old = time.time() - 10 * broker.lease_s
        os.utime(broker.claimed_dir / name, (old, old))
        assert broker.requeue_expired() == [name]

    def test_long_lived_worker_reloads_context_on_republish(self, builder, scenarios, tmp_path):
        """A worker that outlives its campaign must pick up a re-publish
        with retuned faults — executing new tasks against the old context
        would checkpoint wrong results under the new fingerprints."""
        qdir = tmp_path / "q"
        first = _campaign(builder, scenarios[:1], injectors={"delay": [OutputDelay(8)]})
        broker = FilesystemBroker(qdir)
        broker.publish(first.context(), first.tasks())

        worker = threading.Thread(
            target=run_worker,
            kwargs=dict(queue_dir=str(qdir), worker_id="lived", lease_s=10.0,
                        poll_s=0.02, idle_timeout=30.0, max_tasks=2),
            daemon=True,
        )
        worker.start()
        _wait_for(lambda: len(broker.result_identities()) >= 1,
                  message="first campaign drained")

        retuned = _campaign(builder, scenarios[:1], injectors={"delay": [OutputDelay(30)]})
        broker.publish(retuned.context(), retuned.tasks())
        worker.join(timeout=60)
        assert not worker.is_alive()

        _, rows = broker.read_results(0)
        by_fp = {r.config_fingerprint: r for r in rows}
        new_task = retuned.tasks()[0]
        assert new_task.fingerprint in by_fp, "retuned task must have run"
        delays = [f["delay_frames"] for f in by_fp[new_task.fingerprint].faults]
        assert delays == [30], "record must reflect the NEW fault config"

    def test_publish_prunes_stale_claimed_orphans(self, builder, scenarios, tmp_path):
        """An orphaned claim from a previous (different-config) campaign
        must not survive a re-publish — it would expire, requeue, and
        burn a worker on work outside the new grid."""
        qdir = tmp_path / "q"
        old = _campaign(builder, scenarios, injectors={"none": []})
        broker = FilesystemBroker(qdir, lease_s=0.5)
        broker.publish(old.context(), old.tasks())
        orphan = broker.claim("crashed-worker")
        assert orphan is not None

        new = _campaign(builder, scenarios, injectors={"delay": [OutputDelay(8)]})
        broker.publish(new.context(), new.tasks())
        assert broker._list(broker.claimed_dir) == []
        assert not broker._lease_path(orphan.name).exists()
        expected = sorted(broker._task_filename(t) for t in new.tasks())
        assert broker._list(broker.tasks_dir) == expected
        assert broker.requeue_expired() == []

    def test_worker_skips_identity_already_in_results(self, builder, scenarios, tmp_path):
        """A requeued task whose record already landed (finish-after-
        expiry) must be retired by the next claimer, not re-run."""
        reference = _campaign(builder, scenarios[:1], injectors={"none": []},
                            executor="serial").run()
        qdir = tmp_path / "q"
        runner = _campaign(builder, scenarios[:1], injectors={"none": []})
        broker = FilesystemBroker(qdir)
        broker.publish(runner.context(), runner.tasks())
        broker.append_result(reference.records[0])
        drained = run_worker(qdir, worker_id="late", lease_s=5.0, poll_s=0.02,
                             idle_timeout=0.2)
        assert drained == 0, "already-checkpointed episode must not re-run"
        assert broker.is_idle()
        _, rows = broker.read_results(0)
        assert len(rows) == 1

    def test_max_tasks_counts_parked_failures(self, builder, scenarios, tmp_path):
        """A parked failure retires its claim like a completed episode:
        ``max_tasks=2`` over one success and one crash detaches the worker
        at once, long before its idle timeout, and it reports the one
        completed episode."""
        qdir = tmp_path / "q"
        runner = _campaign(builder, scenarios[:1],
                           injectors={"none": [], "crash": [CrashFault()]})
        broker = FilesystemBroker(qdir)
        broker.publish(runner.context(), runner.tasks())
        returned = []
        worker = threading.Thread(
            target=lambda: returned.append(run_worker(
                qdir, worker_id="bounded", lease_s=10.0, poll_s=0.02,
                idle_timeout=120.0, max_tasks=2,
            )),
            daemon=True,
        )
        worker.start()
        worker.join(timeout=60.0)
        assert not worker.is_alive(), "the worker stops after max_tasks retired claims"
        assert returned == [1]
        assert len(broker.failures()) == 1

    def test_worker_cli_says_max_tasks_ended_the_drain(
        self, builder, scenarios, tmp_path, capsys
    ):
        """``avfi worker --max-tasks 2`` over one success and one crash
        stops at the limit and says so, not "queue idle", though only
        one episode completed."""
        from repro.cli import main

        qdir = tmp_path / "q"
        runner = _campaign(builder, scenarios[:1],
                           injectors={"none": [], "crash": [CrashFault()]})
        FilesystemBroker(qdir).publish(runner.context(), runner.tasks())
        main(["worker", "--queue-dir", str(qdir), "--worker-id", "cli",
              "--lease", "10", "--poll", "0.02", "--idle-timeout", "30",
              "--max-tasks", "2"])
        last = capsys.readouterr().out.strip().splitlines()[-1]
        assert last == "[worker cli] reached max_tasks (2 claims retired); completed 1 episode(s)"


    def test_slot_drain_leaves_no_orphan_lease(self, builder, scenarios, tmp_path):
        """Each claim of a multiplexed slot stops heartbeating before its
        episode retires it; a beat after the release would rewrite the
        lease file of a task nobody holds."""
        broker, runner = self._published_broker(builder, scenarios, tmp_path / "q")
        done = run_worker(tmp_path / "q", worker_id="slot", lease_s=0.2, poll_s=0.02,
                          idle_timeout=0.2, episodes_per_slot=2)
        assert done == len(runner.tasks())
        assert broker.is_idle()
        assert os.listdir(broker.leases_dir) == []


class TestWaitingClaimStress:
    def test_every_parked_claim_wakes_and_each_task_goes_once(
        self, builder, scenarios, tmp_path
    ):
        """More waiting claimers than cores and than tasks, on separate
        broker instances over one root, with a short switch interval: the
        publish wakes them all at once, each task is claimed exactly
        once, and every winner returns promptly — a lost wake-up would
        leave a winner parked until its wait runs out."""
        import sys

        runner = _campaign(builder, scenarios)
        tasks = runner.tasks()
        n_waiters = 3 * len(tasks)
        results = [None] * n_waiters
        returned = [0.0] * n_waiters
        started = threading.Barrier(n_waiters + 1)

        def wait_for_task(i):
            broker = FilesystemBroker(tmp_path / "q")
            started.wait(timeout=10)
            results[i] = broker.claim(f"w{i}", wait_s=4.0)
            returned[i] = time.monotonic()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=wait_for_task, args=(i,), daemon=True)
                for i in range(n_waiters)
            ]
            for t in threads:
                t.start()
            started.wait(timeout=10)
            time.sleep(0.2)  # let every claimer park
            FilesystemBroker(tmp_path / "q").publish(runner.context(), tasks)
            published = time.monotonic()
            for t in threads:
                t.join(timeout=10)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        winners = [i for i, claim in enumerate(results) if claim is not None]
        names = [results[i].name for i in winners]
        assert len(names) == len(tasks) and len(set(names)) == len(tasks)
        assert max(returned[i] for i in winners) - published < 1.0


class TestCheckpointRecovery:
    def test_duplicate_identity_rows_dedupe(self, builder, scenarios, tmp_path):
        """Two records for one identity (lease expired after the worker
        finished, episode re-ran) must fold to a single grid row."""
        checkpoint = tmp_path / "dup.jsonl"
        reference = _campaign(builder, scenarios, executor="serial",
                            checkpoint_path=checkpoint).run()
        lines = checkpoint.read_text().splitlines()
        checkpoint.write_text("\n".join(lines + [lines[-1], lines[0]]) + "\n")

        resumed = _campaign(builder, scenarios, executor="serial",
                          checkpoint_path=checkpoint)
        assert resumed.pending() == []
        records = resumed.grid_records()
        assert len(records) == len(reference.records)
        assert _dicts(resumed.run()) == _dicts(reference)
        identities = [record_identity(r) for r in records]
        assert len(set(identities)) == len(identities)

    def test_foreign_fingerprint_rows_ignored_not_matched(self, builder, scenarios, tmp_path):
        """Rows from a different suite sharing the queue checkpoint are
        journal noise: the grid re-runs and excludes them."""
        other_suite = standard_scenarios(
            1, seed=10, town_config=TOWN, min_distance=60, max_distance=160
        )
        qdir = tmp_path / "q"
        _campaign(builder, other_suite, injectors={"none": []}, executor="serial",
                checkpoint_path=qdir / "results.jsonl").run()

        serial = _campaign(builder, scenarios[:1], executor="serial").run()
        queue_run = _campaign(builder, scenarios[:1],
                            executor=_queue_executor(qdir, workers=1))
        assert len(queue_run.pending()) == len(queue_run.tasks()), \
            "foreign rows must not satisfy the grid"
        result = queue_run.run()
        assert _dicts(result) == _dicts(serial)
        foreign = {
            t.fingerprint
            for t in _campaign(builder, other_suite, injectors={"none": []}).tasks()
        }
        assert all(r.config_fingerprint not in foreign for r in result.records)

    def test_truncated_final_line_reruns_one_episode(self, builder, scenarios, tmp_path):
        """A worker hard-killed mid-append (or a torn NFS write) leaves a
        partial final line; the queue resume drops it and re-runs exactly
        that episode."""
        qdir = tmp_path / "q"
        full = _campaign(builder, scenarios,
                       executor=_queue_executor(qdir, workers=2)).run()
        checkpoint = qdir / "results.jsonl"
        lines = checkpoint.read_text().splitlines()
        checkpoint.write_text(
            "\n".join(lines[:-1]) + "\n" + lines[-1][: len(lines[-1]) // 2]
        )

        resumed = _campaign(builder, scenarios,
                          executor=_queue_executor(qdir, workers=1))
        assert len(resumed.pending()) == 1
        assert _dicts(resumed.run()) == _dicts(full)

    def test_worker_error_propagates_and_keeps_completed(self, builder, scenarios, tmp_path):
        """A failing episode parks in failed/, the coordinator raises,
        completed records stay checkpointed, and a resume with the fault
        fixed runs only the remainder."""
        qdir = tmp_path / "q"
        broken = Campaign(
            scenarios, _ExplodingFactory(scenarios[1]), {"none": []},
            builder=builder, executor=_queue_executor(qdir, workers=1),
        )
        with pytest.raises(RuntimeError, match="boom"):
            broken.run()
        assert FilesystemBroker(qdir).failures(), "error report must be parked"

        serial = _campaign(builder, scenarios, injectors={"none": []},
                         executor="serial").run()
        fixed = _campaign(builder, scenarios, injectors={"none": []},
                        executor=_queue_executor(qdir, workers=1))
        assert 1 <= len(fixed.pending()) <= 2
        assert _dicts(fixed.run()) == _dicts(serial)


class _ExplodingFactory:
    """Picklable agent factory that fails on one scenario's mission."""

    def __init__(self, bad_scenario):
        self.bad_goal = (bad_scenario.mission.goal.x, bad_scenario.mission.goal.y)
        self.inner = autopilot_agent_factory()

    def __call__(self, handles, mission):
        if (mission.goal.x, mission.goal.y) == self.bad_goal:
            raise RuntimeError("boom")
        return self.inner(handles, mission)


class TestPlumbing:
    def test_make_executor_queue_specs(self, tmp_path):
        ex = make_executor("queue", queue_dir=tmp_path / "q", workers=2, lease_s=7.0)
        assert isinstance(ex, QueueExecutor)
        assert ex.workers == 2 and ex.lease_s == 7.0
        defaulted = make_executor(queue_dir=tmp_path / "q")
        assert isinstance(defaulted, QueueExecutor)
        assert defaulted.workers == 1, "bare queue_dir must make progress alone"
        assert make_executor(queue_dir=tmp_path / "q", workers=0).workers == 0
        with pytest.raises(ValueError, match="queue_dir"):
            make_executor("queue")
        with pytest.raises(ValueError, match="workers"):
            make_executor(workers=-1)
        instance = QueueExecutor(tmp_path / "q2")
        assert make_executor(instance) is instance

    def test_queue_dir_conflicts_with_non_queue_executor(self, tmp_path):
        """queue_dir + an explicit non-queue executor must raise, not
        silently run locally with the broker directory ignored."""
        with pytest.raises(ValueError, match="conflicts"):
            make_executor("process", workers=4, queue_dir=tmp_path / "q")
        with pytest.raises(ValueError, match="conflicts"):
            make_executor("serial", queue_dir=tmp_path / "q")
        # A queue instance is compatible (and authoritative).
        instance = QueueExecutor(tmp_path / "q")
        assert make_executor(instance, queue_dir=tmp_path / "q") is instance

    def test_checkpoint_ownership_survives_path_spelling(self, builder, scenarios, tmp_path, monkeypatch):
        """The same checkpoint spelled relatively must still be treated
        as executor-owned — otherwise the runner duplicates every line
        the workers already appended."""
        monkeypatch.chdir(tmp_path)
        runner = _campaign(
            builder, scenarios,
            executor=_queue_executor(tmp_path / "q"),
            checkpoint_path="q/results.jsonl",
        )
        assert runner._executor_owns_checkpoint

    def test_campaign_backend_queue(self, builder, scenarios, tmp_path):
        serial = Campaign(scenarios[:1], autopilot_agent_factory(), INJECTORS,
                          builder=builder).run()
        queued = Campaign(
            scenarios[:1], autopilot_agent_factory(), INJECTORS, builder=builder,
            executor="queue", queue_dir=tmp_path / "q", workers=2, lease_s=10.0,
        ).run()
        assert _dicts(queued) == _dicts(serial)

    def test_study_run_over_queue_mirrors_checkpoint(self, builder, scenarios, tmp_path):
        reference = Campaign(
            scenarios[:1], autopilot_agent_factory(), INJECTORS,
            checkpoint_path=tmp_path / "ref.jsonl", builder=builder,
        ).run().records
        study = Campaign(
            scenarios[:1], autopilot_agent_factory(), INJECTORS,
            checkpoint_path=tmp_path / "study.jsonl", builder=builder,
            workers=1, queue_dir=tmp_path / "q",
        )
        records = study.run().records
        assert [r.to_dict() for r in records] == [r.to_dict() for r in reference]
        # The campaign's own checkpoint got every record (mirrored), so
        # a plain serial resume sees nothing pending.
        assert study.pending() == []
        mirrored = (tmp_path / "study.jsonl").read_text().splitlines()
        assert len(mirrored) == len(records)


class TestCliValidation:
    def _parse(self, argv):
        from repro.cli import build_parser

        return build_parser().parse_args(argv)

    @pytest.mark.parametrize("value", ["-3", "two"])
    def test_workers_rejected_with_clear_error(self, value, capsys):
        with pytest.raises(SystemExit):
            self._parse(["campaign", "--workers", value])
        err = capsys.readouterr().err
        assert "--workers" in err and ("must be >= 0" in err or "expected an integer" in err)

    def test_workers_zero_requires_queue_dir(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["campaign", "--workers", "0"])
        assert "requires --queue-dir" in capsys.readouterr().err
        # Coordinate-only is a legitimate queue-mode request.
        args = self._parse(["campaign", "--workers", "0", "--queue-dir", "q"])
        assert args.workers == 0 and args.queue_dir == "q"

    @pytest.mark.parametrize("value", ["0", "-1.5", "nan"])
    def test_lease_rejected_with_clear_error(self, value, capsys):
        with pytest.raises(SystemExit):
            self._parse(["worker", "--queue-dir", "q", "--lease", value])
        assert "--lease" in capsys.readouterr().err

    def test_worker_subcommand_defaults(self):
        args = self._parse(["worker", "--queue-dir", "/shared/q"])
        assert args.queue_dir == "/shared/q"
        assert args.lease == 60.0 and args.poll == 0.5 and args.idle_timeout == 5.0
        assert args.max_tasks is None and args.worker_id is None
        assert args.func.__name__ == "cmd_worker"

    def test_worker_requires_queue_dir(self, capsys):
        with pytest.raises(SystemExit):
            self._parse(["worker"])
        assert "--queue-dir" in capsys.readouterr().err

    def test_campaign_queue_flags_parsed(self):
        args = self._parse(
            ["campaign", "--queue-dir", "/shared/q", "--workers", "2", "--lease", "30"]
        )
        assert args.queue_dir == "/shared/q" and args.workers == 2 and args.lease == 30.0

    def test_worker_poll_and_idle_validated(self, capsys):
        with pytest.raises(SystemExit):
            self._parse(["worker", "--queue-dir", "q", "--poll", "0"])
        with pytest.raises(SystemExit):
            self._parse(["worker", "--queue-dir", "q", "--idle-timeout", "-1"])
