"""Tests for the network broker (repro.core.netqueue).

The generic Broker semantics are pinned by the conformance suite
(``test_broker_conformance.py``); this module covers what is specific to
the *transport*: the length-prefixed frame protocol, the reconnecting
client, and the hard acceptance invariants — a TCP campaign (with a
worker SIGKILLed mid-episode, and under seeded network chaos) produces a
``CampaignResult`` byte-identical to a serial run.
"""

import multiprocessing
import os
import pickle
import signal
import socket
import struct
import threading
import time

import pytest

from repro.agent import autopilot_agent_factory
from repro.core import (
    Campaign,
    FilesystemBroker,
    QueueExecutor,
    run_worker,
    standard_scenarios,
)
from repro.core.chaos import NetworkChaos
from repro.core.faults import OutputDelay
from repro.core.netqueue import (
    MAX_WAIT_S,
    BrokerError,
    BrokerServer,
    FrameError,
    TcpBroker,
    encode_frame,
    is_broker_url,
    make_broker,
    parse_tcp_url,
    recv_frame,
    send_frame,
)
from repro.sim.builders import SimulationBuilder
from repro.sim.render import CameraModel
from repro.sim.town import GridTownConfig

TOWN = GridTownConfig(rows=2, cols=3)
INJECTORS = {"none": [], "delay": [OutputDelay(8)]}

#: Every chaos dial lit at once: reordering delays, pre-send drops,
#: torn frames, lost responses (at-least-once duplicates), and
#: post-success reconnect storms.
CHAOS = dict(
    seed=1234,
    delay_p=0.2,
    delay_s=0.01,
    drop_before_p=0.1,
    drop_after_p=0.1,
    partial_frame_p=0.1,
    reconnect_p=0.2,
)


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


@pytest.fixture(scope="module")
def serial_dicts(builder, scenarios):
    """The serial ground truth every acceptance test compares against."""
    return [r.to_dict() for r in _campaign(builder, scenarios).run().records]


def _queue_executor(address, **kw):
    kw.setdefault("lease_s", 10.0)
    kw.setdefault("poll_s", 0.05)
    kw.setdefault("stall_timeout", 120.0)
    return QueueExecutor(address, **kw)


def _dicts(result):
    return [r.to_dict() for r in result.records]


def _spawn_worker(address, worker_id, lease_s=1.5, idle_timeout=1.0, chaos=None):
    proc = multiprocessing.Process(
        target=run_worker,
        kwargs=dict(
            queue_dir=str(address),
            worker_id=worker_id,
            lease_s=lease_s,
            poll_s=0.02,
            idle_timeout=idle_timeout,
            chaos=chaos,
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


@pytest.fixture
def server(tmp_path):
    server = BrokerServer(tmp_path / "queue", host="127.0.0.1", port=0).start()
    yield server
    server.stop()


# ----------------------------------------------------------------------
# Frame protocol
# ----------------------------------------------------------------------


class TestFrames:
    def _pair(self):
        a, b = socket.socketpair()
        a.settimeout(5.0)
        b.settimeout(5.0)
        return a, b

    def test_roundtrip(self):
        a, b = self._pair()
        payload = {"op": "claim", "args": {"worker_id": "w1", "n": 3}}
        send_frame(a, payload)
        assert recv_frame(b) == payload
        a.close(), b.close()

    def test_clean_eof_is_none(self):
        a, b = self._pair()
        a.close()
        assert recv_frame(b) is None
        b.close()

    def test_torn_body_raises(self):
        a, b = self._pair()
        frame = encode_frame({"op": "status"})
        a.sendall(frame[:-3])  # header + partial body, then hangup
        a.close()
        with pytest.raises(FrameError, match="mid-frame"):
            recv_frame(b)
        b.close()

    def test_torn_header_raises(self):
        a, b = self._pair()
        a.sendall(b"\x00\x00")
        a.close()
        with pytest.raises(FrameError):
            recv_frame(b)
        b.close()

    def test_implausible_length_rejected_before_allocation(self):
        a, b = self._pair()
        a.sendall(struct.pack(">I", 2**32 - 1))
        with pytest.raises(FrameError, match="exceeds"):
            recv_frame(b)
        a.close(), b.close()

    def test_non_json_body_raises(self):
        a, b = self._pair()
        a.sendall(struct.pack(">I", 4) + b"\x80ick")
        with pytest.raises(FrameError, match="JSON"):
            recv_frame(b)
        a.close(), b.close()

    def test_parse_tcp_url(self):
        assert parse_tcp_url("tcp://10.0.0.5:8266") == ("10.0.0.5", 8266)
        with pytest.raises(ValueError, match="scheme|supported"):
            parse_tcp_url("http://host:1")
        with pytest.raises(ValueError, match="port"):
            parse_tcp_url("tcp://host")

    def test_make_broker_dispatch(self, tmp_path):
        assert is_broker_url("tcp://h:1") is True
        assert is_broker_url(str(tmp_path)) is False
        assert is_broker_url(tmp_path) is False
        assert isinstance(make_broker("tcp://127.0.0.1:1"), TcpBroker)
        assert isinstance(make_broker(tmp_path / "q"), FilesystemBroker)


# ----------------------------------------------------------------------
# Server-side name validation
# ----------------------------------------------------------------------


class TestWireNameValidation:
    """Wire-supplied task names and worker ids become path components
    under the broker root; the server refuses anything it didn't mint
    itself before touching the filesystem — an unauthenticated frame
    must not become an arbitrary write or unlink via ``../``."""

    EVIL_NAMES = ["../../../../tmp/pwned", "..", "a/b.task", "00000_cafecafecafe.task/.."]

    def test_publish_rejects_traversal_task_names(self, server):
        import base64

        broker = make_broker(server.address)
        for evil in self.EVIL_NAMES:
            with pytest.raises(BrokerError, match="invalid task name"):
                broker._call(
                    "publish",
                    {
                        "context": base64.b64encode(b"ctx").decode(),
                        "tasks": [[evil, base64.b64encode(b"task").decode()]],
                    },
                )
        # Rejected before anything was written: no context, no tasks.
        assert server.broker.status()["pending"] == 0
        assert server.broker.context_blob() is None

    def test_name_taking_ops_reject_traversal(self, server):
        broker = make_broker(server.address)
        for op, args in (
            ("release", {"name": "../escape"}),
            ("quarantine", {"name": "../escape"}),
            (
                "fail",
                {"name": "../escape", "worker_id": "w", "error": "", "traceback": ""},
            ),
            ("heartbeat", {"name": "../escape", "worker_id": "w", "lease_s": 5.0}),
        ):
            with pytest.raises(BrokerError, match="invalid task name"):
                broker._call(op, args)

    def test_worker_id_ops_reject_traversal(self, server):
        broker = make_broker(server.address)
        for op, args in (
            ("claim", {"worker_id": "../../w"}),
            ("heartbeat_worker", {"worker_id": "../../w", "done": 0}),
        ):
            with pytest.raises(BrokerError, match="invalid worker id"):
                broker._call(op, args)

    def test_filesystem_broker_checks_names_locally(self, tmp_path):
        """The checks sit at the top of the broker's own ops, so a local
        caller is refused exactly like a remote one instead of the op
        quietly doing nothing (or writing outside the root)."""
        from repro.core.queue import Claim

        broker = FilesystemBroker(tmp_path / "q")
        evil = Claim(name="../escape", task=None, worker_id="w", lease_s=5.0)
        for call in (
            lambda: broker.quarantine("../escape"),
            lambda: broker.release(evil),
            lambda: broker.fail(evil, error=RuntimeError("x")),
            lambda: broker.heartbeat(evil),
        ):
            with pytest.raises(BrokerError, match="invalid task name"):
                call()
        for call in (
            lambda: broker.claim("../../w"),
            lambda: broker.heartbeat_worker("../../w", 0),
        ):
            with pytest.raises(BrokerError, match="invalid worker id"):
                call()
        assert not (tmp_path / "escape.json").exists()

    def test_minted_names_and_default_worker_ids_pass(self):
        from repro.core.netqueue import _TASK_NAME_RE, _WORKER_ID_RE
        from repro.core.queue import default_worker_id

        assert _TASK_NAME_RE.fullmatch("00042_0123456789ab.task")
        assert _WORKER_ID_RE.fullmatch(default_worker_id())
        assert _WORKER_ID_RE.fullmatch(f"local-{os.getpid()}-3")


# ----------------------------------------------------------------------
# Lease bounds
# ----------------------------------------------------------------------


class TestLeaseBounds:
    """A lease that is infinite or NaN never expires, and one that is not
    positive has expired when it lands: the task of a worker that dies
    under the first kind never returns to the queue.  Every way a lease
    duration enters the broker refuses both."""

    BAD = [float("inf"), float("nan"), -1.0, 0.0, True]

    @pytest.mark.parametrize("bad", BAD)
    def test_constructors_reject(self, tmp_path, bad):
        with pytest.raises(ValueError, match="lease_s"):
            FilesystemBroker(tmp_path / "q", lease_s=bad)
        with pytest.raises(ValueError, match="lease_s"):
            TcpBroker("127.0.0.1", 1, lease_s=bad)
        with pytest.raises(ValueError, match="lease_s"):
            BrokerServer(tmp_path / "q", port=0, lease_s=bad)

    def test_server_rejects_unbounded_claim_and_heartbeat(
        self, server, builder, scenarios
    ):
        campaign = _campaign(builder, scenarios)
        broker = make_broker(server.address)
        broker.publish(campaign.context(), campaign.tasks())
        for bad in self.BAD:
            with pytest.raises(BrokerError, match="lease_s"):
                broker._call("claim", {"worker_id": "w", "lease_s": bad})
        assert broker.status()["claimed"] == 0, "a refused claim takes nothing"
        claim = broker.claim("w", lease_s=0.2)
        for bad in self.BAD:
            with pytest.raises(BrokerError, match="lease_s"):
                broker._call(
                    "heartbeat",
                    {"name": claim.name, "worker_id": "w", "lease_s": bad},
                )
        time.sleep(0.4)
        assert broker.requeue_expired() == [claim.name], (
            "a refused heartbeat must not have extended the lease"
        )


class TestWaitBounds:
    """A waiting op parks a server thread: the server refuses a wait
    that is unbounded or negative, and the client refuses one its own
    socket timeout could cut short (a re-sent claim would be granted
    twice)."""

    @pytest.mark.parametrize("bad", [float("inf"), float("nan"), -1.0, True])
    def test_server_refuses_unbounded_waits(self, server, bad):
        broker = make_broker(server.address)
        for op, args in (("claim", {"worker_id": "w"}), ("read_results", {"offset": 0})):
            with pytest.raises(BrokerError, match="wait_s"):
                broker._call(op, dict(args, wait_s=bad))

    def test_client_refuses_a_wait_near_its_timeout(self, server):
        host, port = parse_tcp_url(server.address)
        broker = TcpBroker(host, port, timeout_s=1.0)
        with pytest.raises(BrokerError, match="timeout_s"):
            broker.claim("w", wait_s=0.6)
        with pytest.raises(BrokerError, match="timeout_s"):
            broker.read_results(0, wait_s=0.6)
        assert broker.claim("w", wait_s=0.1) is None

    def test_frames_without_a_wait_are_unchanged(self, monkeypatch):
        sent = []

        def record(op, args=None):
            sent.append((op, args))
            return {"offset": 7, "rows": []} if op == "read_results" else None

        broker = TcpBroker("127.0.0.1", 1)
        monkeypatch.setattr(broker, "_call", record)
        broker.claim("w")
        broker.claim("w", lease_s=5.0, wait_s=0)
        broker.read_results(7)
        broker.claim("w", wait_s=0.5)
        assert sent == [
            ("claim", {"worker_id": "w", "lease_s": None}),
            ("claim", {"worker_id": "w", "lease_s": 5.0}),
            ("read_results", {"offset": 7}),
            ("claim", {"worker_id": "w", "lease_s": None, "wait_s": 0.5}),
        ]


# ----------------------------------------------------------------------
# Client plumbing
# ----------------------------------------------------------------------


class TestTcpBrokerPlumbing:
    def test_ping_reports_protocol_and_server_identity(self, server):
        info = make_broker(server.address).ping()
        assert info["protocol"] == 1
        assert info["pid"] == os.getpid()  # served from this process

    def test_application_error_raises_broker_error(self, server):
        broker = make_broker(server.address)
        with pytest.raises(BrokerError, match="unknown broker op"):
            broker._call("no-such-op")
        # A server-side exception relays type and message.
        with pytest.raises(BrokerError, match="ValueError"):
            broker.artifact_put("../escape", b"x")

    def test_pickles_and_reconnects(self, server):
        """fork-spawned drain workers receive the broker by pickle; the
        clone drops the socket and reconnects on first use."""
        broker = make_broker(server.address)
        broker.ping()  # holds a live connection now
        clone = pickle.loads(pickle.dumps(broker))
        assert clone.address == broker.address
        assert clone._sock is None
        assert clone.status()["pending"] == 0

    def test_unreachable_server_raises_connection_error(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()  # nothing listens here any more
        broker = TcpBroker(
            "127.0.0.1", port, timeout_s=0.5, retries=2, retry_backoff_s=0.01
        )
        with pytest.raises(ConnectionError, match="unreachable after 3 attempts"):
            broker.ping()

    def test_state_survives_server_restart(self, builder, scenarios, tmp_path):
        """The state directory is authoritative: stop the server, serve
        the same root again, and the published queue is still there."""
        root = tmp_path / "queue"
        campaign = _campaign(builder, scenarios)
        first = BrokerServer(root, port=0).start()
        try:
            make_broker(first.address).publish(
                campaign.context(), campaign.tasks()
            )
        finally:
            first.stop()
        second = BrokerServer(root, port=0).start()
        try:
            broker = make_broker(second.address)
            assert broker.status()["pending"] == len(campaign.tasks())
            claim = broker.claim("survivor")
            assert claim is not None and broker.release(claim) is True
        finally:
            second.stop()


# ----------------------------------------------------------------------
# Acceptance: byte-identity with a serial run
# ----------------------------------------------------------------------


class TestTcpAcceptance:
    def test_tcp_campaign_with_killed_worker_matches_serial(
        self, builder, scenarios, serial_dicts, server
    ):
        """The FilesystemBroker acceptance invariant, over the network:
        ≥2 TCP workers, one SIGKILLed mid-episode; its lease expires
        server-side, the task requeues, and the folded result is
        identical to a serial run."""
        coordinator = _CoordinatorThread(
            _campaign(
                builder, scenarios,
                executor=_queue_executor(server.address, lease_s=1.5),
            )
        )
        coordinator.start()
        fs = server.broker
        _wait_for(lambda: fs._list(fs.tasks_dir), message="tasks published")

        # The victim is the only worker, so it must be the one claiming.
        victim = _spawn_worker(server.address, "victim", lease_s=1.5, idle_timeout=30.0)
        _wait_for(lambda: any(fs.leases_dir.glob("*.json")), message="victim's lease")
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=30)

        healthy = [_spawn_worker(server.address, f"healthy-{i}") for i in range(2)]
        result = coordinator.finish()
        for proc in healthy:
            proc.join(timeout=60)

        assert _dicts(result) == serial_dicts

        # Resume purely from the server-side checkpoint: nothing pending.
        resumed = _campaign(
            builder, scenarios,
            checkpoint_path=fs.root / "results.jsonl",
        )
        assert resumed.pending() == []
        assert _dicts(resumed.run()) == serial_dicts

    def test_second_campaign_resumes_from_the_server_without_a_checkpoint(
        self, builder, scenarios, serial_dicts, server
    ):
        """A remote broker keeps the checkpoint server-side: a second
        campaign on the same tcp:// address, with no checkpoint_path of
        its own, must see the grid as done and return the same bytes."""
        first = _campaign(
            builder, scenarios, executor=_queue_executor(server.address, workers=1)
        ).run()
        assert _dicts(first) == serial_dicts

        executed = []
        again = _campaign(
            builder, scenarios, executor=_queue_executor(server.address, workers=0),
            on_record=lambda task, record: executed.append(task.index),
        )
        assert again.checkpoint_path is None
        assert again.pending() == []
        assert _dicts(again.run()) == serial_dicts
        assert executed == []

    def test_chaotic_tcp_campaign_matches_serial(
        self, builder, scenarios, serial_dicts, server
    ):
        """Every chaos dial lit on every worker's transport — delays,
        drops before and after the server executed (at-least-once
        duplicates), torn frames, reconnect storms — and the folded
        campaign is still byte-identical to the serial run."""
        executor = _queue_executor(server.address, workers=2, chaos=CHAOS)
        result = _campaign(builder, scenarios, executor=executor).run()
        assert _dicts(result) == serial_dicts

    def test_chaotic_external_workers_match_serial(
        self, builder, scenarios, serial_dicts, server
    ):
        """Same invariant with `avfi worker`-style external drains, each
        carrying its own decorrelated chaos seed."""
        coordinator = _CoordinatorThread(
            _campaign(builder, scenarios, executor=_queue_executor(server.address))
        )
        coordinator.start()
        fs = server.broker
        _wait_for(lambda: fs._list(fs.tasks_dir), message="tasks published")
        workers = [
            _spawn_worker(
                server.address, f"chaotic-{i}", lease_s=10.0, idle_timeout=1.0,
                chaos=dict(CHAOS, seed=CHAOS["seed"] + i),
            )
            for i in range(2)
        ]
        result = coordinator.finish()
        for proc in workers:
            proc.join(timeout=60)
        assert _dicts(result) == serial_dicts


# ----------------------------------------------------------------------
# Waiting claims under transport chaos
# ----------------------------------------------------------------------


def _drop_first_response_chaos() -> NetworkChaos:
    """A seeded :class:`NetworkChaos` whose first attempt loses its
    response and whose second goes through — found by scanning seeds,
    so the schedule is fixed."""
    for seed in range(1000):
        probe = NetworkChaos(seed=seed, drop_after_p=0.5)
        if probe.plan()["drop_after"] and not probe.plan()["drop_after"]:
            return NetworkChaos(seed=seed, drop_after_p=0.5)
    raise AssertionError("no seed drops exactly the first response")


class TestWaitingClaims:
    def test_stop_returns_while_a_client_waits(self, tmp_path):
        server = BrokerServer(tmp_path / "queue", port=0).start()
        parked = threading.Thread(
            target=make_broker(server.address).claim,
            args=("parked",),
            kwargs={"wait_s": 1.5},
            daemon=True,
        )
        parked.start()
        time.sleep(0.3)  # the claim is parked on the server by now
        start = time.monotonic()
        server.stop()
        assert time.monotonic() - start < MAX_WAIT_S
        assert parked.is_alive(), "stop() did not wait out the parked claim"
        parked.join(timeout=10.0)
        assert not parked.is_alive()

    def test_no_op_reaches_the_root_after_stop(self, builder, scenarios, tmp_path):
        """A claim parked before ``stop()`` and woken by a publish after it
        answers "no task" without claiming, and a connection that was
        idle at ``stop()`` is closed, so its next op never runs."""
        root = tmp_path / "queue"
        server = BrokerServer(root, port=0).start()
        host, port = parse_tcp_url(server.address)
        idle = TcpBroker(host, port, retries=0)
        idle.status()  # opens the connection, then sits idle on it
        granted = []
        parked = threading.Thread(
            target=lambda: granted.append(
                make_broker(server.address).claim("parked", wait_s=3.0)
            ),
            daemon=True,
        )
        parked.start()
        time.sleep(0.3)  # the claim is parked on the server by now
        server.stop()
        campaign = _campaign(builder, scenarios)
        local = FilesystemBroker(root)
        local.publish(campaign.context(), campaign.tasks())  # wakes the park
        parked.join(timeout=10.0)
        assert not parked.is_alive()
        assert granted == [None]
        with pytest.raises(ConnectionError):
            idle.heartbeat_worker("after-stop", 0)
        assert local.status()["claimed"] == 0
        assert local.status()["pending"] == len(campaign.tasks())
        assert local.workers() == []

    def test_dropped_response_to_a_granted_waiting_claim_matches_serial(
        self, builder, scenarios, serial_dicts, server
    ):
        """A waiting claim is granted on the server, and its response is
        lost: the client re-sends it and is granted a second task.  The
        first task's lease (no one heartbeats it) expires back into the
        queue, and the folded campaign is byte-identical to serial."""
        victim = make_broker(server.address, lease_s=0.5)
        victim.chaos = _drop_first_response_chaos()
        granted = []
        waiting = threading.Thread(
            target=lambda: granted.append(
                victim.claim("victim", lease_s=0.5, wait_s=5.0)
            ),
            daemon=True,
        )
        waiting.start()
        time.sleep(0.3)  # both claims park before the publish wakes them
        coordinator = _CoordinatorThread(
            _campaign(
                builder, scenarios,
                executor=_queue_executor(server.address, lease_s=1.5),
            )
        )
        coordinator.start()
        waiting.join(timeout=30)
        assert not waiting.is_alive()
        assert granted and granted[0] is not None
        fs = server.broker
        # The lost grant and the re-sent one: two claims, one abandoned
        # (the victim never runs or releases either).
        assert len(fs.claimed_names()) == 2
        healthy = _spawn_worker(server.address, "healthy", lease_s=1.5)
        result = coordinator.finish()
        healthy.join(timeout=60)
        identities = [
            (r.injector, r.scenario, r.seed, r.config_fingerprint)
            for r in result.records
        ]
        assert len(set(identities)) == len(identities)
        assert _dicts(result) == serial_dicts
