"""Tests for the HTTP control plane (repro.core.service).

Everything here goes through a real socket — urllib against a live
:class:`~repro.core.service.CampaignService` — because the satellite
invariant is end-to-end: submit ``examples/specs/smoke.json`` over HTTP,
poll until settled, and the streamed JSONL results are byte-identical to
what a serial ``avfi run`` of the same spec produces.
"""

import copy
import hashlib
import json
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path
from types import SimpleNamespace

import pytest

import repro.core.service as service_module
from repro.cli import main as cli_main
from repro.core import Campaign, run_worker
from repro.core.chaos import CrashFault
from repro.core.faults import FAULT_REGISTRY
from repro.core.service import CampaignService, Submission
from repro.core.spec import CampaignSpec

SMOKE = Path(__file__).resolve().parents[2] / "examples" / "specs" / "smoke.json"


def _request(url, method="GET", payload=None, body=None):
    """(status, parsed-or-raw body, content-type); 4xx/5xx don't raise."""
    data = body
    headers = {}
    if payload is not None:
        data = json.dumps(payload).encode()
        headers["Content-Type"] = "application/json"
    req = urllib.request.Request(url, data=data, headers=headers, method=method)
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            raw, status = resp.read(), resp.status
            ctype = resp.headers.get("Content-Type", "")
    except urllib.error.HTTPError as err:
        raw, status = err.read(), err.code
        ctype = err.headers.get("Content-Type", "")
    if ctype.startswith("application/json"):
        return status, json.loads(raw), ctype
    return status, raw, ctype


def _poll_settled(url, sub_id, timeout=180.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, summary, _ = _request(f"{url}/campaigns/{sub_id}")
        assert status == 200
        if summary["state"] in ("done", "failed"):
            return summary
        time.sleep(0.1)
    raise AssertionError(f"campaign {sub_id} never settled: {summary}")


@pytest.fixture(scope="module")
def smoke_payload():
    return json.loads(SMOKE.read_text())


@pytest.fixture(scope="module")
def expected_jsonl(smoke_payload):
    """What a local `avfi run` of the same spec yields, rendered exactly
    like the service streams it."""
    records = Campaign.from_spec(CampaignSpec.from_dict(smoke_payload)).run().records
    return "".join(json.dumps(r.to_dict()) + "\n" for r in records).encode()


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    service = CampaignService(
        tmp_path_factory.mktemp("service"),
        port=0,
        default_workers=1,
        stall_timeout=120.0,
        poll_s=0.05,
    ).start()
    yield service
    service.stop()


@pytest.fixture(scope="module")
def settled_id(service, smoke_payload):
    """The smoke spec, submitted over HTTP and polled to completion —
    the shared subject of the happy-path assertions."""
    status, summary, _ = _request(
        f"{service.url}/campaigns", method="POST", payload=smoke_payload
    )
    assert status == 201, summary
    assert summary["state"] in ("queued", "running")
    final = _poll_settled(service.url, summary["id"])
    assert final["state"] == "done", final
    return summary["id"]


class TestHappyPath:
    def test_root_reports_service_and_broker(self, service):
        status, info, _ = _request(service.url)
        assert status == 200
        assert info["service"] == "avfi-campaigns"
        assert info["broker"].startswith("tcp://")

    def test_summary_counts_every_episode_ok(self, service, settled_id):
        status, summary, _ = _request(f"{service.url}/campaigns/{settled_id}")
        assert status == 200
        assert summary["name"] == "smoke"
        assert summary["total"] == 3  # 1 scenario x 3 injectors
        assert summary["counts"] == {"ok": 3}

    def test_streamed_results_byte_identical_to_serial_run(
        self, service, settled_id, expected_jsonl
    ):
        status, body, ctype = _request(f"{service.url}/campaigns/{settled_id}/results")
        assert status == 200
        assert ctype == "application/x-ndjson"
        assert body == expected_jsonl

    def test_episode_rows_in_grid_order(self, service, settled_id, smoke_payload):
        status, payload, _ = _request(
            f"{service.url}/campaigns/{settled_id}/episodes"
        )
        assert status == 200
        episodes = payload["episodes"]
        assert [e["index"] for e in episodes] == [0, 1, 2]
        assert [e["injector"] for e in episodes] == list(smoke_payload["injectors"])
        assert all(e["outcome"] == "ok" for e in episodes)
        assert all(isinstance(e["success"], bool) for e in episodes)

    def test_resubmission_resumes_from_result_cache(
        self, service, settled_id, smoke_payload, expected_jsonl
    ):
        """The shared checkpoint is a service-wide result cache: the same
        spec resubmitted with *zero* workers still settles (instantly) —
        every row folds back from the first run."""
        status, summary, _ = _request(
            f"{service.url}/campaigns",
            method="POST",
            payload={"spec": smoke_payload, "workers": 0},
        )
        assert status == 201
        assert summary["id"] != settled_id
        final = _poll_settled(service.url, summary["id"], timeout=60.0)
        assert final["state"] == "done"
        _, body, _ = _request(f"{service.url}/campaigns/{summary['id']}/results")
        assert body == expected_jsonl

    def test_campaign_listing_shows_all_submissions(self, service, settled_id):
        status, payload, _ = _request(f"{service.url}/campaigns")
        assert status == 200
        ids = [c["id"] for c in payload["campaigns"]]
        assert settled_id in ids


class TestSubmitCli:
    def test_submit_wait_long_polls_to_the_metrics_table(
        self, service, settled_id, tmp_path, capsys, expected_jsonl
    ):
        """``avfi submit --wait`` against the live service: the smoke
        spec settles from the result cache, and the saved rows are the
        serial bytes."""
        saved = tmp_path / "results.jsonl"
        cli_main(
            ["submit", str(SMOKE), "--url", service.url, "--wait", "--save", str(saved)]
        )
        out = capsys.readouterr().out
        assert "done: ok=3" in out
        assert "MSR_%" in out
        assert saved.read_bytes() == expected_jsonl

    def test_submit_poll_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["submit", str(SMOKE), "--wait", "--poll", "1"])
        assert "--poll" in capsys.readouterr().err


class TestLongPoll:
    """``GET /campaigns/<id>?wait=<s>`` holds the request until the
    submission settles (or the wait runs out), so a client learns of a
    settle when it happens, not at its next poll."""

    @pytest.fixture
    def idle_service(self, tmp_path):
        service = CampaignService(tmp_path / "svc", port=0).start()
        yield service
        service.stop()

    @staticmethod
    def _park(service, smoke_payload) -> Submission:
        """A submission the run loop never sees: the test settles it."""
        sub = Submission("c0042", CampaignSpec.from_dict(smoke_payload), {})
        with service._lock:
            service._submissions[sub.id] = sub
            service._order.append(sub.id)
        return sub

    def test_summary_never_pairs_done_with_an_unsettled_count(
        self, idle_service, smoke_payload, monkeypatch
    ):
        """The run loop may settle a submission while a summary counts
        its episodes: the summary reports the state it counted under,
        never "done" beside a pending episode."""
        sub = self._park(idle_service, smoke_payload)
        sub.state = "running"
        sub.campaign = SimpleNamespace(total_runs=lambda: 1)

        def rows_while_the_last_row_lands(counted):
            counted.state = "done"
            return [{"outcome": "pending"}]

        monkeypatch.setattr(idle_service, "episode_rows", rows_while_the_last_row_lands)
        summary = idle_service.summary(sub)
        assert (summary["state"], summary["counts"]) == ("running", {"pending": 1})

    def test_returns_promptly_when_the_campaign_settles(
        self, idle_service, smoke_payload
    ):
        sub = self._park(idle_service, smoke_payload)

        def settle():
            time.sleep(0.3)
            sub.state = "done"
            sub.settled.set()

        threading.Thread(target=settle, daemon=True).start()
        start = time.monotonic()
        status, summary, _ = _request(f"{idle_service.url}/campaigns/{sub.id}?wait=20")
        elapsed = time.monotonic() - start
        assert status == 200
        assert summary["state"] == "done"
        assert 0.3 <= elapsed < 2.0

    def test_runs_out_with_the_current_state(self, idle_service, smoke_payload):
        sub = self._park(idle_service, smoke_payload)
        start = time.monotonic()
        status, summary, _ = _request(f"{idle_service.url}/campaigns/{sub.id}?wait=0.3")
        assert status == 200
        assert summary["state"] == "queued"
        assert time.monotonic() - start >= 0.3

    @pytest.mark.parametrize("bad", ["nan", "inf", "-1", "soon"])
    def test_malformed_wait_is_400(self, idle_service, smoke_payload, bad):
        sub = self._park(idle_service, smoke_payload)
        status, body, _ = _request(f"{idle_service.url}/campaigns/{sub.id}?wait={bad}")
        assert status == 400
        assert "wait" in body["error"]


class TestEventDrivenHandOff:
    def test_back_to_back_submissions_settle_within_a_fraction_of_poll_s(
        self, tmp_path, smoke_payload
    ):
        """With 5 s poll periods on both sides, hand-offs still take
        milliseconds: the publish wakes the worker's waiting claim, and
        each appended row wakes the coordinator's results read.  Polling
        would put a 5 s sleep into every settle."""
        service = CampaignService(
            tmp_path / "svc", port=0, default_workers=0, poll_s=5.0
        ).start()
        second = copy.deepcopy(smoke_payload)
        second["execution"]["base_seed"] = 1  # new episodes, not cache hits
        worker = threading.Thread(
            target=run_worker,
            kwargs=dict(
                queue_dir=service.broker_address,
                worker_id="latency",
                poll_s=5.0,
                idle_timeout=60.0,
                max_tasks=6,  # both submissions: 2 x (1 scenario x 3 injectors)
            ),
            daemon=True,
        )
        worker.start()
        try:
            for payload in (smoke_payload, second):
                start = time.monotonic()
                status, summary, _ = _request(
                    f"{service.url}/campaigns", method="POST", payload=payload
                )
                assert status == 201, summary
                final = _poll_settled(service.url, summary["id"], timeout=60.0)
                settle_s = time.monotonic() - start
                assert final["state"] == "done", final
                assert final["counts"] == {"ok": 3}
                assert settle_s < 2.5, f"{summary['id']} took {settle_s:.2f}s"
            worker.join(timeout=60.0)
            assert not worker.is_alive(), "the worker stops after max_tasks"
        finally:
            service.stop()


    def test_a_parked_failure_settles_its_submission_at_once(
        self, tmp_path, smoke_payload, monkeypatch
    ):
        """A worker parking a failed episode wakes the coordinator's
        results read, and the woken read checks the failures.  Otherwise
        the quarantine waits for the next failure scan, ``poll_s`` = 5 s
        away here."""
        monkeypatch.setitem(FAULT_REGISTRY, CrashFault.name, CrashFault)
        # The crash runs last: the record before it has already brought
        # the coordinator's first failure scan.
        payload = copy.deepcopy(smoke_payload)
        payload["injectors"] = {
            "none": [],
            "crash": [{"fault": CrashFault.name, "params": {}, "trigger": None}],
        }
        service = CampaignService(
            tmp_path / "svc", port=0, default_workers=0, poll_s=5.0
        ).start()
        worker = threading.Thread(
            target=run_worker,
            kwargs=dict(
                queue_dir=service.broker_address,
                worker_id="crash",
                poll_s=0.5,
                idle_timeout=2.0,
            ),
            daemon=True,
        )
        try:
            start = time.monotonic()
            status, summary, _ = _request(
                f"{service.url}/campaigns",
                method="POST",
                payload={
                    "spec": payload,
                    "fault_tolerance": {"max_attempts": 1, "failure_budget": 1},
                },
            )
            assert status == 201, summary
            worker.start()
            final = _poll_settled(service.url, summary["id"], timeout=60.0)
            settle_s = time.monotonic() - start
            assert final["state"] == "done", final
            assert final["counts"] == {"ok": 1, "quarantined": 1}
            assert settle_s < 2.0, f"{summary['id']} took {settle_s:.2f}s"
            worker.join(timeout=60.0)
            assert not worker.is_alive(), "the worker stops once idle"
        finally:
            service.stop()


class TestRejection:
    """Malformed input is a 4xx with a path-anchored SpecError body —
    never a stack trace, never a submission."""

    def test_malformed_spec_is_400_with_spec_error_path(self, service, smoke_payload):
        broken = dict(smoke_payload)
        del broken["injectors"]
        status, body, _ = _request(
            f"{service.url}/campaigns", method="POST", payload=broken
        )
        assert status == 400
        assert body["error"] == "invalid campaign spec at spec.injectors: missing"
        assert body["path"] == "spec.injectors"
        bad_fault = json.loads(json.dumps(smoke_payload))
        bad_fault["injectors"]["gaussian"][0]["fault"] = "no-such-fault"
        status, body, _ = _request(
            f"{service.url}/campaigns", method="POST", payload=bad_fault
        )
        assert status == 400
        assert body["path"] == "spec.injectors['gaussian'][0]"

    def test_bad_texture_resolution_is_400(self, service, smoke_payload):
        # Infinity used to be accepted and rasterise an empty texture that
        # failed only at the first sensed frame, inside a worker.
        for bad in (float("inf"), float("nan"), -1, True, "x"):
            spec = json.loads(json.dumps(smoke_payload))
            spec["builder"]["texture_resolution"] = bad
            status, body, _ = _request(
                f"{service.url}/campaigns", method="POST", payload=spec
            )
            assert status == 400, (bad, body)
            assert body["path"] == "spec.builder"
            assert "texture resolution" in body["error"]

    def test_unknown_envelope_key_is_400(self, service, smoke_payload):
        status, body, _ = _request(
            f"{service.url}/campaigns",
            method="POST",
            payload={"spec": smoke_payload, "wrokers": 2},
        )
        assert status == 400
        assert "unknown envelope key" in body["error"]
        assert "wrokers" in body["error"]

    def test_bad_override_types_are_400_with_request_path(self, service, smoke_payload):
        for field, bad in (
            ("workers", -1),
            ("lease_s", 0),
            # NaN/Infinity parse as JSON floats, true as an int: none of
            # them is a lease that ever expires.
            ("lease_s", float("nan")),
            ("lease_s", float("inf")),
            ("lease_s", True),
            ("episodes_per_slot", 0),
            ("fault_tolerance", {"max_attempts": "lots"}),
        ):
            status, body, _ = _request(
                f"{service.url}/campaigns",
                method="POST",
                payload={"spec": smoke_payload, field: bad},
            )
            assert status == 400, (field, body)
            assert body["path"] == f"request.{field}"

    def test_non_json_body_is_400(self, service):
        status, body, _ = _request(
            f"{service.url}/campaigns", method="POST", body=b"not json {"
        )
        assert status == 400
        assert "not JSON" in body["error"]

    def test_unknown_campaign_and_endpoint_are_404(self, service):
        status, body, _ = _request(f"{service.url}/campaigns/c9999")
        assert status == 404
        assert "no such campaign" in body["error"]
        status, body, _ = _request(f"{service.url}/nope")
        assert status == 404


class TestArtifacts:
    """The content-addressed store, over HTTP (workers use the broker's
    TCP ops; these endpoints serve humans and CI)."""

    def test_put_get_roundtrip(self, service):
        blob = b"weights-bytes"
        sha = hashlib.sha1(blob).hexdigest()
        status, body, _ = _request(
            f"{service.url}/artifacts/{sha}", method="PUT", body=blob
        )
        assert status == 200 and body["sha"] == sha
        status, fetched, ctype = _request(f"{service.url}/artifacts/{sha}")
        assert status == 200
        assert ctype == "application/octet-stream"
        assert fetched == blob

    def test_missing_artifact_is_404_and_bad_sha_is_400(self, service):
        status, _, _ = _request(f"{service.url}/artifacts/{'0' * 40}")
        assert status == 404
        status, body, _ = _request(f"{service.url}/artifacts/..%2Fescape")
        assert status == 400


class TestBodyLimit:
    """Content-Length is client-controlled on an unauthenticated socket;
    past the cap it is a 413, never a server-side allocation."""

    def test_oversized_bodies_are_413(self, service, monkeypatch):
        monkeypatch.setattr(service_module, "MAX_BODY_BYTES", 1024)
        blob = b"x" * 4096
        sha = hashlib.sha1(blob).hexdigest()
        status, body, _ = _request(
            f"{service.url}/artifacts/{sha}", method="PUT", body=blob
        )
        assert status == 413
        assert "exceeds" in body["error"]
        status, body, _ = _request(
            f"{service.url}/campaigns", method="POST", body=b"{}" + b" " * 4096
        )
        assert status == 413
        # The service is still healthy afterwards.
        status, _, _ = _request(service.url)
        assert status == 200


class TestShutdown:
    def test_shutdown_endpoint_unblocks_wait_and_refuses_new_work(
        self, tmp_path, smoke_payload
    ):
        service = CampaignService(tmp_path / "svc", port=0).start()
        try:
            status, body, _ = _request(f"{service.url}/shutdown", method="POST")
            assert status == 200 and body["ok"] is True
            service.wait()  # returns promptly once the trigger lands
            status, body, _ = _request(
                f"{service.url}/campaigns", method="POST", payload=smoke_payload
            )
            assert status == 503
            assert "shutting down" in body["error"]
        finally:
            service.stop()

    def test_stop_settles_submissions_the_run_loop_never_saw(
        self, tmp_path, smoke_payload
    ):
        """The submit/stop race, made deterministic: a submission sitting
        in the queue after the run loop exited must be settled as failed
        by stop() — a ``--wait`` poller sees a terminal state, not
        'queued' forever."""
        service = CampaignService(tmp_path / "svc", port=0).start()
        # Kill the run loop directly (as stop()'s sentinel would).
        service._queue.put(None)
        service._run_thread.join(timeout=10)
        assert not service._run_thread.is_alive()
        # Re-create the pre-fix race: a submission enqueued behind the
        # sentinel, which no run loop will ever pick up.
        sub = Submission("c9999", CampaignSpec.from_dict(smoke_payload), {})
        with service._lock:
            service._submissions[sub.id] = sub
            service._order.append(sub.id)
            service._queue.put(sub.id)
        service.stop()
        assert sub.state == "failed"
        assert "shut down" in sub.error
        assert sub.settled.is_set()
