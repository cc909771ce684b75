"""Campaign-as-a-service: an HTTP control plane over the queue broker.

:class:`CampaignService` turns a machine into a standing fault-injection
service.  It owns one :class:`~repro.core.netqueue.BrokerServer` (the
task queue workers attach to with ``avfi worker --queue-dir
tcp://host:port``) and one small HTTP API in front of it:

========================== ==========================================
``POST /campaigns``        submit a :class:`~repro.core.spec.CampaignSpec`
                           as JSON (optionally wrapped in an envelope
                           with ``workers`` / ``fault_tolerance`` /
                           ``lease_s`` / ``episodes_per_slot``
                           overrides); a malformed spec is a ``400``
                           whose body carries the path-anchored
                           :class:`~repro.core.spec.SpecError` message
``GET  /campaigns``        all submissions, newest last
``GET  /campaigns/<id>``   one submission's state + outcome counts;
                           ``?wait=<s>`` first blocks until it settles
                           or min(s, 30) seconds pass (a long poll)
``GET  /campaigns/<id>/episodes``
                           per-episode status in grid order, each one
                           of the :class:`~repro.core.outcomes.EpisodeOutcome`
                           taxonomy plus ``running``/``pending``
``GET  /campaigns/<id>/results``
                           the settled grid as JSONL, byte-identical
                           to the checkpoint a serial ``avfi run``
                           would write for the same spec
``GET/PUT/HEAD /artifacts/<sha>``
                           the broker's content-addressed artifact
                           store (NN weights ship once per worker)
``POST /shutdown``         stop serving after the current campaign
========================== ==========================================

Submissions run **serially** on one shared broker root: each run
re-publishes the broker's context (the documented re-publish semantics
of :meth:`~repro.core.queue.FilesystemBroker.publish`), so long-lived
workers — attached once over TCP — serve submission after submission
without restarting.  The shared ``results.jsonl`` doubles as a service-
wide result cache: resubmitting a spec whose episodes already ran folds
the existing rows back instantly (the grid fold matches rows by episode
fingerprint, so foreign rows are invisible).

NN agent specs are transparently warm-started: before publishing, the
agent factory is swapped for an
:class:`~repro.core.artifacts.ArtifactNNAgentFactory` whose weights live
in the broker's artifact store — the campaign context pickle shrinks
from megabytes to kilobytes and each worker fetches the weights once.

Security: the control plane and the broker are **unauthenticated TCP**,
same trust model as the shared queue directory they replace — bind them
to localhost or a trusted network only, never the open internet.
"""

from __future__ import annotations

import json
import math
import queue as queue_module
import threading
import time
import traceback
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qs, urlsplit

from .outcomes import EpisodeOutcome, FaultTolerancePolicy
from .queue import check_lease_s
from .resultlog import render_line
from .spec import CampaignSpec, SpecError

__all__ = ["CampaignService", "Submission"]

#: Envelope keys ``POST /campaigns`` understands around a bare spec.
_ENVELOPE_KEYS = {"spec", "workers", "lease_s", "fault_tolerance", "episodes_per_slot"}

#: Hard ceiling on one HTTP request body.  Artifact PUTs carry NN
#: weights (megabytes), so the cap is generous — but an arbitrary
#: Content-Length must not become an arbitrary server-side allocation,
#: even on the trusted network the service is documented for.
MAX_BODY_BYTES = 256 * 1024 * 1024

#: Longest ``GET /campaigns/<id>?wait=<s>`` holds a request open.
MAX_STATUS_WAIT_S = 30.0


class _BodyTooLarge(Exception):
    """Request body exceeds :data:`MAX_BODY_BYTES` — rendered as 413."""

    def __init__(self, length: int):
        super().__init__(
            f"request body of {length} bytes exceeds the {MAX_BODY_BYTES} limit"
        )


class Submission:
    """One submitted campaign and everything the API reports about it.

    ``state`` walks ``queued -> running -> done | failed``; ``settled``
    is set on either terminal state (``GET /campaigns/<id>?wait=`` and
    tests wait on the event).
    """

    def __init__(self, sub_id: str, spec: CampaignSpec, overrides: dict):
        self.id = sub_id
        self.spec = spec
        #: Execution overrides from the submission envelope (``workers``,
        #: ``lease_s``, ``fault_tolerance``, ``episodes_per_slot``).
        self.overrides = overrides
        self.state = "queued"
        self.error = ""
        self.traceback_text = ""
        self.created_at = time.time()
        self.campaign = None
        self.result = None
        self.settled = threading.Event()

    def is_settled(self) -> bool:
        return self.state in ("done", "failed")


def _parse_submission_payload(payload) -> tuple[CampaignSpec, dict]:
    """``(spec, overrides)`` from a request body — either a bare spec
    (recognised by its ``schema_version``) or an envelope.  Raises
    :class:`SpecError` with a path into the JSON on anything malformed,
    exactly like loading a spec file would."""
    if not isinstance(payload, dict):
        raise SpecError("request", f"expected an object, got {type(payload).__name__}")
    if "spec" not in payload:
        return CampaignSpec.from_dict(payload), {}
    unknown = set(payload) - _ENVELOPE_KEYS
    if unknown:
        raise SpecError(
            "request", f"unknown envelope key(s): {', '.join(sorted(unknown))}"
        )
    spec = CampaignSpec.from_dict(payload["spec"])
    overrides: dict = {}
    workers = payload.get("workers")
    if workers is not None:
        if not isinstance(workers, int) or workers < 0:
            raise SpecError("request.workers", f"expected an integer >= 0, got {workers!r}")
        overrides["workers"] = workers
    lease_s = payload.get("lease_s")
    if lease_s is not None:
        try:
            overrides["lease_s"] = check_lease_s(lease_s)
        except ValueError as exc:
            raise SpecError("request.lease_s", str(exc)) from None
    episodes_per_slot = payload.get("episodes_per_slot")
    if episodes_per_slot is not None:
        if not isinstance(episodes_per_slot, int) or episodes_per_slot < 1:
            raise SpecError(
                "request.episodes_per_slot",
                f"expected an integer >= 1, got {episodes_per_slot!r}",
            )
        overrides["episodes_per_slot"] = episodes_per_slot
    tolerance = payload.get("fault_tolerance")
    if tolerance is not None:
        try:
            overrides["fault_tolerance"] = FaultTolerancePolicy.from_dict(tolerance)
        except (ValueError, TypeError) as exc:
            raise SpecError("request.fault_tolerance", str(exc)) from None
    return spec, overrides


class CampaignService:
    """The standing service: broker + HTTP control plane + run loop.

    ``state_dir`` is authoritative and durable — the broker root (with
    its checkpoint and artifact store) lives at ``state_dir/queue`` and
    survives restarts just like a plain queue directory would.

    ``default_workers`` local drain workers are forked per campaign when
    a submission doesn't say otherwise; ``0`` (the default) means the
    service only coordinates and real work waits for workers attached
    over TCP (``avfi worker --queue-dir <service.broker_address>``).

    Hand-offs are event-driven: the run loop's coordinator shares this
    process with the broker server, so a row a worker appends over TCP
    wakes its results read at once, and a publish wakes a worker parked
    in a waiting claim.  ``poll_s`` is only the longest such wait.
    """

    def __init__(
        self,
        state_dir: str | Path,
        host: str = "127.0.0.1",
        port: int = 0,
        broker_port: int = 0,
        lease_s: float = 60.0,
        default_workers: int = 0,
        stall_timeout: float | None = None,
        poll_s: float = 0.2,
    ):
        from .netqueue import BrokerServer  # deferred: heavy import chain

        self.state_dir = Path(state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.lease_s = float(lease_s)
        self.default_workers = int(default_workers)
        self.stall_timeout = stall_timeout
        self.poll_s = float(poll_s)
        self.broker_server = BrokerServer(
            self.state_dir / "queue", host=host, port=broker_port, lease_s=lease_s
        )
        self._submissions: dict[str, Submission] = {}
        self._order: list[str] = []
        self._lock = threading.Lock()
        self._queue: queue_module.Queue = queue_module.Queue()
        self._run_thread: threading.Thread | None = None
        self._stopping = threading.Event()
        self._http = _ControlPlaneServer((host, port), _ControlPlaneHandler)
        self._http.service = self
        self._http_thread: threading.Thread | None = None

    # -- lifecycle -----------------------------------------------------

    @property
    def url(self) -> str:
        host, port = self._http.server_address[:2]
        return f"http://{host}:{port}"

    @property
    def broker_address(self) -> str:
        """The broker URL workers attach to (``tcp://host:port``)."""
        return self.broker_server.address

    def start(self) -> "CampaignService":
        self.broker_server.start()
        self._run_thread = threading.Thread(
            target=self._run_loop, name="campaign-service-runner", daemon=True
        )
        self._run_thread.start()
        self._http_thread = threading.Thread(
            target=self._http.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="campaign-service-http",
            daemon=True,
        )
        self._http_thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting work and shut everything down.

        Waits for the submission currently running to finish — the run
        loop cannot safely abandon a campaign mid-flight (workers hold
        leases on its tasks); set a ``stall_timeout`` if unattended
        campaigns must not wait forever for workers.
        """
        with self._lock:
            self._stopping.set()
            self._queue.put(None)
        if self._run_thread is not None:
            self._run_thread.join()
            self._run_thread = None
        # Settle anything still queued (nothing will run it now) so a
        # `--wait` poller sees a terminal state instead of hanging.
        while True:
            try:
                sub_id = self._queue.get_nowait()
            except queue_module.Empty:
                break
            sub = self.get(sub_id) if sub_id is not None else None
            if sub is not None and not sub.is_settled():
                sub.state = "failed"
                sub.error = "service shut down before this campaign ran"
                sub.settled.set()
        self._http.shutdown()
        self._http.server_close()
        if self._http_thread is not None:
            self._http_thread.join(timeout=5.0)
            self._http_thread = None
        self.broker_server.stop()

    def wait(self) -> None:
        """Block until a ``POST /shutdown`` (or :meth:`stop`) arrives."""
        self._stopping.wait()

    def request_shutdown(self) -> None:
        """Asynchronous shutdown trigger (the ``POST /shutdown`` path):
        unblocks :meth:`wait` so the owning thread can run :meth:`stop`."""
        self._stopping.set()

    # -- submissions ---------------------------------------------------

    def submit(self, payload) -> Submission:
        """Validate and enqueue a submission (raises :class:`SpecError`)."""
        spec, overrides = _parse_submission_payload(payload)
        with self._lock:
            # Checked and enqueued under the same lock :meth:`stop` takes
            # to set the flag and post its sentinel — a racing submission
            # either lands *before* the sentinel (and runs) or sees the
            # flag (and is refused); it can never slip in after the run
            # loop has been told to exit and sit "queued" forever.
            if self._stopping.is_set():
                raise RuntimeError("service is shutting down")
            sub = Submission(f"c{len(self._order) + 1:04d}", spec, overrides)
            self._submissions[sub.id] = sub
            self._order.append(sub.id)
            self._queue.put(sub.id)
        return sub

    def get(self, sub_id: str) -> Submission | None:
        with self._lock:
            return self._submissions.get(sub_id)

    def submissions(self) -> list[Submission]:
        with self._lock:
            return [self._submissions[sid] for sid in self._order]

    # -- the run loop --------------------------------------------------

    def _run_loop(self) -> None:
        while True:
            sub_id = self._queue.get()
            if sub_id is None:
                return
            sub = self.get(sub_id)
            if sub is None:  # pragma: no cover - defensive
                continue
            try:
                self._run_submission(sub)
                sub.state = "done"
            except Exception as exc:
                sub.error = f"{type(exc).__name__}: {exc}"
                sub.traceback_text = traceback.format_exc()
                sub.state = "failed"
            finally:
                sub.settled.set()

    def _run_submission(self, sub: Submission) -> None:
        from .artifacts import internalize_nn_factory
        from .runner import Campaign

        overrides = sub.overrides
        campaign = Campaign.from_spec(
            sub.spec,
            workers=overrides.get("workers", self.default_workers),
            queue_dir=str(self.broker_server.broker.root),
            lease_s=overrides.get("lease_s", self.lease_s),
            fault_tolerance=overrides.get("fault_tolerance"),
            episodes_per_slot=overrides.get("episodes_per_slot"),
        )
        # Ship NN weights through the artifact store, addressed so
        # workers fetch over the same TCP broker they drain.
        campaign.agent_factory = internalize_nn_factory(
            campaign.agent_factory, self.broker_server.broker, self.broker_address
        )
        executor = campaign.executor
        # The service's liveness knobs beat the spec's: an unattended
        # submission must respect *this* deployment's stall policy.
        if hasattr(executor, "stall_timeout"):
            executor.stall_timeout = self.stall_timeout
        if hasattr(executor, "poll_s"):
            executor.poll_s = self.poll_s
        sub.campaign = campaign
        sub.state = "running"
        sub.result = campaign.run()

    # -- reporting -----------------------------------------------------

    def _running_indexes(self) -> set[int]:
        """Grid indexes currently claimed by a worker (the 5-digit
        prefix of :meth:`~repro.core.queue.FilesystemBroker._task_filename`)."""
        out = set()
        for name in self.broker_server.broker.claimed_names():
            prefix = name.split("_", 1)[0]
            try:
                out.add(int(prefix))
            except ValueError:
                continue
        return out

    @staticmethod
    def _grid_snapshot(campaign):
        """(records-by-identity, failures-by-identity), tolerant of the
        run loop appending concurrently — the fold dicts only ever grow,
        so retry the rare mid-iteration mutation instead of locking the
        hot path."""
        from .runner import record_identity

        for _ in range(8):
            try:
                records = {record_identity(r): r for r in campaign.grid_records()}
                failures = {record_identity(f): f for f in campaign.grid_failures()}
                return records, failures
            except RuntimeError:  # dict changed size mid-iteration
                continue
        return {}, {}  # pragma: no cover - 8 consecutive races

    def episode_rows(self, sub: Submission) -> list[dict]:
        """Per-episode status in grid order.

        ``outcome`` is :class:`~repro.core.outcomes.EpisodeOutcome` for
        settled episodes (records report ``ok`` plus the mission
        ``success`` flag — an unsuccessful mission is still a completed
        episode), ``running`` for episodes under a live claim,
        ``pending`` otherwise.
        """
        campaign = sub.campaign
        if campaign is None:
            return []
        records, failures = self._grid_snapshot(campaign)
        running = self._running_indexes() if not sub.is_settled() else set()
        rows = []
        for task in campaign.tasks():
            row = {
                "index": task.index,
                "injector": task.injector,
                "scenario": task.scenario.name,
                "seed": task.seed,
            }
            record = records.get(task.identity())
            failure = failures.get(task.identity())
            if record is not None:
                row["outcome"] = EpisodeOutcome.OK
                row["success"] = bool(record.success)
            elif failure is not None:
                row["outcome"] = failure.outcome
                row["error_type"] = failure.error_type
            elif task.index in running:
                row["outcome"] = "running"
            else:
                row["outcome"] = "pending"
            rows.append(row)
        return rows

    def summary(self, sub: Submission) -> dict:
        # State before counts: the run loop settles a submission only
        # after its last row is folded, so a "done" read here is never
        # paired with counts from before that row.
        state = sub.state
        counts: dict[str, int] = {}
        total = None
        if sub.campaign is not None:
            total = sub.campaign.total_runs()
            for row in self.episode_rows(sub):
                counts[row["outcome"]] = counts.get(row["outcome"], 0) + 1
        out = {
            "id": sub.id,
            "name": sub.spec.name,
            "state": state,
            "total": total,
            "counts": counts,
        }
        if sub.error:
            out["error"] = sub.error
        return out

    def results_jsonl(self, sub: Submission) -> bytes:
        """The settled grid as JSONL bytes, one row per episode in grid
        order — records and quarantine rows interleaved exactly where
        their episode sits, which is byte-for-byte the checkpoint a
        serial run of the same spec would write (checkpoint appends
        render rows with the same :func:`~repro.core.resultlog.render_line`)."""
        campaign = sub.campaign
        if campaign is None:
            return b""
        records, failures = self._grid_snapshot(campaign)
        lines = []
        for task in campaign.tasks():
            row = records.get(task.identity()) or failures.get(task.identity())
            if row is not None:
                lines.append(render_line(row.to_dict()))
        return b"".join(lines)


class _ControlPlaneServer(ThreadingHTTPServer):
    allow_reuse_address = True
    daemon_threads = True
    service: CampaignService


class _ControlPlaneHandler(BaseHTTPRequestHandler):
    """Routes the tiny REST surface; every response carries an explicit
    ``Content-Length`` so HTTP/1.1 keep-alive clients (urllib pollers)
    never hang on an unterminated body."""

    protocol_version = "HTTP/1.1"
    server: _ControlPlaneServer

    # -- plumbing ------------------------------------------------------

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # quiet by default; the service narrates through its owner

    def _send(self, code: int, body: bytes, content_type: str) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        if self.command != "HEAD":
            self.wfile.write(body)

    def _send_json(self, code: int, payload) -> None:
        body = (json.dumps(payload, indent=2) + "\n").encode("utf-8")
        self._send(code, body, "application/json")

    def _read_body(self) -> bytes:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = 0
        if length <= 0:
            return b""
        if length > MAX_BODY_BYTES:
            raise _BodyTooLarge(length)
        # Bounded chunks: one read call must not be asked for the whole
        # (client-claimed) length at once.
        chunks, remaining = [], length
        while remaining:
            chunk = self.rfile.read(min(remaining, 1 << 20))
            if not chunk:
                break
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def _reject_too_large(self, exc: _BodyTooLarge) -> None:
        # The unread body still sits on the socket; don't let keep-alive
        # reinterpret it as the next request.
        self.close_connection = True
        self._send_json(413, {"error": str(exc)})

    def _status_wait_or_400(self) -> float | None:
        """The ``wait`` query parameter in seconds (0 when absent), or
        ``None`` after answering 400 for a malformed one."""
        values = parse_qs(urlsplit(self.path).query).get("wait")
        if not values:
            return 0.0
        try:
            wait_s = float(values[-1])
        except ValueError:
            wait_s = math.nan
        if not math.isfinite(wait_s) or wait_s < 0:
            self._send_json(
                400, {"error": f"wait must be a finite number >= 0, got {values[-1]!r}"}
            )
            return None
        return min(wait_s, MAX_STATUS_WAIT_S)

    def _submission_or_404(self, sub_id: str):
        sub = self.server.service.get(sub_id)
        if sub is None:
            self._send_json(404, {"error": f"no such campaign: {sub_id}"})
        return sub

    # -- verbs ---------------------------------------------------------

    def do_GET(self) -> None:
        service = self.server.service
        parts = [p for p in self.path.split("?")[0].split("/") if p]
        if not parts:
            self._send_json(
                200,
                {
                    "service": "avfi-campaigns",
                    "broker": service.broker_address,
                    "campaigns": [service.summary(s) for s in service.submissions()],
                },
            )
        elif parts[0] == "campaigns" and len(parts) == 1:
            self._send_json(
                200, {"campaigns": [service.summary(s) for s in service.submissions()]}
            )
        elif parts[0] == "campaigns" and len(parts) == 2:
            wait_s = self._status_wait_or_400()
            if wait_s is None:
                return
            sub = self._submission_or_404(parts[1])
            if sub is not None:
                sub.settled.wait(wait_s)
                self._send_json(200, service.summary(sub))
        elif parts[0] == "campaigns" and len(parts) == 3 and parts[2] == "episodes":
            sub = self._submission_or_404(parts[1])
            if sub is not None:
                self._send_json(
                    200,
                    {
                        "id": sub.id,
                        "state": sub.state,
                        "episodes": service.episode_rows(sub),
                    },
                )
        elif parts[0] == "campaigns" and len(parts) == 3 and parts[2] == "results":
            sub = self._submission_or_404(parts[1])
            if sub is not None:
                if sub.state == "failed":
                    self._send_json(409, {"error": sub.error or "campaign failed"})
                else:
                    self._send(200, service.results_jsonl(sub), "application/x-ndjson")
        elif parts[0] == "artifacts" and len(parts) == 2:
            try:
                blob = service.broker_server.broker.artifact_get(parts[1])
            except ValueError as exc:
                self._send_json(400, {"error": str(exc)})
                return
            if blob is None:
                self._send_json(404, {"error": f"no such artifact: {parts[1]}"})
            else:
                self._send(200, blob, "application/octet-stream")
        else:
            self._send_json(404, {"error": f"no such endpoint: {self.path}"})

    do_HEAD = do_GET

    def do_POST(self) -> None:
        service = self.server.service
        parts = [p for p in self.path.split("?")[0].split("/") if p]
        if parts == ["campaigns"]:
            try:
                payload = json.loads(self._read_body() or b"null")
            except _BodyTooLarge as exc:
                self._reject_too_large(exc)
                return
            except json.JSONDecodeError as exc:
                self._send_json(400, {"error": f"request body is not JSON: {exc}"})
                return
            try:
                sub = service.submit(payload)
            except SpecError as exc:
                self._send_json(400, {"error": str(exc), "path": exc.path})
                return
            except RuntimeError as exc:
                self._send_json(503, {"error": str(exc)})
                return
            self._send_json(201, service.summary(sub))
        elif parts == ["shutdown"]:
            self._send_json(200, {"ok": True})
            service.request_shutdown()
        else:
            self._send_json(404, {"error": f"no such endpoint: {self.path}"})

    def do_PUT(self) -> None:
        service = self.server.service
        parts = [p for p in self.path.split("?")[0].split("/") if p]
        if parts and parts[0] == "artifacts" and len(parts) == 2:
            try:
                sha = service.broker_server.broker.artifact_put(
                    parts[1], self._read_body()
                )
            except _BodyTooLarge as exc:
                self._reject_too_large(exc)
                return
            except ValueError as exc:
                self._send_json(400, {"error": str(exc)})
                return
            self._send_json(200, {"sha": sha})
        else:
            self._send_json(404, {"error": f"no such endpoint: {self.path}"})
