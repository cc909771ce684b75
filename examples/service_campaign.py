#!/usr/bin/env python
"""Campaign as a service: ``avfi serve`` + a TCP worker + an HTTP client.

This is the full network deployment in one script, every role a real
subprocess speaking the real protocols:

1. ``avfi serve`` starts the standing service — an HTTP control plane in
   front of a TCP broker, state under a temp directory.
2. One ``avfi worker --queue-dir tcp://...`` attaches over the network
   (in production: any machine that can reach the broker port).
3. This script plays the client: it submits ``examples/specs/smoke.json``
   with plain ``urllib``, long-polls its status (``?wait=``: the service
   answers the moment the campaign settles), and streams the results
   back.
4. The streamed JSONL must be byte-identical to a local serial run of
   the same spec — the service invariant ``scripts/ci.sh`` relies on.
5. ``POST /shutdown`` stops the service; every subprocess is reaped
   through the same escalation ladder the queue uses for drain workers.

Usage::

    python examples/service_campaign.py [--spec examples/specs/smoke.json]
                                        [--lease 30]
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path

import repro
from repro.core import Campaign, format_table, load_spec, metrics_by_injector
from repro.core.outcomes import reap_process


class PopenHandle:
    """Adapts ``subprocess.Popen`` to the ``multiprocessing.Process``
    surface :func:`~repro.core.outcomes.reap_process` escalates over."""

    def __init__(self, proc: subprocess.Popen):
        self.proc = proc
        self.pid = proc.pid

    def is_alive(self) -> bool:
        return self.proc.poll() is None

    def join(self, timeout: float | None = None) -> None:
        try:
            self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            pass

    def terminate(self) -> None:
        self.proc.terminate()

    def kill(self) -> None:
        self.proc.kill()


def _env() -> dict:
    env = os.environ.copy()
    src_root = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        [src_root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def _call(url: str, method: str = "GET", payload=None):
    data = None
    headers = {}
    if payload is not None:
        data = json.dumps(payload).encode()
        headers["Content-Type"] = "application/json"
    req = urllib.request.Request(url, data=data, headers=headers, method=method)
    with urllib.request.urlopen(req, timeout=30) as resp:
        body = resp.read()
    if resp.headers.get("Content-Type", "").startswith("application/json"):
        return json.loads(body)
    return body


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spec", default="examples/specs/smoke.json")
    parser.add_argument("--lease", type=float, default=30.0, help="task lease (s)")
    parser.add_argument("--timeout", type=float, default=300.0, help="settle budget (s)")
    args = parser.parse_args()

    spec = load_spec(args.spec)
    print(f"serial reference for {spec.name!r} ...")
    serial = Campaign.from_spec(spec).run()
    expected = "".join(
        json.dumps(r.to_dict()) + "\n" for r in serial.records
    ).encode()

    procs: list[tuple[str, PopenHandle]] = []
    with tempfile.TemporaryDirectory() as tmp:
        ready_file = Path(tmp) / "ready.json"
        serve = PopenHandle(subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--state-dir", str(Path(tmp) / "service"),
                "--port", "0",
                "--lease", str(args.lease),
                "--stall-timeout", str(args.timeout),
                "--ready-file", str(ready_file),
            ],
            env=_env(),
        ))
        procs.append(("serve", serve))
        try:
            deadline = time.monotonic() + 60.0
            while not ready_file.exists():
                if time.monotonic() > deadline or not serve.is_alive():
                    raise RuntimeError("avfi serve never became ready")
                time.sleep(0.05)
            endpoints = json.loads(ready_file.read_text())
            url, broker = endpoints["url"], endpoints["broker"]
            print(f"service up: {url}  (broker {broker})")

            worker = PopenHandle(subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "worker",
                    "--queue-dir", broker,
                    "--worker-id", "service-example",
                    "--lease", str(args.lease),
                    "--idle-timeout", "30",
                ],
                env=_env(),
            ))
            procs.append(("worker", worker))

            # workers=0: the service only coordinates; every episode runs
            # on the worker attached over TCP.
            summary = _call(
                f"{url}/campaigns", "POST",
                {"spec": spec.to_dict(), "workers": 0},
            )
            sub_id = summary["id"]
            print(f"submitted {sub_id} ({summary['name']})")

            deadline = time.monotonic() + args.timeout
            last = None
            while True:
                summary = _call(f"{url}/campaigns/{sub_id}?wait=5")
                line = f"{summary['state']}  {summary['counts']}"
                if line != last:
                    print(f"  {line}")
                    last = line
                if summary["state"] in ("done", "failed"):
                    break
                if time.monotonic() > deadline:
                    raise RuntimeError(f"campaign never settled: {summary}")
            if summary["state"] != "done":
                raise RuntimeError(f"campaign failed: {summary.get('error')}")

            streamed = _call(f"{url}/campaigns/{sub_id}/results")
            same = streamed == expected
            print(f"streamed results byte-identical to serial run: {same}")

            _call(f"{url}/shutdown", "POST")
            if not same:
                sys.exit(1)
        finally:
            for name, handle in procs:
                how = reap_process(handle, grace_s=10.0, log=print)
                print(f"{name}: {how}")

    rows = [
        [name, m.n_runs, m.msr, round(m.vpk, 3), round(m.apk, 3)]
        for name, m in metrics_by_injector(serial.records).items()
    ]
    print()
    print(format_table(["injector", "runs", "MSR_%", "VPK", "APK"], rows))


if __name__ == "__main__":
    main()
