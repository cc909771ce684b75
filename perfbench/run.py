#!/usr/bin/env python3
"""Campaign benchmark: end-to-end throughput and settle time of AVFI campaigns.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload dense-mux --seed 1 --seconds 25 --trace 0

Workloads (see ``perfbench/NOTES.md`` for why each exists):

* ``dense-mux``     — dense-traffic grammar campaigns, multiplexed backend;
* ``nn-serial``     — untrained IL-CNN agent with ModelFaults, serial backend
  (run by hand only: too unsteady on a shared host to gate, so it is not
  in ``BENCHMARK.json``);
* ``short-service`` — ``avfi serve`` plus one TCP ``avfi worker``, a
  closed-loop client submitting small campaigns one after another.

With ``--trace 0`` the run prints every end-to-end metric; with
``--trace 1`` it repeats the timed phase with span wrappers installed and
prints the per-layer breakdown and the tracing overhead instead.  The
last line of standard output is always one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Generated specs,
spans and the full result (with provenance) land under
``.perfbench/out/<workload>-seed<seed>-trace<0|1>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".perfbench"

#: Client status-poll interval of ``short-service`` (s).
CLIENT_POLL_S = 0.05
#: Give up on one service campaign after this long (s).
SETTLE_TIMEOUT_S = 60.0


def _import_program() -> None:
    """Put the checkout's sources on the path, or exit non-zero."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources under {ROOT / 'src'}; run from a full checkout")
    for path in (str(BENCH_DIR), str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)


# ----------------------------------------------------------------------
# Small helpers
# ----------------------------------------------------------------------


def tail_percentile(values: list[float]) -> tuple[float, float]:
    """``(percentile, value)``: the highest percentile with at least ten
    samples beyond it.  Below 20 samples that percentile would not even
    reach the median, so the maximum (p100) is reported instead."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return 100.0, ordered[-1]
    rank = n - 10  # samples at or below the percentile
    return 100.0 * rank / n, ordered[rank - 1]


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if not text.startswith("ref: "):
            return text
        ref = text[5:]
        ref_file = ROOT / ".git" / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        packed = ROOT / ".git" / "packed-refs"
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def peak_rss_mb_self() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_of(pid: int) -> float:
    """``VmHWM`` of a live process, in MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# ----------------------------------------------------------------------
# In-process workloads: dense-mux, nn-serial
# ----------------------------------------------------------------------


class Workload:
    """A closed loop of distinct campaigns, numbered from 0 within a run."""

    #: Set-up repetitions per run; ``setup_s`` is their median.
    setup_repeats = 9

    def __init__(self, workload: str, seed: int, run_dir: Path, out_dir: Path):
        self.workload = workload
        self.seed = seed
        self.run_dir = run_dir  # temporary files, removed at the end of the run
        self.out_dir = out_dir  # kept: specs, spans, result, the nn model
        self.specs: list[dict] = []

    def next_spec(self) -> dict:
        spec = self.make_spec(len(self.specs))
        self.specs.append(spec)
        return spec

    def timed(self, seconds: float) -> dict:
        """Settle whole campaigns, one after another, until ``seconds`` pass."""
        runs = []
        start = time.perf_counter()
        while True:
            runs.append(self.settle(self.next_spec()))
            if time.perf_counter() - start >= seconds:
                break
        wall = time.perf_counter() - start
        return {
            "wall_s": wall,
            "settles": [r["settle_s"] for r in runs],
            "frames": sum(r["frames"] for r in runs),
            "ok": sum(r["ok"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "campaigns": len(runs),
            "runs": runs,
            "t0": start,
            "t1": start + wall,
        }

    def emit_specs(self) -> str:
        """Write every generated spec, one per line, in submission order."""
        path = self.out_dir / "specs.jsonl"
        path.write_text("".join(json.dumps(s) + "\n" for s in self.specs))
        return str(path.relative_to(ROOT))

    def close(self) -> None:
        pass


class InProcess(Workload):
    """``Campaign.from_spec(spec).run()`` in this process (dense-mux, nn-serial)."""

    model_path: Path | None = None

    def make_spec(self, index: int) -> dict:
        import workloads

        if self.workload == "nn-serial":
            return workloads.nn_serial_spec(self.seed, index, str(self.model_path.relative_to(ROOT)))
        return workloads.dense_mux_spec(self.seed, index)

    def setup(self) -> dict:
        """Generate, expand and warm from a cold scene cache; phase timings (s)."""
        from repro.core.spec import CampaignSpec
        from repro.sim.builders import process_scene_cache

        process_scene_cache().clear()
        t0 = time.perf_counter()
        if self.workload == "nn-serial":
            from repro.agent.ilcnn import ILCNN, ILCNNConfig

            self.model_path = self.out_dir / "ilcnn-untrained.npz"  # emitted specs name it
            ILCNN(ILCNNConfig()).save(self.model_path)
        spec = CampaignSpec.from_dict(self.next_spec())
        t1 = time.perf_counter()
        scenarios = spec.scenarios.build()
        t2 = time.perf_counter()
        builder = spec.build_builder()
        for config in dict.fromkeys(s.town_config for s in scenarios):
            builder.renderer_for(config)
        t3 = time.perf_counter()
        spec.agent.build()
        t4 = time.perf_counter()
        return {
            "setup_s": t4 - t0,
            "setup.spec_s": t1 - t0,
            "setup.scenarios_s": t2 - t1,
            "setup.scene_cache_s": t3 - t2,
            "setup.model_s": t4 - t3,
        }

    def settle(self, spec_dict: dict) -> dict:
        from repro.core import Campaign
        from repro.core.spec import CampaignSpec

        path = self.run_dir / "checkpoint.jsonl"
        start = time.perf_counter()
        result = Campaign.from_spec(CampaignSpec.from_dict(spec_dict), checkpoint_path=path).run()
        settle = time.perf_counter() - start
        path.unlink()
        return {
            "spec": spec_dict,
            "settle_s": settle,
            "lines": [json.dumps(r.to_dict()) for r in result.records],
            "frames": sum(r.frames for r in result.records),
            "ok": len(result.records),
            "attempted": len(result.records) + len(result.failures),
        }

    def check(self, phase: dict) -> tuple[bool, str]:
        """Re-run one seed-sampled episode through the serial ``run_episode``."""
        from repro.core import Campaign
        from repro.core.campaign import run_episode
        from repro.core.spec import CampaignSpec

        pick = random.Random(f"check:{self.workload}:{self.seed}")
        run = phase["runs"][pick.randrange(len(phase["runs"]))]
        campaign = Campaign.from_spec(CampaignSpec.from_dict(run["spec"]))
        tasks = campaign.runner().tasks()
        index = pick.randrange(_first_checkable(campaign, tasks), len(tasks))
        task = tasks[index]
        record = run_episode(
            campaign.builder,
            task.scenario,
            campaign.agent_factory,
            faults=campaign.injectors[task.injector],
            injector_name=task.injector,
            harness_seed=task.seed,
            config_fingerprint=task.fingerprint or None,
        )
        same = index < len(run["lines"]) and json.dumps(record.to_dict()) == run["lines"][index]
        what = f"{run['spec']['name']} episode {index} ({task.injector}/{task.scenario.name}) re-run serially"
        return same, what


def _first_checkable(campaign, tasks) -> int:
    """Lowest task index the correctness check may sample.

    Episodes of one campaign share the agent's model, so a ModelFault that
    leaks past its episode shows only in later episodes: on a campaign with
    ModelFaults the check samples after the first ModelFault episode.
    """
    from repro.core.faults.base import ModelFault

    for index, task in enumerate(tasks):
        if any(isinstance(f, ModelFault) for f in campaign.injectors[task.injector]):
            return index + 1
    return 0


# ----------------------------------------------------------------------
# short-service: avfi serve + one TCP worker + a closed-loop HTTP client
# ----------------------------------------------------------------------


def _http(url: str, method: str = "GET", payload=None):
    data = None if payload is None else json.dumps(payload).encode()
    headers = {} if payload is None else {"Content-Type": "application/json"}
    request = urllib.request.Request(url, data=data, headers=headers, method=method)
    with urllib.request.urlopen(request, timeout=30) as response:
        body = response.read()
        if response.headers.get("Content-Type", "").startswith("application/json"):
            return json.loads(body)
        return body


def _stop_process(proc: subprocess.Popen, grace_s: float = 20.0) -> None:
    """Wait for ``proc`` to exit; escalate to SIGTERM, then SIGKILL."""
    try:
        proc.wait(timeout=grace_s)
    except subprocess.TimeoutExpired:
        proc.terminate()
        try:
            proc.wait(timeout=5.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


class Service:
    """One ``avfi serve`` + ``avfi worker`` pair, started through ``launch.py``."""

    def __init__(self, state_dir: Path, trace_dir: Path | None = None):
        self.state_dir = state_dir
        self.trace_dir = trace_dir
        self.procs: dict[str, subprocess.Popen] = {}
        self.logs = []
        self.url: str | None = None

    def _spawn(self, role: str, argv: list[str]) -> subprocess.Popen:
        cmd = [sys.executable, str(BENCH_DIR / "launch.py")]
        if self.trace_dir is not None:
            cmd += ["--trace-out", str(self.trace_dir / f"spans-{role}.jsonl")]
        log = open(self.state_dir / f"{role}.log", "w")
        self.logs.append(log)
        proc = subprocess.Popen(
            cmd + ["--"] + argv, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT
        )
        self.procs[role] = proc
        return proc

    def start(self) -> None:
        ready = self.state_dir / "ready.json"
        serve = self._spawn(
            "serve",
            ["serve", "--state-dir", str(self.state_dir / "service"), "--port", "0",
             "--ready-file", str(ready)],
        )
        deadline = time.monotonic() + 60.0
        while True:
            try:
                endpoints = json.loads(ready.read_text())
                break
            except (OSError, ValueError):  # not written yet, or half written
                if serve.poll() is not None or time.monotonic() > deadline:
                    raise RuntimeError("avfi serve did not become ready") from None
                time.sleep(0.01)
        self.url, self.broker = endpoints["url"], endpoints["broker"]
        self.worker_spawned = time.perf_counter()
        self._spawn("worker", ["worker", "--queue-dir", self.broker, "--worker-id", "perfbench"])

    def submit_and_settle(self, spec_dict: dict) -> dict:
        """POST one spec, poll it to settlement, fetch its results."""
        t0 = time.perf_counter()
        summary = _http(f"{self.url}/campaigns", "POST", spec_dict)
        post_s = time.perf_counter() - t0
        sub_id = summary["id"]
        polls = 0
        while True:
            summary = _http(f"{self.url}/campaigns/{sub_id}")
            polls += 1
            if summary["state"] in ("done", "failed"):
                break
            if time.perf_counter() - t0 > SETTLE_TIMEOUT_S:
                raise RuntimeError(f"campaign {sub_id} did not settle: {summary}")
            if self.procs["worker"].poll() is not None:
                raise RuntimeError("avfi worker exited mid-campaign")
            time.sleep(CLIENT_POLL_S)
        settle = time.perf_counter() - t0
        results = _http(f"{self.url}/campaigns/{sub_id}/results")
        return {
            "id": sub_id,
            "state": summary["state"],
            "summary": summary,
            "settle_s": settle,
            "post_s": post_s,
            "polls": polls,
            "t0": t0,
            "t1": t0 + settle,
            "results": results,
        }

    def worker_peak_rss_mb(self) -> float:
        return peak_rss_mb_of(self.procs["worker"].pid)

    def stop(self) -> None:
        """Shut the service down over HTTP, stop the worker, reap both.

        Both processes exit normally (``POST /shutdown``; the worker turns
        SIGTERM into ``SystemExit``), so traced ones write their spans.
        """
        serve = self.procs.get("serve")
        if serve is not None and serve.poll() is None:
            try:
                if self.url is None:  # never became ready
                    raise OSError("no control plane")
                _http(f"{self.url}/shutdown", "POST", {})
            except OSError:
                serve.terminate()
        worker = self.procs.get("worker")
        if worker is not None and worker.poll() is None:
            worker.terminate()
        for proc in self.procs.values():
            _stop_process(proc)
        for log in self.logs:
            log.close()


class ShortService(Workload):
    """Closed-loop HTTP client of one long-lived service deployment."""

    setup_repeats = 5
    service: Service | None = None

    def make_spec(self, index: int) -> dict:
        import workloads

        return workloads.short_service_spec(self.seed, index)

    def setup(self, trace_dir: Path | None = None) -> dict:
        """Start serve + worker and settle one warm-up submission."""
        self.close()
        state_dir = self.run_dir / f"deploy-{len(self.specs)}"
        state_dir.mkdir(parents=True)
        t0 = time.perf_counter()
        self.service = Service(state_dir, trace_dir)
        self.service.start()
        warm = self.settle(self.next_spec())
        if warm["ok"] != warm["attempted"]:
            raise RuntimeError(f"warm-up campaign failed: {warm['summary']}")
        return {"setup_s": time.perf_counter() - t0}

    def settle(self, spec_dict: dict) -> dict:
        sub = self.service.submit_and_settle(spec_dict)
        rows = [json.loads(line) for line in sub["results"].splitlines() if line.strip()]
        good = [row for row in rows if "outcome" not in row] if sub["state"] == "done" else []
        return {
            **sub,
            "spec": spec_dict,
            "frames": sum(row["frames"] for row in good),
            "ok": len(good),
            "attempted": sub["summary"]["total"],
        }

    def check(self, phase: dict) -> tuple[bool, str]:
        """A sampled submission's ``/results`` must equal a serial in-process run."""
        from repro.core import Campaign
        from repro.core.spec import CampaignSpec

        run = phase["runs"][random.Random(f"check:short-service:{self.seed}").randrange(len(phase["runs"]))]
        path = self.run_dir / "check.jsonl"
        path.unlink(missing_ok=True)  # a leftover checkpoint would be resumed, not rewritten
        Campaign.from_spec(CampaignSpec.from_dict(run["spec"]), workers=1, checkpoint_path=path).run()
        same = path.read_bytes() == run["results"]
        path.unlink()
        return same, f"{run['spec']['name']} ({run['id']}) /results vs a serial in-process run"

    def close(self) -> None:
        if self.service is not None:
            self.service.stop()
            self.service = None


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


def end_to_end(phase: dict, setups: list[dict], peak_rss_mb: float, check_ok: bool) -> dict:
    """The end-to-end metrics; a failed correctness check fails every episode."""
    settles = phase["settles"]
    tail_pct, tail = tail_percentile(settles)
    ok = phase["ok"] if check_ok else 0
    return {
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "frames_per_s": (phase["frames"] / phase["wall_s"], "frames/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ok_share": (ok / phase["attempted"], "ratio"),
        "settle_p50_s": (statistics.median(settles), "s"),
        "settle_tail_s": (tail, "s"),
    }, {"settle_tail_percentile": tail_pct, "settle_samples": len(settles)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    import workloads
    from benchmarks.sensor_bench import machine_fingerprint

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (known: {', '.join(workloads.WORKLOADS)})")
    os.chdir(ROOT)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = WORK / "run" / tag
    out_dir = WORK / "out" / tag
    shutil.rmtree(run_dir, ignore_errors=True)
    shutil.rmtree(out_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    out_dir.mkdir(parents=True)

    service = args.workload == "short-service"
    bench = (ShortService if service else InProcess)(args.workload, args.seed, run_dir, out_dir)
    try:
        import layers

        setups = [bench.setup() for _ in range(1 if args.trace else bench.setup_repeats)]
        phase = bench.timed(args.seconds)
        peak_rss = bench.service.worker_peak_rss_mb() if service else peak_rss_mb_self()
        traced = None
        if args.trace:
            traced = layers.traced_phase(bench, args.seconds, out_dir, service)
            traced["bench_setup"] = setups[-1]
        # Tracing must not change a record byte: the traced phase is checked too.
        checks = [bench.check(p) for p in (phase, traced and traced["phase"]) if p]
        check_ok = all(ok for ok, _ in checks)
        check_what = "; ".join(what for _, what in checks)
        specs = bench.emit_specs()
    finally:
        bench.close()

    metrics, extra = end_to_end(phase, setups, peak_rss, check_ok)
    breakdown = {}
    if args.trace:
        metrics = layers.layer_metrics(traced, phase)
        breakdown = layers.layer_breakdown(traced)
    attempted = phase["attempted"] + (traced["phase"]["attempted"] if traced else 0)
    ok = phase["ok"] + (traced["phase"]["ok"] if traced else 0)
    correct = check_ok and ok == attempted
    failed = attempted - ok if correct else attempted
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "machine": machine_fingerprint(),
        "git_commit": git_commit(),
        "python": sys.version.split()[0],
        "samples": {
            "campaigns": phase["campaigns"],
            "episodes": phase["attempted"],
            "frames": phase["frames"],
            "setup_repeats": len(setups),
            **extra,
        },
        "settle_s": phase["settles"],
        "timed_wall_s": phase["wall_s"],
        "setup_phases": setups,
        "check": {"passed": check_ok, "what": check_what},
        "layer_breakdown_s": breakdown,
        "specs": specs,
        "replay": f"save any line of {specs} as a file and pass it to `avfi run`",
    }
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (out_dir / "result.json").write_text(
        json.dumps({"provenance": provenance, **result}, indent=1) + "\n"
    )
    shutil.rmtree(run_dir, ignore_errors=True)
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.6f} {unit}")
    if breakdown:
        wall = metrics["trace.wall_s"][0]
        print(f"layer self time in the episode process over {wall:.3f} s of traced wall time:")
        for layer, self_s in breakdown.items():
            print(f"  {layer:12s} {self_s:10.4f} s  {100 * self_s / wall:6.2f} %")
        print(f"  {'residual':12s} {metrics['trace.residual_s'][0]:10.4f} s (not in any named layer)")
    print(f"settle tail = p{extra['settle_tail_percentile']:.1f} of {extra['settle_samples']} campaigns")
    print(f"correctness: {check_what}: {'ok' if check_ok else 'MISMATCH'}")
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print(json.dumps(result))
    if not correct:
        print("perfbench: correctness check failed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
