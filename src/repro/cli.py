"""Command-line front end: ``avfi`` (or ``python -m repro``).

Subcommands:

* ``run`` — execute a declarative campaign spec (``avfi run spec.json``),
  with ``--workers``/``--queue-dir``/``--checkpoint`` overrides; the
  primary entry point;
* ``report`` — streaming metrics report over a JSONL results checkpoint,
  with per-injector metrics, baseline effects and compound-fault interaction
  effects — aggregation never materialises the record set, so it scales
  to million-episode files;
* ``spec emit`` — print the spec the built-in ``campaign``/``sweep-delay``
  commands would run (edit it, archive it, ``avfi run`` it);
* ``spec validate`` — load a spec (file or stdin) and report its hash;
* ``demo`` — one fault-free and one faulted episode with the autopilot
  (fast; no training);
* ``campaign`` — a named-injector campaign against the IL-CNN or
  autopilot (a thin wrapper that emits a spec and runs it);
* ``sweep-delay`` — the fig. 4 output-delay sweep (same wrapper);
* ``worker`` — attach this machine to a distributed queue campaign
  (``--queue-dir``) and drain tasks until the queue is idle;
* ``queue-status`` — one-shot health report for a queue directory
  (pending/claimed/failed/quarantined counts, worker liveness);
* ``train`` — collect demonstrations and train the IL-CNN;
* ``list-faults`` — every registered fault model, grouped by hook point,
  with its config parameters.
"""

from __future__ import annotations

import argparse
import json
import sys


def _fail(command: str, message) -> None:
    """Report a usage-level error (missing file, bad path) the way
    argparse does: one readable line on stderr, exit status 2.

    Distinct from mid-run failures (exceptions, exit 1): status 2 means
    "the invocation was wrong", which scripts and CI wrappers can
    branch on without parsing the message.
    """
    print(f"avfi {command}: {message}", file=sys.stderr)
    raise SystemExit(2)


def _int_at_least(minimum: int):
    """argparse type factory: a bounded integer rejected with a readable
    message (``--workers 0`` used to reach the executor and die with an
    opaque traceback)."""

    def parse(value: str) -> int:
        try:
            number = int(value)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {value!r}")
        if number < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return number

    return parse


_positive_int = _int_at_least(1)
#: ``--workers 0`` = coordinate only; :func:`main` additionally requires
#: a queue directory (flag or spec) for it.
_non_negative_int = _int_at_least(0)


def _positive_float(value: str) -> float:
    """argparse type: a finite float > 0 (leases, poll intervals...)."""
    try:
        number = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {value!r}")
    if not number > 0 or number != number or number == float("inf"):
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return number


def _add_suite_args(parser: argparse.ArgumentParser) -> None:
    """Scenario-suite and agent options shared by the spec-emitting
    commands (``campaign``, ``sweep-delay``, ``spec emit …``)."""
    parser.add_argument("--runs", type=_positive_int, default=4, help="missions per injector")
    parser.add_argument("--agent", choices=("nn", "autopilot"), default="autopilot")
    parser.add_argument("--seed", type=int, default=777)
    parser.add_argument("--npc-vehicles", type=int, default=2)
    parser.add_argument("--pedestrians", type=int, default=2)


def _add_exec_args(
    parser: argparse.ArgumentParser,
    with_save: bool = True,
    workers_default: int | None = 1,
) -> None:
    """Execution options shared by everything that runs (or emits) a
    campaign.  ``avfi run`` passes ``workers_default=None`` so an
    unspecified flag defers to the spec's ``execution.workers``."""
    if with_save:
        parser.add_argument("--save", default=None, help="write records JSON here")
    parser.add_argument(
        "--workers",
        type=_non_negative_int,
        default=workers_default,
        help="worker processes for episode execution (1 = serial; with "
        "a queue dir: local drain workers spawned next to the coordinator, "
        "0 = coordinate only and wait for `avfi worker` machines to attach)",
    )
    parser.add_argument(
        "--queue-dir",
        default=None,
        help="run through the distributed work queue rooted at this shared "
        "directory; other machines join with `avfi worker --queue-dir DIR`",
    )
    parser.add_argument(
        "--lease",
        type=_positive_float,
        default=None,
        help="queue task lease in seconds — a worker silent for this long "
        "loses its task back to the queue (only with a queue dir; "
        "default 60)",
    )
    parser.add_argument(
        "--episodes-per-slot",
        type=_positive_int,
        default=None,
        metavar="E",
        help="keep this many episodes live at once per process, batching "
        "their per-frame sensing across episodes (output stays "
        "byte-identical to serial; alone this multiplexes in-process, "
        "with --workers/--queue-dir each worker drains slots of this "
        "size; default 1)",
    )


def _add_common_campaign_args(parser: argparse.ArgumentParser) -> None:
    _add_suite_args(parser)
    _add_exec_args(parser)


# ----------------------------------------------------------------------
# Spec construction from CLI arguments (campaign / sweep-delay / emit)
# ----------------------------------------------------------------------


def _execution_spec_from_args(args):
    from .core.spec import ExecutionSpec

    queue_dir = getattr(args, "queue_dir", None)
    return ExecutionSpec(
        workers=getattr(args, "workers", None),
        backend="queue" if queue_dir else None,
        queue_dir=queue_dir,
        lease_s=getattr(args, "lease", None) if queue_dir else None,
        episodes_per_slot=getattr(args, "episodes_per_slot", None),
    )


def _suite_spec_from_args(args):
    from .core.spec import ScenarioSuiteSpec

    return ScenarioSuiteSpec(
        n=args.runs,
        seed=args.seed,
        n_npc_vehicles=args.npc_vehicles,
        n_pedestrians=args.pedestrians,
    )


def _campaign_spec_from_args(args):
    """The spec behind ``avfi campaign`` (the figs. 2-3 grid)."""
    from .core.faults import make_input_fault
    from .core.spec import AgentSpec, CampaignSpec

    injectors: dict[str, list] = {"none": []}
    for name in args.injectors:
        injectors[name] = [make_input_fault(name)]
    return CampaignSpec(
        name="input-fault-campaign",
        scenarios=_suite_spec_from_args(args),
        agent=AgentSpec(name=args.agent),
        injectors=injectors,
        execution=_execution_spec_from_args(args),
    )


def _sweep_delay_spec_from_args(args):
    """The spec behind ``avfi sweep-delay`` (the fig. 4 sweep)."""
    from .core.faults import OutputDelay
    from .core.spec import AgentSpec, CampaignSpec

    injectors = {
        f"delay-{k}": ([OutputDelay(k, mode=args.mode)] if k else [])
        for k in args.delays
    }
    return CampaignSpec(
        name="output-delay-sweep",
        scenarios=_suite_spec_from_args(args),
        agent=AgentSpec(name=args.agent),
        injectors=injectors,
        execution=_execution_spec_from_args(args),
    )


def _run_spec(spec, save: str | None = None, **overrides) -> None:
    """Execute a campaign spec and print the metrics table.

    The one execution path behind ``avfi run``, ``avfi campaign`` and
    ``avfi sweep-delay`` — the hard-coded commands run exactly what
    their emitted specs describe.
    """
    from .core import Campaign, format_table, quarantine_table

    campaign = Campaign.from_spec(spec, verbose=True, **overrides)
    executor = campaign.executor
    if getattr(executor, "workers", None) == 0:  # only a queue can coordinate
        print(
            f"coordinating only: attach workers with\n"
            f"  python -m repro worker --queue-dir {executor.queue_dir}"
        )
    result = campaign.run()
    if save:
        result.save(save)
        print(f"records -> {save}")
    rows = [
        [
            n,
            m.n_runs,
            m.n_failures or None,
            m.msr,
            m.vpk,
            m.apk,
            m.ttv_median_s if m.ttv_s else None,
        ]
        for n, m in result.metrics().items()
    ]
    print()
    headers = ["injector", "runs", "lost", "MSR_%", "VPK", "APK", "TTV_s"]
    print(format_table(headers, rows))
    if result.failures:
        print()
        print(quarantine_table(result.failures))


def _require_queue_for_coordinate_only(parser_error, workers, queue_dir) -> None:
    """0 workers means "coordinate only", which only the queue backend
    can do — reject it with a readable message otherwise."""
    if workers == 0 and not queue_dir:
        parser_error("--workers 0 (coordinate only) requires --queue-dir")


# ----------------------------------------------------------------------
# Subcommand implementations
# ----------------------------------------------------------------------


def cmd_run(args) -> None:
    from pathlib import Path

    from .core.spec import SpecError, load_spec

    if not Path(args.spec).exists():
        _fail("run", f"no such spec file: {args.spec}")
    try:
        spec = load_spec(args.spec)
    except SpecError as exc:
        raise SystemExit(f"avfi run: {exc}")
    fault_tolerance = _fault_tolerance_from_args(args, spec)
    workers = args.workers if args.workers is not None else spec.execution.workers
    queue_dir = args.queue_dir or spec.execution.queue_dir
    if workers == 0 and not queue_dir:
        raise SystemExit(
            "avfi run: --workers 0 (coordinate only) requires a queue "
            "directory (--queue-dir or the spec's execution.queue_dir)"
        )
    print(f"spec: {spec.name} (schema v1, hash {spec.hash()}) from {args.spec}")
    try:
        _run_spec(
            spec,
            save=args.save,
            workers=args.workers,
            queue_dir=args.queue_dir,
            lease_s=args.lease,
            checkpoint_path=args.checkpoint,
            fault_tolerance=fault_tolerance,
            episodes_per_slot=args.episodes_per_slot,
        )
    except (SpecError, ValueError) as exc:
        # Spec-derived construction errors (queue backend without a
        # queue dir, empty generated suite…) are user errors, not bugs —
        # report them like argparse would, no traceback.
        raise SystemExit(f"avfi run: {exc}")


def _fault_tolerance_from_args(args, spec):
    """Merge the ``avfi run`` retry flags over the spec's policy.

    Returns ``None`` when no flag was given, so the spec's own
    ``execution.fault_tolerance`` (or the abort-on-first-failure
    default) stays in force.
    """
    overrides = {
        key: value
        for key, value in (
            ("max_attempts", args.max_attempts),
            ("timeout_s", args.episode_timeout),
            ("failure_budget", args.failure_budget),
        )
        if value is not None
    }
    if not overrides:
        return None
    import dataclasses

    from .core.outcomes import FaultTolerancePolicy

    base = spec.execution.fault_tolerance or FaultTolerancePolicy()
    return dataclasses.replace(base, **overrides)


def cmd_spec_emit(args) -> None:
    builders = {
        "campaign": _campaign_spec_from_args,
        "sweep-delay": _sweep_delay_spec_from_args,
    }
    spec = builders[args.what](args)
    if args.out:
        from .core.spec import save_spec

        save_spec(spec, args.out)
        print(f"spec -> {args.out}")
    else:
        print(json.dumps(spec.to_dict(), indent=2))


def cmd_spec_validate(args) -> None:
    from .core.spec import SpecError, load_spec, parse_spec

    try:
        if args.spec == "-":
            spec = parse_spec(sys.stdin.read(), source="<stdin>")
        else:
            spec = load_spec(args.spec)
    except SpecError as exc:
        raise SystemExit(f"avfi spec validate: {exc}")
    # Count over the *expanded* grid so compound generator entries report
    # the injectors/faults the campaign will actually run.
    expanded = spec.expanded_injectors()
    n_faults = sum(len(faults) for faults in expanded.values())
    print(
        f"OK: {spec.name!r} (hash {spec.hash()}) — "
        f"{len(expanded)} injector(s), {n_faults} fault(s), "
        f"agent {spec.agent.name!r}"
    )


def cmd_spec_expand(args) -> None:
    from .core.spec import SpecError, load_spec, parse_spec
    from .sim.scenario import town_config_to_dict

    try:
        if args.spec == "-":
            spec = parse_spec(sys.stdin.read(), source="<stdin>")
        else:
            spec = load_spec(args.spec)
        scenarios = spec.scenarios.build()
    except SpecError as exc:
        raise SystemExit(f"avfi spec expand: {exc}")
    if args.json:
        print(json.dumps([s.to_dict() for s in scenarios], indent=2))
        return
    print(f"{spec.name!r} (hash {spec.hash()}) expands to {len(scenarios)} scenario(s):")
    for s in scenarios:
        town = town_config_to_dict(s.town_config)
        kind = town.get("kind", "grid")
        town_desc = f"{kind} {town['rows']}x{town['cols']}"
        if kind == "procedural":
            town_desc += f" seed={town['seed']}"
        line = (
            f"  {s.name}: mission {s.mission.name!r} "
            f"({s.mission.straight_line_distance():.0f} m crow-flies, "
            f"limit {s.mission.time_limit_s:.0f} s), town {town_desc}, "
            f"{s.weather}, {s.n_npc_vehicles} npc / {s.n_pedestrians} ped, "
            f"seed {s.seed}"
        )
        print(line)
        for npc in s.npcs:
            behavior = "none"
            if npc.behavior is not None:
                behavior = npc.behavior.name
                if npc.behavior.turn is not None:
                    behavior += f" ({npc.behavior.turn})"
            print(
                f"    npc: road {npc.road_id} dir {npc.direction:+d} "
                f"station {npc.station:.1f} m, {npc.target_speed:.1f} m/s, "
                f"behavior {behavior}"
            )


def cmd_report(args) -> None:
    from pathlib import Path

    from .core import (
        compare_to_baseline,
        format_table,
        interaction_effects,
        interaction_table,
    )
    from .core.metrics import MetricsAccumulator
    from .core.outcomes import EpisodeFailure
    from .core.reporting import quarantine_table
    from .core.resultlog import ResultLog

    path = Path(args.checkpoint)
    if not path.exists():
        _fail("report", f"no such results file: {path}")
    # One streaming pass: records fold into per-injector accumulators as
    # they come off disk, so a million-episode file never loads at once.
    # Failure rows count toward the accumulators' failure_counts and
    # collect for the quarantine table (they are few by construction —
    # each is a grid cell that burned its whole retry budget).
    groups: dict[str, MetricsAccumulator] = {}
    n_records = 0
    failures: list[EpisodeFailure] = []
    try:
        for record in ResultLog(path):
            groups.setdefault(record.injector, MetricsAccumulator()).add(record)
            if isinstance(record, EpisodeFailure):
                failures.append(record)
            else:
                n_records += 1
    except ValueError as exc:
        raise SystemExit(f"avfi report: {exc}")
    if not groups:
        raise SystemExit(f"avfi report: no records in {path}")
    metrics = {name: acc.result() for name, acc in groups.items()}

    print(
        f"{n_records} record(s), {len(failures)} failure(s), "
        f"{len(metrics)} injector(s) from {path}"
    )
    print()
    rows = [
        [
            name,
            m.n_runs,
            m.n_failures or None,
            m.msr,
            m.vpk,
            m.apk,
            m.ttv_median_s if m.ttv_s else None,
            "+".join(m.fault_names) if m.fault_names else "-",
        ]
        for name, m in metrics.items()
    ]
    print(
        format_table(
            ["injector", "runs", "lost", "MSR_%", "VPK", "APK", "TTV_s", "faults"],
            rows,
        )
    )

    if args.baseline in metrics:
        effects = compare_to_baseline(
            {name: m.vpk_per_run for name, m in metrics.items()},
            baseline=args.baseline,
        )
        if effects:
            print()
            print(
                format_table(
                    ["injector", "VPK_median_shift", "mean_ratio", "p_value"],
                    [
                        [name, e["median_shift"], e["mean_ratio_vs_baseline"], e["p_value"]]
                        for name, e in effects.items()
                    ],
                    title=f"effect vs baseline {args.baseline!r} (per-run VPK)",
                )
            )
    else:
        print(f"\n(baseline {args.baseline!r} not in records; effects skipped)")

    print()
    print(
        interaction_table(
            interaction_effects(metrics, baseline=args.baseline),
            title="compound-fault interaction effects (vs worst single-fault marginal)",
        )
    )

    if failures:
        print()
        print(quarantine_table(failures))


def cmd_demo(args) -> None:
    from .agent import autopilot_agent_factory
    from .core import format_table, metrics_by_injector, run_episode, standard_scenarios
    from .core.faults import OutputDelay, SolidOcclusion
    from .sim.builders import SimulationBuilder

    scenario = standard_scenarios(1, seed=args.seed, n_npc_vehicles=2, n_pedestrians=2)[0]
    builder = SimulationBuilder()
    records = []
    for name, faults in {
        "none": [],
        "faulted": [SolidOcclusion(size_frac=0.4), OutputDelay(20)],
    }.items():
        record = run_episode(
            builder, scenario, autopilot_agent_factory(), faults=faults,
            injector_name=name,
        )
        print(
            f"{name:>8}: success={record.success} "
            f"distance={record.distance_km * 1000:.0f} m "
            f"violations={record.n_violations}"
        )
        records.append(record)
    rows = [
        [n, m.msr, m.vpk, m.apk]
        for n, m in metrics_by_injector(records).items()
    ]
    print(format_table(["injector", "MSR_%", "VPK", "APK"], rows))


def cmd_campaign(args) -> None:
    _run_spec(_campaign_spec_from_args(args), save=args.save)


def cmd_sweep_delay(args) -> None:
    _run_spec(_sweep_delay_spec_from_args(args), save=args.save)


def cmd_train(args) -> None:
    from .agent import CollectionConfig, TrainConfig, collect_imitation_data, train_ilcnn
    from .core import standard_scenarios
    from .sim.builders import SimulationBuilder

    scenarios = standard_scenarios(
        args.scenarios, seed=args.data_seed, n_npc_vehicles=2, n_pedestrians=2
    )
    dataset = collect_imitation_data(
        scenarios, builder=SimulationBuilder(), config=CollectionConfig(seed=0)
    )
    print(f"collected {len(dataset)} frames: {dataset.command_histogram()}")
    model, history = train_ilcnn(dataset, config=TrainConfig(epochs=args.epochs))
    model.save(args.out)
    print(
        f"trained in {history.wall_time_s:.0f}s, "
        f"best val loss {history.best_val():.5f} -> {args.out}"
    )


def cmd_worker(args) -> None:
    from .core.queue import run_worker

    # Verbose: the drain prints each episode and, at the end, why it
    # stopped (queue idle, or --max-tasks claims retired).
    run_worker(
        args.queue_dir,
        worker_id=args.worker_id,
        lease_s=args.lease,
        poll_s=args.poll,
        idle_timeout=args.idle_timeout,
        max_tasks=args.max_tasks,
        verbose=True,
        episodes_per_slot=args.episodes_per_slot,
    )


def cmd_queue_status(args) -> None:
    import time
    from pathlib import Path

    from .core.netqueue import is_broker_url, make_broker
    from .core.queue import BrokerError

    if not is_broker_url(args.queue_dir) and not Path(args.queue_dir).is_dir():
        _fail("queue-status", f"no such queue directory: {args.queue_dir}")
    broker = make_broker(args.queue_dir)
    manifest = broker.manifest() or {}
    try:
        status = broker.status()
    except (ValueError, BrokerError) as exc:  # a corrupt results checkpoint
        raise SystemExit(f"avfi queue-status: {exc}")
    print(f"queue: {args.queue_dir}")
    if manifest:
        created = manifest.get("created_at")
        age = f", published {time.time() - created:.0f}s ago" if created else ""
        print(
            f"campaign: {manifest.get('n_tasks', '?')} task(s) from "
            f"{manifest.get('coordinator', '?')}{age}"
        )
    else:
        print("campaign: none published yet")
    for key in ("pending", "claimed", "failed", "quarantined", "results"):
        print(f"  {key:>12}: {status[key]}")
    done = status["results"] + status["quarantined"]
    n_tasks = manifest.get("n_tasks")
    if isinstance(n_tasks, int) and n_tasks > 0:
        print(f"  {'progress':>12}: {done}/{n_tasks} episode(s) settled")
    stale_after = args.stale_after
    if stale_after is None:
        stale_after = float(manifest.get("lease_s") or 60.0)
    # Heartbeat rows come from the broker (local directory or TCP); the
    # broker already judged each age with its skew guard (fresher of the
    # embedded timestamp and the file's mtime, on the *server's* clock).
    rows = broker.workers()
    print(f"workers: {len(rows)} seen")
    for beat in rows:
        age = beat.get("age_s")
        if age is None:
            print(f"  {beat.get('worker', '?')}: unreadable heartbeat file")
            continue
        live = "live" if age <= stale_after else f"STALE (>{stale_after:.0f}s)"
        print(
            f"  {beat.get('worker', '?')}: {live}, last beat "
            f"{age:.0f}s ago, {beat.get('episodes_done', 0)} episode(s) done "
            f"on {beat.get('host', '?')}"
        )


def cmd_serve(args) -> None:
    import json
    from pathlib import Path

    from .core.service import CampaignService

    service = CampaignService(
        args.state_dir,
        host=args.host,
        port=args.port,
        broker_port=args.broker_port,
        lease_s=args.lease,
        default_workers=args.local_workers,
        stall_timeout=args.stall_timeout,
    )
    service.start()
    print(f"control plane: {service.url}")
    print(f"task broker:   {service.broker_address}")
    print(f"attach workers with: avfi worker --queue-dir {service.broker_address}")
    if args.ready_file:
        # Scripts (CI, examples) wait for this file instead of parsing
        # stdout: it appears only once both listeners are bound.
        Path(args.ready_file).write_text(
            json.dumps({"url": service.url, "broker": service.broker_address}) + "\n"
        )
    try:
        service.wait()
        print("shutdown requested; finishing up")
    except KeyboardInterrupt:
        print("\ninterrupted; shutting down")
    finally:
        service.stop()


#: Seconds one ``avfi submit --wait`` status request asks the service to
#: hold open (the service caps it at 30); the HTTP timeout adds slack.
_SUBMIT_WAIT_S = 30.0


def cmd_submit(args) -> None:
    import json
    import urllib.error
    import urllib.request
    from pathlib import Path

    from .core.spec import SpecError, load_spec

    if not Path(args.spec).exists():
        _fail("submit", f"no such spec file: {args.spec}")
    try:
        spec = load_spec(args.spec)  # validate locally: fail before the network
    except SpecError as exc:
        raise SystemExit(f"avfi submit: {exc}")
    body: dict = {"spec": spec.to_dict()}
    if args.workers is not None:
        body["workers"] = args.workers
    tolerance = _fault_tolerance_from_args(args, spec)
    if tolerance is not None:
        body["fault_tolerance"] = tolerance.to_dict()
    url = args.url.rstrip("/")

    def call(method: str, path: str, payload: bytes | None = None, timeout=30.0):
        request = urllib.request.Request(url + path, data=payload, method=method)
        if payload is not None:
            request.add_header("Content-Type", "application/json")
        try:
            with urllib.request.urlopen(request, timeout=timeout) as response:
                return json.loads(response.read())
        except urllib.error.HTTPError as exc:
            detail = exc.read().decode(errors="replace")
            try:
                detail = json.loads(detail).get("error", detail)
            except json.JSONDecodeError:
                pass
            raise SystemExit(f"avfi submit: {url}{path} -> {exc.code}: {detail}")
        except urllib.error.URLError as exc:
            raise SystemExit(f"avfi submit: cannot reach {url}: {exc.reason}")

    summary = call("POST", "/campaigns", json.dumps(body).encode())
    sub_id = summary["id"]
    print(f"submitted {spec.name} as {sub_id} ({summary['state']})")
    if not args.wait:
        print(f"poll with: curl {url}/campaigns/{sub_id}")
        return

    last_line = ""
    while True:
        # A long poll: the service answers as soon as the campaign
        # settles, or after _SUBMIT_WAIT_S with a progress snapshot.
        summary = call(
            "GET", f"/campaigns/{sub_id}?wait={_SUBMIT_WAIT_S:g}",
            timeout=_SUBMIT_WAIT_S + 30.0,
        )
        counts = summary.get("counts") or {}
        line = f"{summary['state']}: " + ", ".join(
            f"{key}={counts[key]}" for key in sorted(counts)
        )
        if line != last_line:
            print(f"[{sub_id}] {line}")
            last_line = line
        if summary["state"] in ("done", "failed"):
            break
    if summary["state"] == "failed":
        raise SystemExit(f"avfi submit: campaign failed: {summary.get('error', '?')}")

    with urllib.request.urlopen(
        url + f"/campaigns/{sub_id}/results", timeout=30
    ) as response:
        results = response.read()
    if args.save:
        Path(args.save).write_bytes(results)
        print(f"results -> {args.save}")
    from .core import format_table, metrics_by_injector
    from .core.campaign import RunRecord
    from .core.resultlog import parse_lines

    source = f"{url}/campaigns/{sub_id}/results"
    try:
        built = list(parse_lines(results, source))
    except ValueError as exc:
        raise SystemExit(f"avfi submit: {exc}")
    metrics = metrics_by_injector(row for row in built if isinstance(row, RunRecord))
    rows = [
        [n, m.n_runs, m.msr, m.vpk, m.apk, m.ttv_median_s if m.ttv_s else None]
        for n, m in metrics.items()
    ]
    print()
    print(format_table(["injector", "runs", "MSR_%", "VPK", "APK", "TTV_s"], rows))


#: Hook points in fig. 1 order, with the seam each one corrupts.
_HOOK_TITLES = (
    ("input", "sensor bundle before the agent sees it (Input FI)"),
    ("output", "control command after the agent produced it (Output FI)"),
    ("timing", "packet delivery on the component channels (Timing FI)"),
    ("model", "neural-network weights and activations (NN FI)"),
    ("world", "world measurements and global state"),
)


def cmd_list_faults(args) -> None:
    from .core.faults import FAULT_REGISTRY, REQUIRED, fault_parameters

    by_hook: dict[str, list] = {}
    for name, cls in sorted(FAULT_REGISTRY.items()):
        by_hook.setdefault(cls.hook, []).append((name, cls))
    print(f"{len(FAULT_REGISTRY)} registered fault models (use these names in")
    print('campaign specs: {"fault": "<name>", "params": {...}, "trigger": {...}}):')
    for hook, title in _HOOK_TITLES:
        entries = by_hook.pop(hook, [])
        if not entries:
            continue
        print(f"\n{hook} — {title}:")
        for name, cls in entries:
            params = ", ".join(
                f"{pname}" if default is REQUIRED else f"{pname}={default!r}"
                for pname, default in fault_parameters(cls).items()
            )
            print(f"  {name:16} {cls.__name__:22} {params or '(no parameters)'}")
    for hook, entries in sorted(by_hook.items()):  # user-registered hooks
        print(f"\n{hook}:")
        for name, cls in entries:
            print(f"  {name:16} {cls.__name__}")


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="avfi", description="AVFI: fault injection for autonomous vehicles"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "run", help="execute a declarative campaign spec (JSON file)"
    )
    p.add_argument("spec", help="path to a campaign spec (see `avfi spec emit`)")
    _add_exec_args(p, workers_default=None)
    p.add_argument(
        "--checkpoint",
        default=None,
        help="resumable JSONL checkpoint (overrides the spec's "
        "execution.checkpoint)",
    )
    p.add_argument(
        "--max-attempts",
        type=_positive_int,
        default=None,
        help="retry each episode up to this many times before giving up "
        "(overrides the spec's fault_tolerance.max_attempts; default 1 = "
        "no retries)",
    )
    p.add_argument(
        "--episode-timeout",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help="per-episode wall-clock budget; a hung episode is killed and "
        "counts as a failed attempt (overrides "
        "fault_tolerance.timeout_s; default: no timeout)",
    )
    p.add_argument(
        "--failure-budget",
        type=_non_negative_int,
        default=None,
        help="quarantine up to this many persistently failing episodes and "
        "keep going; one more aborts the campaign (overrides "
        "fault_tolerance.failure_budget; default 0 = abort on first "
        "persistent failure)",
    )
    p.set_defaults(func=cmd_run)

    p = sub.add_parser(
        "report",
        help="streaming metrics report over a JSONL results checkpoint",
    )
    p.add_argument("checkpoint", help="results file: a JSONL checkpoint")
    p.add_argument(
        "--baseline",
        default="none",
        help="injector name treated as the fault-free baseline "
        "(default: 'none')",
    )
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("spec", help="emit / validate / expand campaign specs")
    spec_sub = p.add_subparsers(dest="spec_command", required=True)
    p_emit = spec_sub.add_parser(
        "emit",
        help="print the spec a built-in command would run "
        "(edit, archive, `avfi run` it)",
    )
    emit_sub = p_emit.add_subparsers(dest="what", required=True)
    pe = emit_sub.add_parser("campaign", help="the input-fault campaign spec")
    _add_suite_args(pe)
    pe.add_argument(
        "--injectors",
        nargs="+",
        default=["gaussian", "s&p", "solid-occ", "transp-occ", "water-drop"],
        help="input fault names (see list-faults)",
    )
    _add_exec_args(pe, with_save=False)
    pe.add_argument("--out", default=None, help="write the spec here instead of stdout")
    pe.set_defaults(func=cmd_spec_emit, what="campaign")
    ps = emit_sub.add_parser("sweep-delay", help="the output-delay sweep spec")
    _add_suite_args(ps)
    ps.add_argument("--delays", type=int, nargs="+", default=[0, 5, 10, 20, 30])
    ps.add_argument("--mode", choices=("replay", "drop"), default="replay")
    _add_exec_args(ps, with_save=False)
    ps.add_argument("--out", default=None, help="write the spec here instead of stdout")
    ps.set_defaults(func=cmd_spec_emit, what="sweep-delay")
    p_val = spec_sub.add_parser("validate", help="load a spec and report its hash")
    p_val.add_argument("spec", help="spec file path, or '-' for stdin")
    p_val.set_defaults(func=cmd_spec_validate)
    p_exp = spec_sub.add_parser(
        "expand",
        help="print the concrete scenario suite a spec builds, without running it",
    )
    p_exp.add_argument("spec", help="spec file path, or '-' for stdin")
    p_exp.add_argument(
        "--json",
        action="store_true",
        help="emit the expanded suite as a JSON scenario array",
    )
    p_exp.set_defaults(func=cmd_spec_expand)

    p = sub.add_parser("demo", help="two quick episodes: clean vs. faulted")
    p.add_argument("--seed", type=int, default=3)
    p.set_defaults(func=cmd_demo)

    p = sub.add_parser("campaign", help="input-fault campaign (figs. 2-3)")
    _add_common_campaign_args(p)
    p.add_argument(
        "--injectors",
        nargs="+",
        default=["gaussian", "s&p", "solid-occ", "transp-occ", "water-drop"],
        help="input fault names (see list-faults)",
    )
    p.set_defaults(func=cmd_campaign)

    p = sub.add_parser("sweep-delay", help="output-delay sweep (fig. 4)")
    _add_common_campaign_args(p)
    p.add_argument("--delays", type=int, nargs="+", default=[0, 5, 10, 20, 30])
    p.add_argument("--mode", choices=("replay", "drop"), default="replay")
    p.set_defaults(func=cmd_sweep_delay)

    p = sub.add_parser(
        "worker",
        help="attach this machine to a queue campaign and drain tasks until idle",
    )
    p.add_argument(
        "--queue-dir", required=True,
        help="the campaign's shared broker directory (same path/NFS mount "
        "the coordinator passed to --queue-dir), or a broker URL "
        "(tcp://host:port — what `avfi serve` prints)",
    )
    p.add_argument("--worker-id", default=None, help="default: <hostname>-<pid>")
    p.add_argument(
        "--lease", type=_positive_float, default=60.0,
        help="task lease in seconds (heartbeats refresh it; keep it well "
        "above clock skew between machines)",
    )
    p.add_argument(
        "--poll", type=_positive_float, default=0.5,
        help="longest wait per claim (s); a broker server wakes it at once",
    )
    p.add_argument(
        "--idle-timeout", type=_positive_float, default=5.0,
        help="exit after the queue has been idle this long (s)",
    )
    p.add_argument(
        "--max-tasks", type=_positive_int, default=None,
        help="detach after running this many episodes to an end "
        "(completed, or parked as failed)",
    )
    p.add_argument(
        "--episodes-per-slot", type=_positive_int, default=None, metavar="E",
        help="drain this many claimed episodes at once through one "
        "multiplexed slot (default: the published campaign's "
        "episodes_per_slot; output stays byte-identical)",
    )
    p.set_defaults(func=cmd_worker)

    p = sub.add_parser(
        "serve",
        help="run the campaign service: a task broker plus an HTTP "
        "control plane for submitting and watching campaigns",
    )
    p.add_argument(
        "--state-dir", required=True,
        help="durable service state (the broker root lives at "
        "<state-dir>/queue and survives restarts)",
    )
    p.add_argument(
        "--host", default="127.0.0.1",
        help="bind address for both listeners; the service is "
        "unauthenticated — bind to localhost or a trusted network only",
    )
    p.add_argument("--port", type=int, default=8265, help="HTTP control-plane port (0 = ephemeral)")
    p.add_argument("--broker-port", type=int, default=0, help="task broker port (0 = ephemeral)")
    p.add_argument(
        "--lease", type=_positive_float, default=60.0,
        help="default task lease for submitted campaigns (s)",
    )
    p.add_argument(
        "--local-workers", type=_int_at_least(0), default=0, metavar="N",
        help="fork N drain workers per campaign on this machine "
        "(default 0: coordinate only, workers attach over TCP)",
    )
    p.add_argument(
        "--stall-timeout", type=_positive_float, default=None, metavar="SECONDS",
        help="fail a campaign when no episode completes and no worker "
        "holds a lease for this long (default: wait forever)",
    )
    p.add_argument(
        "--ready-file", default=None, metavar="PATH",
        help="write a JSON line with the bound URLs once both listeners "
        "are up (script/CI coordination)",
    )
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "submit",
        help="submit a campaign spec to a running `avfi serve` instance",
    )
    p.add_argument("spec", help="path to a campaign spec JSON file")
    p.add_argument(
        "--url", default="http://127.0.0.1:8265",
        help="the service's control-plane URL",
    )
    p.add_argument(
        "--workers", type=_int_at_least(0), default=None,
        help="ask the service to fork this many local drain workers "
        "for this campaign (default: the service's --local-workers)",
    )
    p.add_argument(
        "--max-attempts", type=_positive_int, default=None,
        help="per-episode attempts before the episode is parked",
    )
    p.add_argument(
        "--episode-timeout", type=_positive_float, default=None, metavar="SECONDS",
        help="per-attempt wall-clock limit",
    )
    p.add_argument(
        "--failure-budget", type=_int_at_least(0), default=None, metavar="N",
        help="quarantine up to N failed episodes before aborting",
    )
    p.add_argument(
        "--wait", action="store_true",
        help="wait until the campaign settles, then print the metrics table",
    )
    p.add_argument(
        "--save", default=None, metavar="PATH",
        help="with --wait: write the result rows (JSONL) here",
    )
    p.set_defaults(func=cmd_submit)

    p = sub.add_parser(
        "queue-status",
        help="one-shot health report for a queue campaign directory",
    )
    p.add_argument(
        "queue_dir",
        help="the campaign's shared broker directory (the coordinator's "
        "--queue-dir), or a broker URL (tcp://host:port)",
    )
    p.add_argument(
        "--stale-after", type=_positive_float, default=None, metavar="SECONDS",
        help="flag workers whose last heartbeat is older than this "
        "(default: the campaign's lease_s)",
    )
    p.set_defaults(func=cmd_queue_status)

    p = sub.add_parser("train", help="train the IL-CNN agent")
    p.add_argument("--out", default="ilcnn_trained.npz")
    p.add_argument("--scenarios", type=int, default=16)
    p.add_argument("--epochs", type=int, default=12)
    p.add_argument("--data-seed", type=int, default=100)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("list-faults", help="show all registered fault models")
    p.set_defaults(func=cmd_list_faults)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    # Cross-argument check argparse types can't express: 0 workers means
    # "coordinate only", which only the queue backend can do.  Applies
    # to the commands that execute straight from flags; `run` checks it
    # itself after merging the spec's execution options (the queue dir
    # may come from the spec), and `spec emit` runs nothing — emitting a
    # coordinate-only spec to pair with a later --queue-dir is fine.
    if getattr(args, "command", None) in ("campaign", "sweep-delay"):
        _require_queue_for_coordinate_only(
            parser.error, getattr(args, "workers", None), getattr(args, "queue_dir", None)
        )
    args.func(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
