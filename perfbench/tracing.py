"""Span tracing for the campaign benchmark, installed from outside the program.

Wrappers go around the public entry points of each layer (see
:func:`install_layers`); the program itself is never edited.  Every call
records one span ``[name, start, end, parent, episode, n]``:

* ``name`` is ``<layer>:<entry point>``;
* ``start``/``end`` come from :func:`time.perf_counter`, which on Linux
  reads ``CLOCK_MONOTONIC`` and so lines up across processes;
* ``parent`` is the enclosing span of the same thread (or ``None``);
* ``episode`` is ``injector/scenario/seed`` where the call belongs to one
  episode, inherited from the parent otherwise;
* ``n`` is the work count of the call (images in a batch, live worlds in
  a sensor batch, 1 for a claim that got a task).

Spans stay in memory; :meth:`Tracer.dump` writes them once, at exit.
Wrappers only read clocks: they draw no random numbers and touch no
program state, so records stay byte-identical with tracing on.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from collections import defaultdict

_ORIGINAL = "_perfbench_original"


class Tracer:
    """In-memory span store with one parent stack per thread."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()
        self._installed: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, func, name: str, episode_of=None, count_of=None):
        """``func`` wrapped so each call records a span called ``name``."""
        spans = self.spans
        stack_of = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else None
            episode = episode_of(args) if episode_of is not None else None
            if episode is None and parent is not None:
                episode = parent[4]
            span = [name, clock(), 0.0, parent, episode, 1]
            spans.append(span)
            stack.append(span)
            try:
                result = func(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if count_of is not None:
                span[5] = count_of(args, result)
            return result

        setattr(traced, _ORIGINAL, func)
        return traced

    def patch(self, owner, attr: str, name: str, episode_of=None, count_of=None):
        """Replace ``owner.attr`` by its traced wrapper (undone by :meth:`uninstall`)."""
        previous = owner.__dict__.get(attr)
        self._installed.append((owner, attr, previous))
        if isinstance(previous, classmethod):
            func = getattr(previous.__func__, _ORIGINAL, previous.__func__)
            setattr(owner, attr, classmethod(self.wrap(func, name, episode_of, count_of)))
            return
        current = getattr(owner, attr)
        func = getattr(current, _ORIGINAL, current)
        setattr(owner, attr, self.wrap(func, name, episode_of, count_of))

    def patch_function(self, func, name: str, count_of=None) -> None:
        """Trace a module-level function in every ``repro`` module bound to it.

        Modules import functions by name (``from .runner import
        attempt_task``), so each binding is patched separately.
        """
        for mod_name, module in list(sys.modules.items()):
            if mod_name.split(".")[0] == "repro" and module is not None:
                if module.__dict__.get(func.__name__) is func:
                    self.patch(module, func.__name__, name, count_of=count_of)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        for owner, attr, previous in reversed(self._installed):
            if previous is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)
        self._installed.clear()

    def export(self) -> list[dict]:
        """Spans as JSON-able dicts, parents given by index."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        return [
            {
                "name": name,
                "start": start,
                "end": end,
                "parent": None if parent is None else index[id(parent)],
                "episode": episode,
                "n": n,
            }
            for name, start, end, parent, episode, n in self.spans
        ]

    def dump(self, path) -> None:
        """Write every span as one JSON line (called once, at exit)."""
        with open(path, "w") as fh:
            for row in self.export():
                fh.write(json.dumps(row) + "\n")


def load_spans(path) -> list[dict]:
    """Read a span file written by :meth:`Tracer.dump`."""
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    out = []
    for i, span in enumerate(spans):
        duration = span["end"] - span["start"]
        out.append(duration - covered(children.get(i, ()), span["start"], span["end"]))
    return out


def layer_of(name: str) -> str:
    return name.split(":", 1)[0]


def summarize(spans: list[dict], lo: float = float("-inf"), hi: float = float("inf")):
    """Per-name ``{"self_s", "total_s", "calls", "n"}`` of spans starting in ``[lo, hi)``."""
    selfs = self_times(spans)
    out: dict[str, dict] = defaultdict(lambda: {"self_s": 0.0, "total_s": 0.0, "calls": 0, "n": 0})
    for span, self_s in zip(spans, selfs):
        if not lo <= span["start"] < hi:
            continue
        row = out[span["name"]]
        row["self_s"] += self_s
        row["total_s"] += span["end"] - span["start"]
        row["calls"] += 1
        row["n"] += span["n"]
    return dict(out)


# ----------------------------------------------------------------------
# The layer entry points
# ----------------------------------------------------------------------


def _driver_episode(args):
    driver = args[0]
    return f"{driver.injector_name}/{driver.scenario.name}/{driver.harness_seed}"


def _task_episode(args):
    task = args[1]
    return f"{task.injector}/{task.scenario.name}/{task.seed}"


def _views(args, result):
    return len(args[1])


def _claim_hit(args, result):
    return 0 if result is None else 1


#: Fault hooks traced on every registered fault class.
FAULT_HOOKS = ("apply", "on_send", "step", "install", "remove")


def install_layers(tracer: Tracer) -> None:
    """Wrap the public entry point of every layer the benchmark reports."""
    from repro.agent.agents import AutopilotAgent, NNAgent
    from repro.core import Campaign, campaign, multiplex, netqueue, queue, runner, spec
    from repro.core.faults.base import FAULT_REGISTRY
    from repro.sim import builders, sensors
    from repro.sim.render import Renderer
    from repro.sim.violations import ViolationMonitor
    from repro.sim.world import World

    tracer.patch(Renderer, "render", "render:Renderer.render")
    tracer.patch(Renderer, "render_batch", "render:Renderer.render_batch", count_of=_views)
    tracer.patch(Renderer, "render_semantic_depth", "render:Renderer.render_semantic_depth")
    tracer.patch(sensors.Lidar2D, "read", "lidar:Lidar2D.read")
    tracer.patch(sensors.SensorSuite, "read_frame", "sensors:SensorSuite.read_frame")
    tracer.patch_function(
        sensors.read_frames_batch, "sensors:read_frames_batch", count_of=lambda a, r: len(a[0])
    )
    tracer.patch(World, "tick", "world:World.tick")
    tracer.patch(ViolationMonitor, "step", "violations:ViolationMonitor.step")
    tracer.patch(AutopilotAgent, "step", "agent:AutopilotAgent.step")
    tracer.patch(NNAgent, "step", "agent:NNAgent.step")
    for cls in dict(FAULT_REGISTRY).values():
        for hook in FAULT_HOOKS:
            if callable(getattr(cls, hook, None)):
                tracer.patch(cls, hook, f"faults:{cls.__name__}.{hook}")
    for phase in ("setup", "step_client", "step_world", "sense", "complete_frame", "finalize"):
        tracer.patch(
            campaign.EpisodeDriver, phase, f"driver:{phase}", episode_of=_driver_episode
        )
    tracer.patch_function(runner.append_jsonl_line, "runner:append_jsonl_line")
    tracer.patch(runner, "execute_task", "episode:execute_task", episode_of=_task_episode)
    # Serial fallbacks of the multiplexer: calls that arrive through the
    # multiplex module's own binding of attempt_task.
    tracer.patch(multiplex, "attempt_task", "mux:attempt_task", episode_of=_task_episode)
    tracer.patch(netqueue.BrokerServer, "dispatch", "broker:BrokerServer.dispatch")
    tracer.patch(netqueue.TcpBroker, "_call", "broker:TcpBroker.call")
    tracer.patch(netqueue.TcpBroker, "claim", "broker:TcpBroker.claim", count_of=_claim_hit)
    tracer.patch(netqueue.TcpBroker, "load_context", "worker:TcpBroker.load_context")
    tracer.patch(queue, "_drain", "executor:worker_drain")
    # In-process campaigns: building one from its spec, and running it.
    tracer.patch(Campaign, "from_spec", "executor:Campaign.from_spec")
    tracer.patch(Campaign, "run", "executor:Campaign.run")
    tracer.patch(spec.ScenarioSuiteSpec, "build", "spec:ScenarioSuiteSpec.build")
    tracer.patch(builders.SimulationBuilder, "renderer_for", "scene:SimulationBuilder.renderer_for")
