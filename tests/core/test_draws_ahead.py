"""Noise draws made one frame ahead (:class:`~repro.core.faults.base.SensorFault`).

Gaussian noise makes each in-window frame's draws on a helper thread one
frame early.  The bits are pinned elsewhere
(``test_pinned_noise.py``); these tests pin the lifecycle: a draw in
flight is not fault state (copies and pickles drop it and leave the RNG
where ``apply`` left it), detach waits it out, a forked child draws on
its own helper, a sandboxed attempt's child draws ahead where its
parent would, and a process pool forked after the parent drew noise
gives the serial records.
"""

import copy
import multiprocessing
import os
import pickle
import signal
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from repro.agent import autopilot_agent_factory, nn_agent_factory
from repro.agent.ilcnn import ILCNN, ILCNNConfig
from repro.core import Campaign, EpisodeDriver, FaultTolerancePolicy, standard_scenarios
from repro.core.faults import GaussianNoise, GPSNoiseFault, SaltAndPepper, Trigger
from repro.core.faults import base as fault_base
from repro.sim.builders import SimulationBuilder
from repro.sim.render import CameraModel
from repro.sim.sensors import SensorFrame
from repro.sim.town import GridTownConfig

import test_pinned_noise

SHAPE = (12, 16, 3)
SIGMA = 0.1
DEFAULT_MIN_VALUES = fault_base.DRAW_AHEAD_MIN_VALUES
SPARE_CORE = fault_base._spare_core


@pytest.fixture(autouse=True)
def draw_everything_ahead(monkeypatch):
    """These tests use small images, on hosts of any core count, and in
    pool workers: draw them ahead all the same."""
    monkeypatch.setattr(fault_base, "DRAW_AHEAD_MIN_VALUES", 1)
    monkeypatch.setattr(fault_base, "_spare_core", lambda: True)


def _bundle(frame: int) -> SensorFrame:
    image = np.random.default_rng(frame).integers(0, 256, SHAPE, dtype=np.uint8)
    return SensorFrame(frame, image, (0.0, 0.0), 0.0, 0.0)


def _expected(rng: np.random.Generator, bundle: SensorFrame) -> np.ndarray:
    """The noised image of one firing, drawn inline from ``rng``."""
    noise = rng.normal(0.0, SIGMA * 255.0, bundle.image.shape)
    return np.clip(bundle.image.astype(np.float32) + noise, 0, 255).astype(np.uint8)


class _HeldHelper:
    """Holds the helper thread on a gate, so the next draw made ahead is
    still queued when the test acts; a timer opens the gate."""

    def __init__(self, hold_s: float = 0.2):
        self.gate = threading.Event()
        self.timer = threading.Timer(hold_s, self.gate.set)

    def __enter__(self):
        fault_base._submit(self.gate.wait)
        self.timer.start()
        return self

    def __exit__(self, *exc):
        self.gate.set()
        self.timer.cancel()


def _fault_in_flight(n_frames: int = 3) -> tuple[GaussianNoise, np.random.Generator]:
    """A bound gaussian fault after ``n_frames`` firings, its next draw
    queued behind a held helper; and an inline RNG at the same point."""
    fault = GaussianNoise(SIGMA)
    fault.bind(np.random.default_rng(7))
    reference = np.random.default_rng(7)
    for frame in range(n_frames - 1):
        _expected(reference, _bundle(frame))
        fault.apply(_bundle(frame), frame)
    return fault, reference


@pytest.mark.parametrize(
    "clone",
    [copy.deepcopy, lambda fault: pickle.loads(pickle.dumps(fault))],
    ids=["deepcopy", "pickle"],
)
def test_a_copy_drops_the_draw_in_flight(clone):
    fault, reference = _fault_in_flight()
    with _HeldHelper():
        fault.apply(_bundle(2), 2)
        _expected(reference, _bundle(2))
        assert fault._ahead is not None, "the next frame's draw is in flight"
        copied = clone(fault)
    assert "_ahead" not in copied.__dict__
    assert fault._ahead is None
    # Both now stand where apply left them: the next firing draws the
    # inline stream's next field.
    assert copied.rng.bit_generator.state == reference.bit_generator.state
    assert fault.rng.bit_generator.state == reference.bit_generator.state
    want = _expected(reference, _bundle(3))
    assert np.array_equal(copied.apply(_bundle(3), 3).image, want)
    assert np.array_equal(fault.apply(_bundle(3), 3).image, want)
    assert copied.log.frames == fault.log.frames == [0, 1, 2, 3]


def test_bind_starts_fresh():
    fault, _ = _fault_in_flight()
    with _HeldHelper():
        fault.apply(_bundle(2), 2)
        old_rng = fault.rng
        fault.bind(np.random.default_rng(11))
    assert fault._ahead is None
    fault.reset()
    assert np.array_equal(
        fault.apply(_bundle(0), 0).image, _expected(np.random.default_rng(11), _bundle(0))
    )
    assert old_rng is not fault.rng


def test_a_draw_made_for_another_shape_is_made_again():
    fault, reference = _fault_in_flight()
    fault.apply(_bundle(2), 2)
    _expected(reference, _bundle(2))
    small = SensorFrame(3, np.full((6, 8, 3), 128, np.uint8), (0.0, 0.0), 0.0, 0.0)
    assert np.array_equal(fault.apply(small, 3).image, _expected(reference, small))


def test_only_large_draws_are_made_ahead(monkeypatch):
    monkeypatch.setattr(fault_base, "DRAW_AHEAD_MIN_VALUES", DEFAULT_MIN_VALUES)
    small, large = GaussianNoise(SIGMA), GaussianNoise(SIGMA)
    for fault in (small, large):
        fault.bind(np.random.default_rng(3))
    image = np.zeros((64, 96, 3), np.uint8)
    small.apply(SensorFrame(0, image[:24, :32], (0.0, 0.0), 0.0, 0.0), 0)
    large.apply(SensorFrame(0, image, (0.0, 0.0), 0.0, 0.0), 0)
    assert small._ahead is None, "a 32x24 field is drawn inline"
    assert large._ahead is not None, "a 96x64 field is drawn ahead"
    large.drop_draw()
    # Faults that draw in transform never draw ahead, whatever the bound.
    monkeypatch.setattr(fault_base, "DRAW_AHEAD_MIN_VALUES", 0)
    for fault in (GPSNoiseFault(), SaltAndPepper()):
        fault.bind(np.random.default_rng(3))
        fault.apply(_bundle(0), 0)
        assert fault._ahead is None


def test_worker_processes_and_one_core_hosts_draw_inline(monkeypatch):
    """A pool worker shares the host's cores with one worker per core,
    and a one-core host has no second core: neither draws ahead."""
    child = multiprocessing.get_context("fork").Process(
        target=lambda: os._exit(0 if SPARE_CORE() is False else 1)
    )
    child.start()
    child.join(timeout=20.0)
    if child.is_alive():
        child.kill()
        child.join()
    assert child.exitcode == 0, "a pool worker would draw ahead"
    monkeypatch.setattr(fault_base, "_MANY_CORES", False)
    assert SPARE_CORE() is False
    monkeypatch.setattr(fault_base, "_MANY_CORES", True)
    assert SPARE_CORE() is True, "the main process of a multi-core host draws ahead"


def test_sandboxed_attempts_draw_ahead_where_their_parent_would(tmp_path, monkeypatch):
    """With ``timeout_s`` set, each serial attempt runs in a forked child
    while the parent waits: the child draws ahead exactly when the
    parent would, although ``multiprocessing`` started it."""
    monkeypatch.setattr(fault_base, "_spare_core", SPARE_CORE)
    log = tmp_path / "submitted"
    real_submit = fault_base._submit

    def spy(fn, *args):
        with open(log, "a") as f:
            f.write(f"{os.getpid()}\n")
        return real_submit(fn, *args)

    monkeypatch.setattr(fault_base, "_submit", spy)
    for many_cores in (True, False):
        monkeypatch.setattr(fault_base, "_MANY_CORES", many_cores)
        log.unlink(missing_ok=True)
        result = Campaign(
            _nn_scenarios()[:1], autopilot_agent_factory(), {"gaussian": [GaussianNoise(SIGMA)]},
            builder=BUILDER, executor="serial",
            fault_tolerance=FaultTolerancePolicy(timeout_s=120.0),
        ).run()
        assert len(result.records) == 1
        # The parent submits too: a fork first waits out its helper.
        pids = set(log.read_text().split()) if log.exists() else set()
        children = pids - {str(os.getpid())}
        if many_cores:
            assert children, "the sandbox child drew inline"
        else:
            assert not children, "a one-core host's sandbox child drew ahead"


def test_the_noise_pins_hold_in_sandboxed_attempts_drawing_ahead(tmp_path, monkeypatch):
    monkeypatch.setattr(fault_base, "_spare_core", SPARE_CORE)
    monkeypatch.setattr(fault_base, "_MANY_CORES", True)
    test_pinned_noise.test_noised_frames_match_their_pins_in_sandboxed_attempts(tmp_path)


def test_the_noise_pins_hold_with_every_draw_made_ahead():
    """``test_pinned_noise``'s 32x24 fields are below the size drawn
    ahead by default; drawn ahead, they must give the same bits."""
    for executor, slot in (("serial", None), ("multiplexed", 4)):
        test_pinned_noise.test_noised_frames_match_their_pinned_digests(executor, slot)


def _nn_scenarios():
    suite = standard_scenarios(
        2, seed=9, town_config=GridTownConfig(rows=2, cols=3), min_distance=60, max_distance=160
    )
    return [replace(s, mission=replace(s.mission, time_limit_s=3.0)) for s in suite]


TINY = ILCNNConfig(input_hw=(16, 24), conv_channels=(4, 6, 6), trunk_dim=16,
                   speed_dim=4, branch_hidden=8, dropout=0.0)
BUILDER = SimulationBuilder(camera=CameraModel(width=24, height=16), with_lidar=False)


def test_no_draw_outlives_detach():
    fault = GaussianNoise(SIGMA)
    driver = EpisodeDriver(
        BUILDER, _nn_scenarios()[0], nn_agent_factory(ILCNN(TINY)), faults=[fault]
    )
    driver.setup()
    try:
        driver.start()
        for _ in range(5):
            assert driver.begin_frame()
            driver.step_client()
            driver.step_world()
            driver.complete_frame(driver.sense())
        with _HeldHelper():
            assert fault._ahead is not None
            driver.close()
    finally:
        driver.close()
    assert fault._ahead is None
    # A draw detach had not waited out would run now and move the RNG.
    fault_base._drain_helper()
    # The RNG stands after exactly one field per firing.
    firings = len(fault.log.frames)
    assert firings == 5
    seed = np.random.default_rng(driver.harness_seed).integers(2**63)
    reference = np.random.default_rng(seed)
    for _ in range(firings):
        reference.normal(0.0, SIGMA * 255.0, (16, 24, 3))
    assert fault.rng.bit_generator.state == reference.bit_generator.state


def test_a_forked_child_draws_on_its_own_helper():
    """The parent's helper thread does not survive a fork: the fork waits
    out the draw still queued for frame 3, and the child starts its own
    helper, or a draw it waits for never finishes.  The child gets 20 s,
    then is killed, so a hang fails the test."""
    fault, reference = _fault_in_flight()
    _expected(reference, _bundle(2))
    want = [_expected(reference, _bundle(frame)) for frame in (3, 4)]
    with _HeldHelper():
        fault.apply(_bundle(2), 2)  # frame 3's draw waits behind the gate
        pid = os.fork()
    if pid == 0:  # child: two more firings, the second from a draw made ahead
        code = 1
        try:
            ok = all(
                np.array_equal(fault.apply(_bundle(frame), frame).image, image)
                for frame, image in zip((3, 4), want)
            )
            fault.drop_draw()
            code = 0 if ok else 1
        finally:
            os._exit(code)
    deadline = time.monotonic() + 20.0
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's draw never finished")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(status) == 0
    fault.drop_draw()


def test_a_pool_forked_after_noise_gives_the_serial_records():
    """The parent draws noise in-process first (its helper thread is
    running), then forks a process pool: each child (drawing ahead, as
    the fixture lets it) starts its own helper, and the nn agent's
    records (it reads the camera) match."""
    model = ILCNN(TINY)
    injectors = {
        "gaussian": [GaussianNoise(SIGMA)],
        "s&p": [SaltAndPepper(trigger=Trigger(probability=0.5))],
    }

    def run(**kw):
        return [r.to_dict() for r in Campaign(
            _nn_scenarios(), nn_agent_factory(model), injectors, builder=BUILDER, **kw
        ).run().records]

    serial = run(executor="serial")
    assert fault_base._jobs is not None, "the parent's helper is running"
    assert run(executor="process", workers=2) == serial


def test_threads_applying_noise_at_once_keep_their_streams():
    """More threads than cores apply noise at once, with a short switch
    interval: every thread's frames still equal the inline streams."""
    n_threads, n_frames = 4, 30

    def reference(seed):
        rng = np.random.default_rng(seed)
        out = []
        for frame in range(n_frames):
            image = _bundle(frame).image
            if rng.random() < 0.5:
                image = _expected(rng, _bundle(frame))
            out.append(image)
        return out

    results = {}

    def drive(seed):
        fault = GaussianNoise(SIGMA, Trigger(probability=0.5))
        fault.bind(np.random.default_rng(seed))
        results[seed] = [fault.apply(_bundle(f), f).image for f in range(n_frames)]
        fault.drop_draw()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=drive, args=(seed,)) for seed in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
            assert not thread.is_alive(), "a thread applying noise never finished"
    finally:
        sys.setswitchinterval(interval)
    for seed in range(n_threads):
        assert all(np.array_equal(a, b) for a, b in zip(results[seed], reference(seed)))
        assert len(results[seed]) == n_frames
