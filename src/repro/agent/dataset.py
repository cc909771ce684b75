"""Imitation-learning dataset: storage and on-policy collection.

The dataset is collected the way Codevilla et al. collect theirs: drive the
expert through missions and record ``(camera image, measured speed, route
command) → expert action`` tuples.  Crucially, *steering noise sessions*
perturb the applied control while the recorded label stays the expert's
corrective action — without these the cloned policy never learns to
recover from its own drift and fault-injection results degenerate.

Images are stored uint8 and converted per batch, keeping a 20k-frame
dataset around 350 MB → ~55 MB at the default camera size.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..sim.builders import SimulationBuilder
from ..sim.scenario import Scenario
from .autopilot import Expert, ExpertConfig
from .planner import RoutePlanner

__all__ = ["DrivingDataset", "CollectionConfig", "collect_imitation_data"]


@dataclass
class DrivingDataset:
    """Column-oriented imitation dataset.

    ``images``: (N, H, W, 3) uint8 camera frames;
    ``speeds``: (N,) float32 measured speeds (m/s);
    ``commands``: (N,) int8 route commands (branch indices);
    ``actions``: (N, 3) float32 expert ``[steer, throttle, brake]``.
    """

    images: np.ndarray
    speeds: np.ndarray
    commands: np.ndarray
    actions: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.images)
        if not (len(self.speeds) == len(self.commands) == len(self.actions) == n):
            raise ValueError("dataset columns have mismatched lengths")

    def __len__(self) -> int:
        return len(self.images)

    def command_histogram(self) -> dict[int, int]:
        """Sample counts per command (branch balance diagnostics)."""
        values, counts = np.unique(self.commands, return_counts=True)
        return {int(v): int(c) for v, c in zip(values, counts)}

    def split(self, val_fraction: float, rng: np.random.Generator) -> tuple["DrivingDataset", "DrivingDataset"]:
        """Shuffle and split into (train, validation)."""
        if not 0.0 < val_fraction < 1.0:
            raise ValueError("val_fraction must be in (0, 1)")
        order = rng.permutation(len(self))
        n_val = max(1, int(len(self) * val_fraction))
        val_idx, train_idx = order[:n_val], order[n_val:]
        return self.subset(train_idx), self.subset(val_idx)

    def subset(self, indices: np.ndarray) -> "DrivingDataset":
        """Dataset restricted to ``indices``."""
        return DrivingDataset(
            self.images[indices],
            self.speeds[indices],
            self.commands[indices],
            self.actions[indices],
        )

    def save(self, path: str | Path) -> None:
        """Write the dataset to ``.npz``."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            images=self.images,
            speeds=self.speeds,
            commands=self.commands,
            actions=self.actions,
        )

    @classmethod
    def load(cls, path: str | Path) -> "DrivingDataset":
        """Read a dataset written by :meth:`save`."""
        with np.load(path) as data:
            return cls(
                data["images"].copy(),
                data["speeds"].copy(),
                data["commands"].copy(),
                data["actions"].copy(),
            )

    @classmethod
    def concatenate(cls, parts: list["DrivingDataset"]) -> "DrivingDataset":
        """Stack several datasets into one."""
        if not parts:
            raise ValueError("nothing to concatenate")
        return cls(
            np.concatenate([p.images for p in parts]),
            np.concatenate([p.speeds for p in parts]),
            np.concatenate([p.commands for p in parts]),
            np.concatenate([p.actions for p in parts]),
        )


@dataclass(frozen=True)
class CollectionConfig:
    """Parameters of on-policy expert data collection.

    Noise sessions: with probability ``noise_start_prob`` per frame (when no
    session is active) a triangular steering perturbation of duration
    ``noise_duration_s`` and peak ``noise_amplitude`` is *applied* to the
    car while the *label* stays the expert's command.
    """

    seed: int = 0
    noise_start_prob: float = 0.015
    noise_duration_s: float = 0.9
    noise_amplitude: float = 0.55
    max_frames_per_episode: int = 2000


def collect_imitation_data(
    scenarios: list[Scenario],
    builder: SimulationBuilder | None = None,
    config: CollectionConfig | None = None,
    expert_config: ExpertConfig | None = None,
) -> DrivingDataset:
    """Drive the expert through ``scenarios`` and record imitation tuples.

    Runs the full sensor pipeline (rendered camera frames, noisy GPS and
    speed) so the network trains on exactly the distribution it will see
    at deployment.
    """
    builder = builder or SimulationBuilder()
    cfg = config or CollectionConfig()
    rng = np.random.default_rng(cfg.seed)

    images: list[np.ndarray] = []
    speeds: list[float] = []
    commands: list[int] = []
    actions: list[np.ndarray] = []

    for scenario in scenarios:
        handles = builder.build_episode(scenario)
        world, suite = handles.world, handles.sensors
        ego = world.ego
        assert ego is not None
        planner = RoutePlanner(handles.town)
        route = planner.plan(
            scenario.mission.start.position,
            scenario.mission.goal,
            start_yaw=scenario.mission.start.yaw,
        )
        expert = Expert(world, route, expert_config)

        noise_frames_left = 0
        noise_peak = 0.0
        noise_len = max(1, int(cfg.noise_duration_s * world.fps))

        for _ in range(cfg.max_frames_per_episode):
            frame = suite.read_frame(world, ego, world.frame)
            control = expert.control(world.dt)
            command = expert.current_command()

            images.append(frame.image)
            speeds.append(frame.speed)
            commands.append(int(command))
            actions.append(
                np.array([control.steer, control.throttle, control.brake], dtype=np.float32)
            )

            if noise_frames_left == 0 and rng.random() < cfg.noise_start_prob:
                noise_frames_left = noise_len
                noise_peak = float(rng.uniform(-1.0, 1.0)) * cfg.noise_amplitude
            if noise_frames_left > 0:
                # Triangular profile: ramp to the peak mid-session and back.
                progress = 1.0 - noise_frames_left / noise_len
                envelope = 1.0 - abs(2.0 * progress - 1.0)
                noisy_steer = control.steer + noise_peak * envelope
                applied = type(control)(
                    steer=noisy_steer, throttle=control.throttle, brake=control.brake
                )
                noise_frames_left -= 1
            else:
                applied = control

            ego.apply_control(applied)
            world.tick()
            if ego.position.distance_to(scenario.mission.goal) < scenario.mission.success_radius:
                break
            if world.time_s > scenario.mission.time_limit_s:
                break

    return DrivingDataset(
        np.stack(images).astype(np.uint8),
        np.array(speeds, dtype=np.float32),
        np.array(commands, dtype=np.int8),
        np.stack(actions),
    )
