"""The conditional imitation-learning network (Codevilla et al., ICRA'18).

Architecture (scaled to CPU training, same topology as the paper's agent):

* a **perception trunk**: three strided convolutions over the RGB camera
  image, flattened into a 128-d feature vector;
* a **measurement head** embedding the measured speed;
* a **joint layer** fusing both;
* four **command branches** (FOLLOW / LEFT / RIGHT / STRAIGHT), each a
  small MLP emitting ``[steer, throttle, brake]``; the route planner's
  command selects which branch drives the car.

The network is a first-class AVFI fault target: all weights are reachable
through :meth:`named_parameters` (weight faults) and every layer carries
``forward_hooks`` (activation faults).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nn.layers import Conv2d, Dense, Dropout, Flatten, Module, Param, ReLU, Sequential
from .nn.serialize import apply_state, load_state, save_state
from .planner import Command

__all__ = ["ILCNNConfig", "ILCNN", "preprocess_image"]

#: Speed normalisation divisor (m/s) so inputs stay O(1).
SPEED_SCALE = 10.0


@dataclass(frozen=True)
class ILCNNConfig:
    """Hyper-parameters of the branched network.

    ``input_hw`` is the post-downsampling image size fed to the trunk; the
    raw camera frame is mean-pooled down to it (Codevilla et al. likewise
    resize the camera stream before the network).
    """

    input_hw: tuple[int, int] = (32, 48)
    conv_channels: tuple[int, int, int] = (16, 32, 48)
    trunk_dim: int = 128
    speed_dim: int = 32
    branch_hidden: int = 64
    dropout: float = 0.1
    n_branches: int = 4
    seed: int = 7


def preprocess_image(image: np.ndarray, input_hw: tuple[int, int]) -> np.ndarray:
    """Camera frame (H, W, 3) uint8 → network tensor (3, h, w) float32.

    Mean-pools by the integer factor between the camera and network sizes
    and scales to [0, 1].  Raises when the sizes are not integer multiples —
    a configuration error better caught loudly.
    """
    h_out, w_out = input_hw
    h_in, w_in = image.shape[:2]
    if h_in % h_out or w_in % w_out:
        raise ValueError(
            f"camera size {h_in}x{w_in} is not an integer multiple of network input {h_out}x{w_out}"
        )
    fy, fx = h_in // h_out, w_in // w_out
    x = image.astype(np.float32) / 255.0
    x = x.reshape(h_out, fy, w_out, fx, 3).mean(axis=(1, 3))
    # Corrupted frames (bit-flipped payloads) may carry NaN/inf; the network
    # must receive finite numbers even if they are garbage.
    np.nan_to_num(x, copy=False, nan=0.0, posinf=1.0, neginf=0.0)
    return np.ascontiguousarray(x.transpose(2, 0, 1))


class ILCNN:
    """Branched conditional imitation-learning model."""

    def __init__(self, config: ILCNNConfig | None = None):
        self.config = config or ILCNNConfig()
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        c1, c2, c3 = cfg.conv_channels
        h, w = cfg.input_hw
        conv1 = Conv2d(3, c1, 5, stride=2, pad=2, rng=rng)
        conv2 = Conv2d(c1, c2, 3, stride=2, pad=1, rng=rng)
        conv3 = Conv2d(c2, c3, 3, stride=2, pad=1, rng=rng)
        h3, w3 = h, w
        for conv in (conv1, conv2, conv3):
            _, h3, w3 = conv.output_shape(h3, w3)
        flat = c3 * h3 * w3
        self.trunk = Sequential(
            conv1,
            ReLU(),
            conv2,
            ReLU(),
            conv3,
            ReLU(),
            Flatten(),
            Dense(flat, cfg.trunk_dim, rng),
            ReLU(),
        )
        self.speed_head = Sequential(Dense(1, cfg.speed_dim, rng), ReLU())
        self.join = Sequential(
            Dense(cfg.trunk_dim + cfg.speed_dim, cfg.trunk_dim, rng),
            ReLU(),
            Dropout(cfg.dropout, rng=np.random.default_rng(cfg.seed + 1)),
        )
        self.branches = [
            Sequential(
                Dense(cfg.trunk_dim, cfg.branch_hidden, rng),
                ReLU(),
                Dense(cfg.branch_hidden, 3, rng),
            )
            for _ in range(cfg.n_branches)
        ]
        self._branch_masks: list[np.ndarray] | None = None
        self._n: int = 0
        #: The mode :meth:`set_training` last chose (a fresh model trains).
        self.training = True

    # ------------------------------------------------------------------
    # Forward / backward
    # ------------------------------------------------------------------
    def forward(self, images: np.ndarray, speeds: np.ndarray, commands: np.ndarray) -> np.ndarray:
        """Batch forward pass.

        ``images``: (N, 3, h, w) float32; ``speeds``: (N,) or (N, 1) m/s;
        ``commands``: (N,) ints in [0, n_branches).  Returns (N, 3) raw
        ``[steer, throttle, brake]`` predictions.
        """
        n = images.shape[0]
        speeds = np.asarray(speeds, dtype=np.float32).reshape(n, 1) / SPEED_SCALE
        # Corrupted measurements (bit flips) can carry NaN/inf or absurd
        # magnitudes; bound them so one bad scalar cannot overflow float32
        # through the dense layers.
        np.nan_to_num(speeds, copy=False, nan=0.0, posinf=10.0, neginf=-10.0)
        np.clip(speeds, -10.0, 10.0, out=speeds)
        commands = np.asarray(commands)
        if commands.min() < 0 or commands.max() >= self.config.n_branches:
            raise ValueError("command outside branch range")
        features = self.trunk(images.astype(np.float32))
        speed_feat = self.speed_head(speeds)
        joint = self.join(np.concatenate([features, speed_feat], axis=1))
        out = np.zeros((n, 3), dtype=np.float32)
        self._branch_masks = []
        self._n = n
        for b, branch in enumerate(self.branches):
            mask = commands == b
            self._branch_masks.append(mask)
            if np.any(mask):
                out[mask] = branch(joint[mask])
        return out

    def backward(self, grad_out: np.ndarray) -> None:
        """Back-propagate a (N, 3) output gradient through the whole net."""
        if self._branch_masks is None:
            raise RuntimeError("backward before forward")
        cfg = self.config
        grad_joint = np.zeros((self._n, cfg.trunk_dim), dtype=np.float32)
        for branch, mask in zip(self.branches, self._branch_masks):
            if np.any(mask):
                grad_joint[mask] = branch.backward(grad_out[mask])
        grad_concat = self.join.backward(grad_joint)
        self.trunk.backward(grad_concat[:, : cfg.trunk_dim])
        self.speed_head.backward(grad_concat[:, cfg.trunk_dim :])

    def predict_one(self, image: np.ndarray, speed: float, command: Command) -> np.ndarray:
        """Single-frame inference from a raw camera image.

        Always in inference mode, whatever :meth:`set_training` last
        chose: dropout would draw its masks from one RNG the model shares
        across episodes, so a control would depend on episode order.
        """
        x = preprocess_image(image, self.config.input_hw)[None, ...]
        args = (x, np.array([speed]), np.array([int(command)]))
        if not self.training:
            return self.forward(*args)[0]
        self.set_training(False)
        try:
            return self.forward(*args)[0]
        finally:
            self.set_training(True)

    # ------------------------------------------------------------------
    # Parameter plumbing
    # ------------------------------------------------------------------
    def submodules(self) -> dict[str, Sequential]:
        """Named top-level blocks (stable order)."""
        blocks = {"trunk": self.trunk, "speed_head": self.speed_head, "join": self.join}
        for i, branch in enumerate(self.branches):
            blocks[f"branch{i}"] = branch
        return blocks

    def parameters(self) -> list[Param]:
        """All trainable parameters."""
        return [p for block in self.submodules().values() for p in block.parameters()]

    def named_parameters(self) -> dict[str, Param]:
        """Dotted-name → parameter mapping (checkpoint/fault addressing)."""
        out: dict[str, Param] = {}
        for block_name, block in self.submodules().items():
            for name, p in block.named_parameters(f"{block_name}."):
                out[name] = p
        return out

    def n_weights(self) -> int:
        """Total scalar weight count."""
        return sum(p.size for p in self.parameters())

    def set_training(self, flag: bool) -> None:
        """Toggle training mode on every block."""
        self.training = flag
        for block in self.submodules().values():
            block.set_training(flag)

    def zero_grad(self) -> None:
        """Reset all gradients."""
        for block in self.submodules().values():
            block.zero_grad()

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """Copy of all weights keyed by dotted names."""
        return {name: p.data.copy() for name, p in self.named_parameters().items()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load weights produced by :meth:`state_dict` (strict)."""
        apply_state({n: p.data for n, p in self.named_parameters().items()}, state)

    def save(self, path) -> None:
        """Write weights to an ``.npz`` checkpoint."""
        save_state(self.state_dict(), path)

    @classmethod
    def load(cls, path, config: ILCNNConfig | None = None) -> "ILCNN":
        """Build a model and load an ``.npz`` checkpoint into it."""
        model = cls(config)
        model.load_state_dict(load_state(path))
        model.set_training(False)
        return model
