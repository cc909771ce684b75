"""Content-addressed artifact store: ship NN agent weights once per worker.

The queue layer moves the campaign context as one pickle, and for an NN
agent that pickle *contains the full model* — every publish, every
context reload, every worker attach re-ships megabytes of weights that
never change within a campaign.  This module is the warm-start half the
ROADMAP called for:

* :class:`ArtifactStore` — a flat content-addressed blob store
  (``root/<sha[:2]>/<sha>``).  Writes are atomic (temp + rename) and
  idempotent: the same key is only ever the same bytes, so concurrent
  puts of one artifact are harmless.  Every broker exposes it through
  the typed ``Broker.artifact_put/get/has`` — in-process on a shared
  directory, one TCP frame each against a broker server — so whatever
  queue a worker already talks to is also its artifact source.
* :class:`ArtifactNNAgentFactory` — a picklable stand-in for
  :class:`~repro.agent.agents.NNAgentFactory` that carries only the
  weight digest and a broker location.  Workers fetch the ``.npz`` blob
  **once per process** (a module-level cache keyed by digest; repeated
  unpickles, context reloads and multiplexed slots all reuse it) and
  build the identical model.

The content address is
:func:`~repro.agent.agents.model_weight_digest` — the *same* SHA-1 that
:meth:`~repro.agent.agents.NNAgentFactory.config_signature` embeds in
every checkpoint fingerprint.  One key for shipping and fingerprinting
means an artifact-warm-started campaign is byte-identical to one whose
context carried the weights inline: same signature string, same episode
fingerprints, same records.
"""

from __future__ import annotations

import os
import re
import tempfile
import threading
from pathlib import Path

__all__ = [
    "ArtifactStore",
    "ArtifactNNAgentFactory",
    "internalize_nn_factory",
    "local_artifact_cache_dir",
]

_SHA_RE = re.compile(r"^[0-9a-f]{8,64}$")


def _check_sha(sha: str) -> str:
    """Content addresses double as path components (and travel over the
    wire) — reject anything that is not a plain hex digest before it can
    become ``../`` traversal on a server."""
    if not isinstance(sha, str) or not _SHA_RE.fullmatch(sha):
        raise ValueError(f"invalid artifact digest {sha!r} (want 8-64 hex chars)")
    return sha


class ArtifactStore:
    """A directory of immutable blobs keyed by hex digest.

    ``put`` is idempotent — content addressing means a key names exactly
    one byte string forever, so an existing file short-circuits the
    write and two machines racing to put the same artifact cannot
    conflict (both rename identical bytes into place).
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)

    def path(self, sha: str) -> Path:
        sha = _check_sha(sha)
        return self.root / sha[:2] / sha

    def has(self, sha: str) -> bool:
        return self.path(sha).exists()

    def put(self, blob: bytes, sha: str) -> str:
        path = self.path(sha)
        if path.exists():
            return sha
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
        tmp.write_bytes(blob)
        os.replace(tmp, path)
        return sha

    def get(self, sha: str) -> bytes | None:
        try:
            return self.path(sha).read_bytes()
        except FileNotFoundError:
            return None


def local_artifact_cache_dir() -> Path:
    """Where a worker machine caches fetched artifacts across processes
    (override with ``REPRO_ARTIFACT_CACHE``).  Per-user under the temp
    dir by default so shared hosts don't fight over file ownership."""
    override = os.environ.get("REPRO_ARTIFACT_CACHE")
    if override:
        return Path(override)
    try:
        uid = os.getuid()
    except AttributeError:  # non-POSIX
        uid = 0
    return Path(tempfile.gettempdir()) / f"repro-artifacts-{uid}"


#: Process-local models by (weight digest, config): the "once per
#: worker" in warm start.  Unpickling the factory for every context
#: reload (or slot) must not re-fetch or re-deserialise megabytes of
#: weights.  The config rides in the key because the same weights can
#: be loaded under different architectures — two factories sharing a
#: digest must not silently share whichever config loaded first.
_MODEL_CACHE: dict[tuple[str, str], object] = {}
_MODEL_CACHE_LOCK = threading.Lock()


def _cache_key(sha: str, config) -> tuple[str, str]:
    # ILCNNConfig is a frozen dataclass, so repr is a stable identity;
    # None (default config) keys separately, which at worst costs one
    # redundant load.
    return (sha, repr(config))


def _fetch_model(sha: str, source: str, config=None):
    """The digest's model, from (in order): the process cache, the local
    on-disk cache, the broker at ``source``.  ``config`` is the
    :class:`~repro.agent.ilcnn.ILCNNConfig` the weights were trained
    under — the ``.npz`` holds only arrays, so architecture must travel
    with the factory (``None`` = default config)."""
    key = _cache_key(sha, config)
    with _MODEL_CACHE_LOCK:
        model = _MODEL_CACHE.get(key)
    if model is not None:
        return model

    # Deferred: keep core importable without agent.
    from ..agent.agents import model_weight_digest
    from ..agent.ilcnn import ILCNN

    cache = ArtifactStore(local_artifact_cache_dir())
    path = cache.path(sha)
    if not path.exists():
        from .netqueue import make_broker

        broker = make_broker(source)
        blob = broker.artifact_get(sha)
        if blob is None:
            raise RuntimeError(
                f"artifact {sha} not found at broker {source!r} — was the "
                f"campaign published with internalize_nn_factory?"
            )
        cache.put(blob, sha)
    model = ILCNN.load(path, config)
    model.set_training(False)
    # The store cannot check the content address itself (the sha digests
    # the *loaded weights*, not the blob), so the worker must: a wrong
    # blob under a known digest would otherwise run different weights
    # while every fingerprint still claims the right ones.
    loaded = model_weight_digest(model)
    if loaded != sha:
        path.unlink(missing_ok=True)  # evict: never trust this file again
        raise RuntimeError(
            f"artifact {sha} from {source!r} loaded with weight digest "
            f"{loaded} — store corrupted or poisoned; cached copy evicted"
        )
    with _MODEL_CACHE_LOCK:
        _MODEL_CACHE.setdefault(key, model)
    return model


class ArtifactNNAgentFactory:
    """An NN agent factory whose weights live in an artifact store.

    Pickles at a few hundred bytes (digest + broker location + replan
    tolerance) instead of the full model; the model materialises lazily
    on first agent build, via the per-process cache.  The
    ``config_signature`` is *identical* to the eager factory's for the
    same weights — fingerprints must not depend on how weights travel.
    """

    def __init__(self, sha: str, source: str, replan_tolerance: float = 10.0,
                 config=None):
        self.sha = _check_sha(sha)
        self.source = str(source)
        self.replan_tolerance = replan_tolerance
        #: :class:`~repro.agent.ilcnn.ILCNNConfig` (or ``None`` for the
        #: default) — the ``.npz`` artifact holds only weight arrays, so
        #: the architecture rides with the factory.
        self.config = config

    @property
    def model(self):
        return _fetch_model(self.sha, self.source, self.config)

    def __call__(self, handles, mission):
        from ..agent.agents import NNAgentFactory

        return NNAgentFactory(self.model, self.replan_tolerance)(handles, mission)

    def config_signature(self) -> str:
        from ..agent.agents import nn_config_signature

        return nn_config_signature(self.sha, self.replan_tolerance)

    def __repr__(self) -> str:
        return (
            f"ArtifactNNAgentFactory(sha={self.sha[:12]!r}, "
            f"source={self.source!r})"
        )


def internalize_nn_factory(factory, broker, source: str):
    """Swap an eager NN factory for an artifact-backed one, uploading the
    weights to ``broker`` (keyed by their
    :func:`~repro.agent.agents.model_weight_digest`) if not already
    present.  Non-NN factories pass through unchanged, so callers can
    apply this unconditionally before publishing a campaign.

    ``source`` is the broker location *as workers will reach it* — the
    string they can hand to :func:`~repro.core.netqueue.make_broker`
    (``tcp://host:port``, or the shared queue directory).
    """
    from ..agent.agents import NNAgentFactory, model_weight_digest

    if isinstance(factory, ArtifactNNAgentFactory):
        return factory
    if not isinstance(factory, NNAgentFactory):
        return factory
    sha = model_weight_digest(factory.model)
    if not broker.artifact_has(sha):
        # save_state appends .npz when the suffix is missing, so spell it
        # out and read the bytes back for the store.
        with tempfile.TemporaryDirectory(prefix="repro-artifact-") as tmp:
            path = Path(tmp) / f"{sha}.npz"
            factory.model.save(path)
            blob = path.read_bytes()
        broker.artifact_put(sha, blob)
    config = getattr(factory.model, "config", None)
    replica = ArtifactNNAgentFactory(
        sha, source, factory.replan_tolerance, config=config
    )
    # Seed the local process cache: the coordinator already holds the
    # loaded model, no reason for *it* to round-trip through the store.
    with _MODEL_CACHE_LOCK:
        _MODEL_CACHE.setdefault(_cache_key(sha, config), factory.model)
    return replica
