"""Actor-critic policy: Gaussian action head, value head, checkpoint I/O.

Actions are sampled from a diagonal Gaussian around the actor mean and clipped
into [0, 1] at execution time; log-probabilities always refer to the unclipped
sample so the density stays well-defined. Acting needs only the actor: the
critic's values and the samples' log-probs are read by the update alone, so
rollout collection works them out once its episodes have ended.

The Gaussian head owns its density and its derivative, ``gaussian_logp`` and
``gaussian_logp_grads``, side by side; the networks' passes and the loss they
feed belong to the PPO update (``training._minibatch_gradient``).

A checkpoint states each fact once: ``<path>.arrays`` is the policy's one
vector as ``np.save`` writes it, and the JSON document at ``path`` holds each
network's layer sizes, the meta and the SHA-256 of that vector file, but no
parameter value. Every array's shape follows from the sizes.
"""

from __future__ import annotations

import functools
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import SchemaError, ValidationError
from .network import _read_json
from .nn import MLP

HIDDEN_SIZES = (64, 64)
INITIAL_SIGMA = 0.3  # exploration noise of a fresh policy
INITIAL_ACTION = 0.5  # a fresh actor's mean: every pump near half speed
_LOG2PI = float(np.log(2.0 * np.pi))

CHECKPOINT_VERSION = 3


@dataclass
class PolicyParameters:
    """Actor mean network, state-independent log-sigma and critic network,
    each of their arrays a view of the one owned float64 ``vector``.

    Without ``vector``, the given arrays are copied into a new one. With it,
    each given array, or shape list, only shapes its view of ``vector``; so
    ``dataclasses.replace(params, vector=v)`` is the same structure on new
    numbers, and a vector the shapes do not fill exactly raises ValueError.
    The vector holds actor weights, actor biases, log_sigma, critic weights
    and critic biases, each C-ordered, end to end; the PPO update lays its
    gradient out the same way, as ``replace(params, vector=grad)``.
    """

    actor: MLP
    log_sigma: np.ndarray
    critic: MLP
    vector: np.ndarray | None = None

    def __post_init__(self) -> None:
        a, c = self.actor, self.critic
        parts = [*a.weights, *a.biases, self.log_sigma, *c.weights, *c.biases]
        if self.vector is None:
            self.vector = np.concatenate(parts, axis=None, dtype=float)
        shapes = [tuple(getattr(p, "shape", p)) for p in parts]
        views, end = [], 0
        for shape in shapes:
            start, end = end, end + math.prod(shape)
            views.append(self.vector[start:end].reshape(shape))
        if self.vector.shape != (end,) or [v.shape for v in views] != shapes:
            raise ValueError("parameter shapes do not fill the vector exactly")
        rest = iter(views)
        self.actor = MLP(*([next(rest) for _ in x] for x in (a.weights, a.biases)))
        self.log_sigma = next(rest)
        self.critic = MLP(*([next(rest) for _ in x] for x in (c.weights, c.biases)))

    @property
    def obs_dim(self) -> int:
        return self.actor.sizes[0]

    @property
    def action_dim(self) -> int:
        return self.actor.sizes[-1]


def init_policy(
    obs_dim: int,
    action_dim: int,
    rng: np.random.Generator,
    hidden: tuple[int, ...] = HIDDEN_SIZES,
) -> PolicyParameters:
    """Fresh policy; the actor mean starts near mid-range so pumps idle at ~50%."""
    if obs_dim < 1 or action_dim < 1:
        raise ValidationError("obs_dim and action_dim must be positive")
    actor = MLP.init(
        (obs_dim, *hidden, action_dim), rng, out_scale=0.01, out_bias=INITIAL_ACTION
    )
    critic = MLP.init((obs_dim, *hidden, 1), rng)
    log_sigma = np.full(action_dim, np.log(INITIAL_SIGMA))
    return PolicyParameters(actor=actor, log_sigma=log_sigma, critic=critic)


def forward_rows(net: MLP, obs: np.ndarray) -> np.ndarray:
    """``net``'s output for each row of observations, row-exact.

    Row k equals the one-row forward of ``obs[k]`` byte for byte, so an
    episode's actions and values do not depend on how many episodes or
    decisions share the call. A ``(B, n) @ W`` product does not give that: it
    runs a matrix-matrix BLAS kernel, which sums in another order than the
    one-row product, so its rows differ in the last bits. The stacked form
    ``obs[..., None, :] @ W`` runs the one-row product once per row instead.
    """
    return net.forward(np.asarray(obs, dtype=float)[..., None, :])[0][..., 0, :]


def gaussian_logp(actions: np.ndarray, means: np.ndarray, log_sigma: np.ndarray) -> np.ndarray:
    """Log density of a diagonal Gaussian, summed over action dimensions, the
    last axis; leading axes, at least one, index the samples."""
    actions = np.atleast_2d(actions)
    means = np.atleast_2d(means)
    sigma = np.exp(log_sigma)
    z = (actions - means) / sigma
    per_dim = -0.5 * _LOG2PI - log_sigma - 0.5 * z**2
    return np.add.reduce(per_dim, axis=-1)  # sum, minus its wrapper


def gaussian_logp_grads(
    actions: np.ndarray, means: np.ndarray, log_sigma: np.ndarray, coeff: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of sum(coeff * gaussian_logp(actions, means, log_sigma)) for
    rows of samples: w.r.t. ``means``, one row per sample, and w.r.t.
    ``log_sigma``, summed over the samples."""
    var = np.exp(log_sigma) ** 2
    diff = actions - means
    # d logp / d mean = diff / sigma^2; d logp / d log_sigma = diff^2/sigma^2 - 1
    grad_means = coeff[:, None] * diff / var
    grad_log_sigma = np.add.reduce(coeff[:, None] * (diff**2 / var - 1.0), axis=0)
    return grad_means, grad_log_sigma


def deterministic_action(params: PolicyParameters, obs: np.ndarray) -> np.ndarray:
    """Greedy action: the clipped actor mean, row-exact (``forward_rows``);
    the critic is not evaluated."""
    means = forward_rows(params.actor, obs)
    return np.minimum(np.maximum(means, 0.0), 1.0)  # np.clip's bytes, faster


def policy_act_fn(params: PolicyParameters):
    """Deterministic action function (clipped actor mean) for evaluation."""
    return functools.partial(deterministic_action, params)


def entropy(params: PolicyParameters) -> float:
    """Entropy of the (state-independent) Gaussian head."""
    return float(np.sum(0.5 * (1.0 + _LOG2PI) + params.log_sigma))


# ----------------------------------------------------------------------------
# Checkpoints


def _sizes(value, where: str) -> MLP:
    """A network as a checkpoint records it, its layer sizes input first: a
    list of two or more positive integers. Returns the MLP of its weight and
    bias shapes, whose layers chain by construction."""
    if not (
        isinstance(value, list)
        and len(value) > 1
        and all(type(n) is int and n > 0 for n in value)
    ):
        raise SchemaError(
            f"{where}: expected layer sizes, a list of two or more positive integers"
        )
    return MLP(weights=list(zip(value, value[1:])), biases=[(n,) for n in value[1:]])


def save_checkpoint(
    params: PolicyParameters, path: str | Path, meta: dict | None = None
) -> None:
    """Write ``params.vector`` to ``<path>.arrays`` by ``np.save``, then the
    checkpoint document at ``path``: format version, each network's layer
    sizes, ``meta`` and the arrays file's SHA-256. The document holds no
    parameter value, and both files depend on params and meta alone.
    """
    buf = io.BytesIO()
    np.save(buf, params.vector, allow_pickle=False)
    data = buf.getvalue()
    Path(f"{path}.arrays").write_bytes(data)
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "actor": list(params.actor.sizes),
        "critic": list(params.critic.sizes),
        "meta": meta or {},
        "arrays_sha256": hashlib.sha256(data).hexdigest(),
    }
    Path(path).write_text(json.dumps(doc) + "\n")


def load_checkpoint(path: str | Path) -> tuple[PolicyParameters, dict]:
    """Load and check a checkpoint written by ``save_checkpoint``.

    The document is read and checked first: format version, layer sizes, and
    a critic that takes the actor's inputs to one value. Then
    ``<path>.arrays`` must hash to the SHA-256 the document records and hold
    one 1-D float64 vector that the sizes' shapes fill exactly; ``log_sigma``
    is as wide as the actor's output. The ``meta`` type is checked last. Any
    of these failing is a one-line ``SchemaError``; a missing file is an
    ``OSError``. The result's arrays are views of the one writable vector
    read from the file.
    """
    doc = _read_json(path)
    if not isinstance(doc, dict) or doc.get("format_version") != CHECKPOINT_VERSION:
        raise SchemaError(
            f"{path}: unsupported checkpoint format "
            f"(expected version {CHECKPOINT_VERSION})"
        )
    actor = _sizes(doc.get("actor"), f"{path}: actor")
    critic = _sizes(doc.get("critic"), f"{path}: critic")
    inputs = doc["actor"][0]
    if doc["critic"][0] != inputs or doc["critic"][-1] != 1:
        raise SchemaError(f"{path}: critic must map {inputs} inputs to 1 value")
    arrays = f"{path}.arrays"
    with open(arrays, "rb") as fh:
        if hashlib.sha256(fh.read()).hexdigest() != doc.get("arrays_sha256"):
            raise SchemaError(f"{arrays}: does not match the SHA-256 {path} records")
        fh.seek(0)
        try:
            vector = np.load(fh, allow_pickle=False)
        # MemoryError: a header declaring more values than the file holds
        except (ValueError, EOFError, MemoryError) as exc:
            raise SchemaError(f"{arrays}: not a saved array ({exc})") from None
    # an .npz archive loads as an NpzFile, which has no dtype
    if getattr(vector, "dtype", None) != np.float64 or vector.ndim != 1:
        raise SchemaError(f"{arrays}: expected one 1-D float64 vector")
    try:
        params = PolicyParameters(actor, actor.biases[-1], critic, vector)
    except ValueError:
        raise SchemaError(
            f"{arrays}: {vector.size} values do not fill the shapes {path} records"
        ) from None
    meta = doc.get("meta", {})
    if not isinstance(meta, dict):
        raise SchemaError(f"{path}: checkpoint meta must be an object")
    return params, meta
