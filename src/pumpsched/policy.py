"""Actor-critic policy: Gaussian action head, value head, checkpoint I/O.

Actions are sampled from a diagonal Gaussian around the actor mean and clipped
into [0, 1] at execution time; log-probabilities always refer to the unclipped
sample so the density stays well-defined. Acting needs only the actor: the
critic's values and the samples' log-probs are read by the update alone, so
rollout collection works them out once its episodes have ended.

The Gaussian head owns its density and its derivative, ``gaussian_logp`` and
``gaussian_logp_grads``, side by side; the networks' passes and the loss they
feed belong to the PPO update (``training._minibatch_gradient``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import SchemaError, ValidationError
from .history import _read_companion, _write_companion
from .network import _read_json
from .nn import MLP

HIDDEN_SIZES = (64, 64)
INITIAL_SIGMA = 0.3  # exploration noise of a fresh policy
INITIAL_ACTION = 0.5  # a fresh actor's mean: every pump near half speed
_LOG2PI = float(np.log(2.0 * np.pi))

CHECKPOINT_VERSION = 1


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
    return np.clip(forward_rows(params.actor, obs), 0.0, 1.0)


def entropy(params: PolicyParameters) -> float:
    """Entropy of the (state-independent) Gaussian head."""
    return float(np.sum(0.5 * (1.0 + _LOG2PI) + params.log_sigma))


# ----------------------------------------------------------------------------
# Checkpoints


def _mlp_from_dict(obj: dict, where: str) -> MLP:
    try:
        weights = [np.asarray(w, dtype=float) for w in obj["weights"]]
        biases = [np.asarray(b, dtype=float) for b in obj["biases"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"{where}: malformed network block ({exc})") from None
    if not weights or len(weights) != len(biases):
        raise SchemaError(f"{where}: needs one bias per weight matrix, at least one")
    for i, (w, b) in enumerate(zip(weights, biases)):
        if w.ndim != 2 or b.shape != w.shape[1:]:
            raise SchemaError(
                f"{where}: layer {i} weights {w.shape} do not match biases {b.shape}"
            )
        if i and w.shape[0] != weights[i - 1].shape[1]:
            raise SchemaError(
                f"{where}: layer {i} takes {w.shape[0]} inputs but layer {i - 1} "
                f"gives {weights[i - 1].shape[1]}"
            )
    return MLP(weights=weights, biases=biases)


def save_checkpoint(
    params: PolicyParameters, path: str | Path, meta: dict | None = None
) -> None:
    """Write a versioned, exactly-round-tripping checkpoint document, then its
    binary companion (see ``history._write_companion``): a header line of the
    document with each array replaced by its shape, and ``params.vector``.
    Both depend on params and meta alone.
    """
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "obs_dim": params.obs_dim,
        "action_dim": params.action_dim,
        "actor": vars(params.actor),  # the MLP's weights and biases lists
        "log_sigma": params.log_sigma,
        "critic": vars(params.critic),
        "meta": meta or {},
    }
    Path(path).write_text(json.dumps(doc, default=np.ndarray.tolist) + "\n")
    header = f"{json.dumps(doc, default=np.shape)}\n".encode()
    _write_companion(path, params.vector, header)


def _doc_from_companion(path: str | Path) -> dict | None:
    """The checkpoint document rebuilt from its companion, each array a view
    of the companion's vector; None unless the companion is keyed to the
    document's bytes and its shapes fill its vector exactly."""
    found = _read_companion(path, header=True)
    if found is None:
        return None
    head, vector = found
    try:
        doc = json.loads(head)
        params = PolicyParameters(
            MLP(**doc["actor"]), doc["log_sigma"], MLP(**doc["critic"]), vector
        )
    except (ValueError, TypeError, KeyError):
        return None
    actor, critic = vars(params.actor), vars(params.critic)
    return {**doc, "actor": actor, "log_sigma": params.log_sigma, "critic": critic}


def load_checkpoint(path: str | Path) -> tuple[PolicyParameters, dict]:
    """Load and check a checkpoint written by ``save_checkpoint``.

    The arrays come from its companion ``<path>.arrays`` while that is keyed
    to the SHA-256 of the document's bytes (see ``_doc_from_companion``); a
    missing, stale, truncated or malformed one falls back to parsing the JSON.
    Both paths then pass the same checks: format version, layer chaining,
    declared dimensions, ``log_sigma`` shape, critic output and ``meta`` type.
    Either way the result owns a new vector that its arrays are views of.
    """
    doc = _doc_from_companion(path) or _read_json(path)
    if not isinstance(doc, dict) or doc.get("format_version") != CHECKPOINT_VERSION:
        raise SchemaError(
            f"{path}: unsupported checkpoint format "
            f"(expected version {CHECKPOINT_VERSION})"
        )
    for key in ("actor", "log_sigma", "critic"):
        if key not in doc:
            raise SchemaError(f"{path}: missing checkpoint field {key!r}")
    actor = _mlp_from_dict(doc["actor"], f"{path}: actor")
    critic = _mlp_from_dict(doc["critic"], f"{path}: critic")
    try:
        log_sigma = np.asarray(doc["log_sigma"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: malformed log_sigma ({exc})") from None
    params = PolicyParameters(actor=actor, log_sigma=log_sigma, critic=critic)
    if params.obs_dim != doc.get("obs_dim") or params.action_dim != doc.get("action_dim"):
        raise SchemaError(f"{path}: declared dimensions do not match stored arrays")
    if log_sigma.shape != (params.action_dim,):
        raise SchemaError(
            f"{path}: log_sigma has shape {log_sigma.shape}, "
            f"expected ({params.action_dim},)"
        )
    if critic.sizes[0] != params.obs_dim or critic.sizes[-1] != 1:
        raise SchemaError(f"{path}: critic must map {params.obs_dim} inputs to 1 value")
    meta = doc.get("meta", {})
    if not isinstance(meta, dict):
        raise SchemaError(f"{path}: checkpoint meta must be an object")
    return params, meta
