"""Actor-critic policy: Gaussian action head, value head, checkpoint I/O.

Actions are sampled from a diagonal Gaussian around the actor mean and clipped
into [0, 1] at execution time; log-probabilities always refer to the unclipped
sample so the density stays well-defined.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import SchemaError, ValidationError
from .nn import MLP

HIDDEN_SIZES = (64, 64)
INITIAL_SIGMA = 0.3  # exploration noise of a fresh policy
INITIAL_ACTION = 0.5  # a fresh actor's mean: every pump near half speed
_LOG2PI = float(np.log(2.0 * np.pi))

CHECKPOINT_VERSION = 1


@dataclass
class PolicyParameters:
    """Actor mean network, state-independent log-sigma, critic network."""

    actor: MLP
    log_sigma: np.ndarray
    critic: MLP

    @property
    def obs_dim(self) -> int:
        return self.actor.sizes[0]

    @property
    def action_dim(self) -> int:
        return self.actor.sizes[-1]

    def arrays(self) -> list[np.ndarray]:
        """Flat list view in a fixed order (actor, log_sigma, critic)."""
        return (
            self.actor.weights
            + self.actor.biases
            + [self.log_sigma]
            + self.critic.weights
            + self.critic.biases
        )

    def replace_arrays(self, arrays: list[np.ndarray]) -> "PolicyParameters":
        n_a = len(self.actor.weights)
        n_c = len(self.critic.weights)
        expected = 2 * n_a + 1 + 2 * n_c
        if len(arrays) != expected:
            raise ValidationError("array list does not match policy structure")
        i = 0
        actor = MLP(weights=list(arrays[i : i + n_a]), biases=list(arrays[i + n_a : i + 2 * n_a]))
        i += 2 * n_a
        log_sigma = arrays[i]
        i += 1
        critic = MLP(weights=list(arrays[i : i + n_c]), biases=list(arrays[i + n_c : i + 2 * n_c]))
        return PolicyParameters(actor=actor, log_sigma=log_sigma, critic=critic)


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


def _check_obs(params: PolicyParameters, obs: np.ndarray) -> np.ndarray:
    arr = np.asarray(obs, dtype=float)
    if arr.ndim == 1:
        if arr.shape[0] != params.obs_dim:
            raise ValidationError(
                f"observation width {arr.shape[0]} does not match policy input "
                f"{params.obs_dim}"
            )
    elif arr.ndim != 2 or arr.shape[1] != params.obs_dim:
        raise ValidationError("observation batch has the wrong width")
    return arr


def forward_batch(
    params: PolicyParameters, obs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(means, sigmas, values) for a batch of observations, row-exact.

    Row k equals the one-row forward of ``obs[k]`` byte for byte, so an
    episode's actions do not depend on how many episodes share the batch.
    A ``(B, n) @ W`` product does not give that: it runs a matrix-matrix BLAS
    kernel, which sums in another order than the one-row product, so its rows
    differ in the last bits. The stacked form ``obs[:, None, :] @ W`` runs the
    one-row product once per row instead.
    """
    stacked = np.atleast_2d(_check_obs(params, obs))[:, None, :]
    means = params.actor.forward(stacked)[0][:, 0]
    values = params.critic.forward(stacked)[0][:, 0, 0]
    sigma = np.exp(params.log_sigma)
    return means, np.broadcast_to(sigma, means.shape), values


def gaussian_logp(actions: np.ndarray, means: np.ndarray, log_sigma: np.ndarray) -> np.ndarray:
    """Log density of a diagonal Gaussian, summed over action dimensions."""
    actions = np.atleast_2d(actions)
    means = np.atleast_2d(means)
    sigma = np.exp(log_sigma)
    z = (actions - means) / sigma
    per_dim = -0.5 * _LOG2PI - log_sigma - 0.5 * z**2
    return per_dim.sum(axis=1)


def deterministic_action(params: PolicyParameters, obs: np.ndarray) -> np.ndarray:
    """Greedy action: the clipped actor mean; the critic is not evaluated.
    Rows of observations run row-exact, as in ``forward_batch``."""
    arr = _check_obs(params, obs)
    mean, _ = params.actor.forward(arr[..., None, :])
    return np.clip(mean[..., 0, :], 0.0, 1.0)


def entropy(params: PolicyParameters) -> float:
    """Entropy of the (state-independent) Gaussian head."""
    return float(np.sum(0.5 * (1.0 + _LOG2PI) + params.log_sigma))


# ----------------------------------------------------------------------------
# Gradient surface (shared by the PPO update and the finite-difference tests)


def actor_logp_and_grads(
    params: PolicyParameters,
    obs: np.ndarray,
    actions: np.ndarray,
    grad_logp: np.ndarray,
) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray], np.ndarray]:
    """Log-probs plus gradients of sum(grad_logp * logp).

    Returns (logps, actor weight grads, actor bias grads, log_sigma grad).
    """
    arr = np.atleast_2d(_check_obs(params, obs))
    actions = np.atleast_2d(np.asarray(actions, dtype=float))
    if actions.shape != (arr.shape[0], params.action_dim):
        raise ValidationError("action batch shape does not match policy output")
    coeff = np.asarray(grad_logp, dtype=float).reshape(-1)
    if coeff.shape[0] != arr.shape[0]:
        raise ValidationError("grad_logp must have one entry per observation")

    means, acts = params.actor.forward(arr)
    sigma = np.exp(params.log_sigma)
    diff = actions - means
    logps = gaussian_logp(actions, means, params.log_sigma)

    # d logp / d mean = diff / sigma^2; d logp / d log_sigma = diff^2/sigma^2 - 1
    grad_mean = coeff[:, None] * diff / sigma**2
    gw, gb = params.actor.backward(acts, grad_mean)
    grad_log_sigma = (coeff[:, None] * (diff**2 / sigma**2 - 1.0)).sum(axis=0)
    return logps, gw, gb, grad_log_sigma


# ----------------------------------------------------------------------------
# Checkpoints


def _mlp_to_dict(mlp: MLP) -> dict:
    return {
        "weights": [w.tolist() for w in mlp.weights],
        "biases": [b.tolist() for b in mlp.biases],
    }


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
    """Write a versioned, exactly-round-tripping checkpoint document."""
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "obs_dim": params.obs_dim,
        "action_dim": params.action_dim,
        "actor": _mlp_to_dict(params.actor),
        "log_sigma": params.log_sigma.tolist(),
        "critic": _mlp_to_dict(params.critic),
        "meta": meta or {},
    }
    Path(path).write_text(json.dumps(doc) + "\n")


def load_checkpoint(path: str | Path) -> tuple[PolicyParameters, dict]:
    try:
        doc = json.loads(Path(path).read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from None
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
