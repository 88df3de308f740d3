"""Rollout collection and clipped-surrogate policy optimization.

The PPO hyper-parameters are module constants. The discount ``GAMMA`` 0.99,
the GAE ``GAE_LAMBDA`` 0.95 and the surrogate clip ``CLIP_RATIO`` 0.2 are the
MuJoCo settings of Schulman et al., "Proximal Policy Optimization Algorithms"
(arXiv 1707.06347), and the entropy bonus ``ENTROPY_COEF`` 0.01 is its Atari
setting. The value-loss weight ``VALUE_COEF`` 0.5 and ``EPOCHS`` 4 shuffled
passes over ``MINIBATCH_SIZE`` 128 transitions are common PPO implementation
defaults. Training draws start levels up to ``START_OVERHANG`` 0.12 of each
band past its bounds, so the policy learns to recover. Only the step budget,
seed, batch size and learning rate vary, through ``TrainConfig``.

A batch's episodes run in lockstep as lanes of one ``run_day`` day in one
process: the actor and critic run once per decision for all lanes. Episodes
are seeded per (master seed, iteration, episode index), and each lane's
arithmetic is that of its episode stepped alone through ``PumpSchedulingEnv``,
so a batch is identical for any lane count. The optimizer state lives across
iterations, and updates never mutate parameter arrays in place.
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .env import AgentKind, _check_window, closed_loop, day_rewards, sample_episode
from .errors import NumericError, SchemaError, TrainingError, ValidationError
from .network import STEPS_PER_DAY, NetworkTopology
from .nn import Adam
from .policy import (
    PolicyParameters,
    actor_logp_and_grads,
    deterministic_action,
    entropy,
    forward_batch,
    gaussian_logp,
    init_policy,
)
from .simulate import run_day

GAMMA = 0.99
GAE_LAMBDA = 0.95
CLIP_RATIO = 0.2
MINIBATCH_SIZE = 128
EPOCHS = 4
VALUE_COEF = 0.5
ENTROPY_COEF = 0.01
START_OVERHANG = 0.12


@dataclass(frozen=True)
class TrainConfig:
    """What a training run varies: step budget, seed, batch and step size."""

    total_env_steps: int
    seed: int
    batch_size: int = 256
    learning_rate: float = 3e-4

    def validate(self) -> None:
        if self.total_env_steps < 0:
            raise ValidationError("total_env_steps must be >= 0")
        if self.batch_size < 1:
            raise ValidationError("batch_size must be >= 1")
        if not (np.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValidationError("learning_rate must be finite and >= 0")


@dataclass(frozen=True)
class EnvSpec:
    """The training episodes: network, agent and frame-skip window."""

    topology: NetworkTopology
    agent_kind: AgentKind = AgentKind.CONSTRAINT
    frame_skip: int = 1

    @property
    def decisions_per_episode(self) -> int:
        _check_window(self.frame_skip)
        return STEPS_PER_DAY // self.frame_skip

    @property
    def obs_dim(self) -> int:
        if self.agent_kind == AgentKind.CONSTRAINT:
            return self.topology.n_tanks
        return self.topology.n_tanks + 1 + STEPS_PER_DAY

    @property
    def action_dim(self) -> int:
        return self.topology.n_stations


@dataclass
class RolloutBatch:
    """Concatenated whole episodes plus per-episode totals."""

    observations: np.ndarray
    actions: np.ndarray
    log_probs: np.ndarray
    rewards: np.ndarray
    values: np.ndarray
    dones: np.ndarray
    episode_rewards: list[float] = field(default_factory=list)
    env_steps: int = 0

    def __len__(self) -> int:
        return self.observations.shape[0]


def _episode_seed(master_seed: int, iteration: int, episode_index: int):
    return np.random.SeedSequence(
        entropy=master_seed, spawn_key=(2, iteration, episode_index)
    )


def _sample_lanes(
    means: np.ndarray, params: PolicyParameters, rngs: list[np.random.Generator]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw one action per lane, lane k from ``rngs[k]``.

    Returns the raw samples, the clipped executable samples and the log-probs
    of the raw samples. The surrogate ratio needs the action the log-prob was
    computed for, which is the raw sample; only the executed action is clipped.
    """
    noise = np.array([rng.standard_normal(means.shape[1]) for rng in rngs])
    raw = means + np.exp(params.log_sigma) * noise
    return raw, np.clip(raw, 0.0, 1.0), gaussian_logp(raw, means, params.log_sigma)


def _collect_lanes(
    spec: EnvSpec,
    params: PolicyParameters,
    cfg: TrainConfig,
    iteration: int,
    episodes: range,
) -> tuple[np.ndarray, ...]:
    """Roll the listed episodes of one iteration in lockstep, as lanes of a day.

    Returns observations, raw actions, log-probs, rewards and values, each
    with one leading row per episode and one column per decision.
    """
    levels, demands, act_rngs = [], [], []
    for idx in episodes:
        cfg_ss, act_ss = _episode_seed(cfg.seed, iteration, idx).spawn(2)
        rng = np.random.default_rng(cfg_ss)
        config = sample_episode(spec.topology, rng, START_OVERHANG)
        levels.append(config.initial_levels)
        demands.append(config.demands.as_array())
        act_rngs.append(np.random.default_rng(act_ss))

    lanes, n = len(act_rngs), spec.decisions_per_episode
    observations = np.empty((lanes, n, spec.obs_dim))
    actions = np.empty((lanes, n, spec.action_dim))
    log_probs, values = np.empty((2, lanes, n))
    decisions = iter(range(n))

    def act_fn(obs: np.ndarray) -> np.ndarray:
        i = next(decisions)
        means, _, values[:, i] = forward_batch(params, obs)
        actions[:, i], executed, log_probs[:, i] = _sample_lanes(
            means, params, act_rngs
        )
        observations[:, i] = obs
        return executed

    window = spec.frame_skip
    tariff = spec.topology.tariff.as_array()
    act = closed_loop(spec.topology, spec.agent_kind, act_fn, window)
    day = run_day(spec.topology, np.array(levels), np.array(demands), tariff, act)
    # A decision earns its window's step rewards added in step order, as
    # FrameSkipEnv adds them; numpy's pairwise sum of 8 or more would differ.
    per_step = day_rewards(spec.topology, spec.agent_kind, day)
    rewards = per_step[::window]
    for j in range(1, window):
        rewards = rewards + per_step[j::window]
    return observations, actions, log_probs, np.ascontiguousarray(rewards.T), values


def collect_rollouts(
    spec: EnvSpec,
    params: PolicyParameters,
    cfg: TrainConfig,
    iteration: int = 0,
) -> RolloutBatch:
    """Collect whole episodes until at least ``batch_size`` transitions exist."""
    n = spec.decisions_per_episode
    n_episodes = -(-cfg.batch_size // n)  # ceil
    try:
        obs, actions, log_probs, rewards, values = _collect_lanes(
            spec, params, cfg, iteration, range(n_episodes)
        )
    except (NumericError, ValidationError) as exc:  # non-finite actions or levels
        raise TrainingError(f"rollout failed: {exc}") from exc

    dones = np.zeros((n_episodes, n))
    dones[:, -1] = 1.0
    return RolloutBatch(
        observations=obs.reshape(-1, spec.obs_dim),
        actions=actions.reshape(-1, spec.action_dim),
        log_probs=log_probs.reshape(-1),
        rewards=rewards.reshape(-1),
        values=values.reshape(-1),
        dones=dones.reshape(-1),
        episode_rewards=[float(r.sum()) for r in rewards],
        env_steps=n_episodes * STEPS_PER_DAY,
    )


def compute_gae(
    rewards: np.ndarray,
    values: np.ndarray,
    dones: np.ndarray,
    gamma: float,
    lam: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Generalized advantage estimates and value targets.

    ``dones[t] == 1`` marks the step whose successor state is terminal;
    the batch may concatenate several episodes back to back.
    """
    rewards = np.asarray(rewards, dtype=float)
    values = np.asarray(values, dtype=float)
    dones = np.asarray(dones, dtype=float)
    if not (rewards.shape == values.shape == dones.shape):
        raise ValidationError("rewards, values, dones must share a shape")
    n = rewards.shape[0]
    advantages = np.zeros(n)
    last_adv = 0.0
    for t in range(n - 1, -1, -1):
        nonterminal = 1.0 - dones[t]
        next_value = values[t + 1] if t + 1 < n else 0.0
        delta = rewards[t] + gamma * next_value * nonterminal - values[t]
        last_adv = delta + gamma * lam * nonterminal * last_adv
        advantages[t] = last_adv
    returns = advantages + values
    return advantages, returns


def make_optimizer(params: PolicyParameters, cfg: TrainConfig) -> Adam:
    return Adam([a.shape for a in params.arrays()], lr=cfg.learning_rate)


def ppo_update(
    params: PolicyParameters,
    batch: RolloutBatch,
    optimizer: Adam,
    shuffle_rng: np.random.Generator,
) -> tuple[PolicyParameters, dict]:
    """Run ``EPOCHS`` shuffled-minibatch clipped-surrogate passes.

    Advantages are normalized to zero mean / unit variance over the whole
    batch before any epoch runs. The reported stats are recomputed on the
    full batch with the final parameters.
    """
    if len(batch) == 0:
        raise ValidationError("cannot update from an empty batch")

    advantages, returns = compute_gae(
        batch.rewards, batch.values, batch.dones, GAMMA, GAE_LAMBDA
    )
    adv_std = advantages.std()
    norm_adv = (advantages - advantages.mean()) / (adv_std + 1e-8)

    n = len(batch)
    mb = min(MINIBATCH_SIZE, n)
    current = params
    # Overflow shows up as the non-finite gradient or loss checked below, so
    # numpy's warnings would only repeat that error.
    with np.errstate(all="ignore"):
        for _ in range(EPOCHS):
            order = shuffle_rng.permutation(n)
            for start in range(0, n, mb):
                idx = order[start : start + mb]
                current = _minibatch_step(
                    current, batch, norm_adv, returns, idx, optimizer
                )
        stats = _batch_stats(current, batch, norm_adv, returns)
    if not np.isfinite(stats["total_loss"]):
        raise NumericError(
            "non-finite loss during update: "
            f"policy={stats['policy_loss']!r} value={stats['value_loss']!r}"
        )
    return current, stats


def _minibatch_step(params, batch, norm_adv, returns, idx, optimizer):
    obs = batch.observations[idx]
    actions = batch.actions[idx]
    old_logps = batch.log_probs[idx]
    m = len(idx)

    logps, actor_gw, actor_gb, grad_log_sigma = _policy_gradients(
        params, obs, actions, old_logps, norm_adv[idx], m
    )
    critic_gw, critic_gb = _value_gradients(params, obs, returns[idx], m)
    grads = actor_gw + actor_gb + [grad_log_sigma] + critic_gw + critic_gb
    if any(not np.all(np.isfinite(g)) for g in grads):
        raise NumericError("non-finite gradient during update")
    new_arrays = optimizer.step(params.arrays(), grads)
    return params.replace_arrays(new_arrays)


def _policy_gradients(params, obs, actions, old_logps, norm_adv, m):
    """Gradient of the clipped surrogate plus entropy bonus w.r.t. the actor."""
    means, _ = params.actor.forward(obs)
    logps = gaussian_logp(actions, means, params.log_sigma)
    ratio = np.exp(logps - old_logps)
    surr1 = ratio * norm_adv
    surr2 = np.clip(ratio, 1 - CLIP_RATIO, 1 + CLIP_RATIO) * norm_adv
    # The loss is -mean(min(surr1, surr2)); gradient flows only where the
    # unclipped branch is active (inside the band both branches agree).
    use_unclipped = surr1 <= surr2
    dloss_dlogp = np.where(use_unclipped, -norm_adv * ratio, 0.0) / m
    _, gw, gb, grad_log_sigma = actor_logp_and_grads(
        params, obs, actions, dloss_dlogp
    )
    # Entropy bonus: d(-coef * H)/d log_sigma = -coef per dimension.
    grad_log_sigma = grad_log_sigma - ENTROPY_COEF
    return logps, gw, gb, grad_log_sigma


def _value_gradients(params, obs, returns, m):
    """Gradient of VALUE_COEF * mean((v - R)^2) w.r.t. the critic."""
    out, acts = params.critic.forward(obs)
    values = out[:, 0]
    dloss_dv = VALUE_COEF * 2.0 * (values - returns) / m
    gw, gb = params.critic.backward(acts, dloss_dv[:, None])
    return gw, gb


def _batch_stats(params, batch, norm_adv, returns):
    """Full-batch diagnostics with the given (post-update) parameters."""
    means, _ = params.actor.forward(batch.observations)
    logps = gaussian_logp(batch.actions, means, params.log_sigma)
    out, _ = params.critic.forward(batch.observations)
    values = out[:, 0]
    ratio = np.exp(logps - batch.log_probs)
    surr1 = ratio * norm_adv
    surr2 = np.clip(ratio, 1 - CLIP_RATIO, 1 + CLIP_RATIO) * norm_adv
    policy_loss = -float(np.minimum(surr1, surr2).mean())
    value_loss = float(np.mean((values - returns) ** 2))
    ent = entropy(params)
    return {
        "policy_loss": policy_loss,
        "value_loss": value_loss,
        "entropy": ent,
        "total_loss": policy_loss + VALUE_COEF * value_loss - ENTROPY_COEF * ent,
        "clip_fraction": float(np.mean(np.abs(ratio - 1.0) > CLIP_RATIO)),
        "approx_kl": float(np.mean(batch.log_probs - logps)),
    }


@dataclass
class TrainResult:
    params: PolicyParameters
    curve: list[tuple[int, float]]
    stats: dict


def train(spec: EnvSpec, cfg: TrainConfig) -> TrainResult:
    """Alternate rollout collection and updates until the step budget is spent.

    The reward curve holds one point per iteration: cumulative environment
    steps and the mean total episode reward of that iteration's batch.
    """
    cfg.validate()
    init_rng = np.random.default_rng(
        np.random.SeedSequence(entropy=cfg.seed, spawn_key=(3,))
    )
    params = init_policy(spec.obs_dim, spec.action_dim, init_rng)
    optimizer = make_optimizer(params, cfg)
    curve: list[tuple[int, float]] = []
    stats: dict = {}

    steps_done = 0
    iteration = 0
    while steps_done < cfg.total_env_steps:
        batch = collect_rollouts(spec, params, cfg, iteration)
        steps_done += batch.env_steps
        curve.append((steps_done, float(np.mean(batch.episode_rewards))))
        shuffle_rng = np.random.default_rng(
            np.random.SeedSequence(entropy=cfg.seed, spawn_key=(6, iteration))
        )
        params, stats = ppo_update(params, batch, optimizer, shuffle_rng)
        iteration += 1
    return TrainResult(params=params, curve=curve, stats=stats)


def save_reward_curve(curve: list[tuple[int, float]], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["steps", "mean_reward"])
        for steps, reward in curve:
            writer.writerow([steps, repr(float(reward))])


def load_reward_curve(path: str | Path) -> list[tuple[int, float]]:
    curve = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["steps", "mean_reward"]:
            raise ValidationError(f"{path}: unexpected reward curve header")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 2:
                raise SchemaError(f"{path} row {lineno}: expected 2 columns")
            try:
                curve.append((int(row[0]), float(row[1])))
            except ValueError as exc:
                raise SchemaError(f"{path} row {lineno}: {exc}") from None
    return curve


def policy_act_fn(params: PolicyParameters):
    """Deterministic action function (clipped actor mean) for evaluation."""
    return functools.partial(deterministic_action, params)
