"""Rollout collection and clipped-surrogate policy optimization.

Episodes are seeded per (master seed, iteration, episode index), so a
collected batch is identical for any worker count; workers only change how the
episode list is executed. The optimizer state lives across iterations, and
updates never mutate parameter arrays in place.
"""

from __future__ import annotations

import csv
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .env import AgentKind, FrameSkipEnv, PumpSchedulingEnv, sample_episode
from .errors import NumericError, SchemaError, TrainingError, ValidationError
from .network import STEPS_PER_DAY, NetworkTopology
from .nn import Adam
from .policy import (
    PolicyParameters,
    actor_logp_and_grads,
    entropy,
    forward_batch,
    gaussian_logp,
    init_policy,
)

@dataclass(frozen=True)
class TrainConfig:
    """Hyper-parameters for the clipped-surrogate trainer."""

    total_env_steps: int
    seed: int
    gamma: float = 0.99
    gae_lambda: float = 0.95
    clip_ratio: float = 0.2
    batch_size: int = 256
    minibatch_size: int = 128
    epochs: int = 4
    learning_rate: float = 3e-4
    value_coef: float = 0.5
    entropy_coef: float = 0.01
    start_overhang: float = 0.12
    workers: int = 1

    def validate(self) -> None:
        if self.total_env_steps < 0:
            raise ValidationError("total_env_steps must be >= 0")
        if not (0 < self.gamma <= 1) or not (0 <= self.gae_lambda <= 1):
            raise ValidationError("gamma must be in (0, 1], lambda in [0, 1]")
        if self.clip_ratio <= 0:
            raise ValidationError("clip_ratio must be > 0")
        if self.batch_size < 1 or self.epochs < 1 or self.workers < 1:
            raise ValidationError("batch_size, epochs, workers must be >= 1")
        if self.minibatch_size < 1:
            raise ValidationError("minibatch_size must be >= 1")
        if self.learning_rate < 0:
            raise ValidationError("learning_rate must be >= 0")
        if self.start_overhang < 0:
            raise ValidationError("start_overhang must be >= 0")


@dataclass(frozen=True)
class EnvSpec:
    """Picklable recipe for building identical training environments."""

    topology: NetworkTopology
    agent_kind: AgentKind = AgentKind.CONSTRAINT
    frame_skip: int | None = None

    def build(self) -> PumpSchedulingEnv | FrameSkipEnv:
        env = PumpSchedulingEnv(self.topology)
        if self.frame_skip is not None and self.frame_skip > 1:
            return FrameSkipEnv(env, self.frame_skip)
        return env

    @property
    def decisions_per_episode(self) -> int:
        window = self.frame_skip or 1
        if STEPS_PER_DAY % window != 0:
            raise ValidationError(f"frame_skip must divide {STEPS_PER_DAY}")
        return STEPS_PER_DAY // window

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


def _run_episode(args) -> dict:
    spec, params, master_seed, iteration, episode_index, start_overhang = args
    ss = _episode_seed(master_seed, iteration, episode_index)
    cfg_ss, act_ss = ss.spawn(2)
    env_rng = np.random.default_rng(cfg_ss)
    act_rng = np.random.default_rng(act_ss)

    env = spec.build()
    config = sample_episode(
        spec.topology,
        env_rng,
        spec.agent_kind,
        spec.frame_skip,
        start_overhang=start_overhang,
    )
    obs = env.reset(config)

    n = spec.decisions_per_episode
    observations = np.empty((n, spec.obs_dim))
    actions = np.empty((n, spec.action_dim))
    log_probs = np.empty(n)
    rewards = np.empty(n)
    values = np.empty(n)
    dones = np.zeros(n)
    for i in range(n):
        means, _, vals = forward_batch(params, obs[None, :])
        raw, executed, logp = _sample_from(means[0], params, act_rng)
        result = env.step(executed)
        observations[i] = obs
        # The surrogate ratio needs the action the log-prob was computed for,
        # which is the raw sample; only the executed action is clipped.
        actions[i] = raw
        log_probs[i] = logp
        rewards[i] = result.reward
        values[i] = vals[0]
        obs = result.observation
        if result.done:
            dones[i] = 1.0
            if i != n - 1:
                raise TrainingError("episode terminated before its decision budget")
    return {
        "observations": observations,
        "actions": actions,
        "log_probs": log_probs,
        "rewards": rewards,
        "values": values,
        "dones": dones,
        "total_reward": float(rewards.sum()),
    }


def _sample_from(
    mean: np.ndarray, params: PolicyParameters, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, float]:
    """Draw one action: (raw sample, clipped executable sample, raw log-prob)."""
    sigma = np.exp(params.log_sigma)
    raw = mean + sigma * rng.standard_normal(mean.shape[0])
    logp = float(gaussian_logp(raw, mean, params.log_sigma)[0])
    return raw, np.clip(raw, 0.0, 1.0), logp


def collect_rollouts(
    spec: EnvSpec,
    params: PolicyParameters,
    cfg: TrainConfig,
    iteration: int = 0,
    pool: ProcessPoolExecutor | None = None,
) -> RolloutBatch:
    """Collect whole episodes until at least ``batch_size`` transitions exist."""
    per_episode = spec.decisions_per_episode
    n_episodes = -(-cfg.batch_size // per_episode)  # ceil
    tasks = [
        (spec, params, cfg.seed, iteration, idx, cfg.start_overhang)
        for idx in range(n_episodes)
    ]
    try:
        if pool is None:
            episodes = [_run_episode(t) for t in tasks]
        else:
            episodes = list(pool.map(_run_episode, tasks))
    except TrainingError:
        raise
    except Exception as exc:  # worker crash, pickle failure, etc.
        raise TrainingError(f"rollout worker failed: {exc}") from exc

    return RolloutBatch(
        observations=np.concatenate([e["observations"] for e in episodes]),
        actions=np.concatenate([e["actions"] for e in episodes]),
        log_probs=np.concatenate([e["log_probs"] for e in episodes]),
        rewards=np.concatenate([e["rewards"] for e in episodes]),
        values=np.concatenate([e["values"] for e in episodes]),
        dones=np.concatenate([e["dones"] for e in episodes]),
        episode_rewards=[e["total_reward"] for e in episodes],
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
    cfg: TrainConfig,
    optimizer: Adam | None = None,
    shuffle_rng: np.random.Generator | None = None,
) -> tuple[PolicyParameters, dict]:
    """Run ``epochs`` shuffled-minibatch clipped-surrogate passes.

    Advantages are normalized to zero mean / unit variance over the whole
    batch before any epoch runs. The reported stats are recomputed on the
    full batch with the final parameters.
    """
    cfg.validate()
    if len(batch) == 0:
        raise ValidationError("cannot update from an empty batch")
    if optimizer is None:
        optimizer = make_optimizer(params, cfg)
    if shuffle_rng is None:
        shuffle_rng = np.random.default_rng(
            np.random.SeedSequence(entropy=cfg.seed, spawn_key=(6, 0))
        )

    advantages, returns = compute_gae(
        batch.rewards, batch.values, batch.dones, cfg.gamma, cfg.gae_lambda
    )
    adv_std = advantages.std()
    norm_adv = (advantages - advantages.mean()) / (adv_std + 1e-8)

    n = len(batch)
    mb = min(cfg.minibatch_size, n)
    current = params
    for _ in range(cfg.epochs):
        order = shuffle_rng.permutation(n)
        for start in range(0, n, mb):
            idx = order[start : start + mb]
            current = _minibatch_step(
                current, batch, norm_adv, returns, idx, cfg, optimizer
            )

    logps, values, stats = _batch_stats(current, batch, norm_adv, returns, cfg)
    if not np.isfinite(stats["total_loss"]):
        raise NumericError(
            "non-finite loss during update: "
            f"policy={stats['policy_loss']!r} value={stats['value_loss']!r}"
        )
    return current, stats


def _minibatch_step(params, batch, norm_adv, returns, idx, cfg, optimizer):
    obs = batch.observations[idx]
    actions = batch.actions[idx]
    old_logps = batch.log_probs[idx]
    m = len(idx)

    logps, actor_gw, actor_gb, grad_log_sigma = _policy_gradients(
        params, obs, actions, old_logps, norm_adv[idx], cfg, m
    )
    critic_gw, critic_gb = _value_gradients(params, obs, returns[idx], cfg, m)
    grads = actor_gw + actor_gb + [grad_log_sigma] + critic_gw + critic_gb
    if any(not np.all(np.isfinite(g)) for g in grads):
        raise NumericError("non-finite gradient during update")
    new_arrays = optimizer.step(params.arrays(), grads)
    return params.replace_arrays(new_arrays)


def _policy_gradients(params, obs, actions, old_logps, norm_adv, cfg, m):
    """Gradient of the clipped surrogate plus entropy bonus w.r.t. the actor."""
    means, _ = params.actor.forward(obs)
    logps = gaussian_logp(actions, means, params.log_sigma)
    ratio = np.exp(logps - old_logps)
    surr1 = ratio * norm_adv
    surr2 = np.clip(ratio, 1 - cfg.clip_ratio, 1 + cfg.clip_ratio) * norm_adv
    # The loss is -mean(min(surr1, surr2)); gradient flows only where the
    # unclipped branch is active (inside the band both branches agree).
    use_unclipped = surr1 <= surr2
    dloss_dlogp = np.where(use_unclipped, -norm_adv * ratio, 0.0) / m
    _, gw, gb, grad_log_sigma = actor_logp_and_grads(
        params, obs, actions, dloss_dlogp
    )
    # Entropy bonus: d(-coef * H)/d log_sigma = -coef per dimension.
    grad_log_sigma = grad_log_sigma - cfg.entropy_coef
    return logps, gw, gb, grad_log_sigma


def _value_gradients(params, obs, returns, cfg, m):
    """Gradient of value_coef * mean((v - R)^2) w.r.t. the critic."""
    out, acts = params.critic.forward(obs)
    values = out[:, 0]
    dloss_dv = cfg.value_coef * 2.0 * (values - returns) / m
    gw, gb = params.critic.backward(acts, dloss_dv[:, None])
    return gw, gb


def _batch_stats(params, batch, norm_adv, returns, cfg):
    """Full-batch diagnostics with the given (post-update) parameters."""
    means, _ = params.actor.forward(batch.observations)
    logps = gaussian_logp(batch.actions, means, params.log_sigma)
    out, _ = params.critic.forward(batch.observations)
    values = out[:, 0]
    ratio = np.exp(logps - batch.log_probs)
    surr1 = ratio * norm_adv
    surr2 = np.clip(ratio, 1 - cfg.clip_ratio, 1 + cfg.clip_ratio) * norm_adv
    policy_loss = -float(np.minimum(surr1, surr2).mean())
    value_loss = float(np.mean((values - returns) ** 2))
    ent = entropy(params)
    stats = {
        "policy_loss": policy_loss,
        "value_loss": value_loss,
        "entropy": ent,
        "total_loss": policy_loss + cfg.value_coef * value_loss - cfg.entropy_coef * ent,
        "clip_fraction": float(np.mean(np.abs(ratio - 1.0) > cfg.clip_ratio)),
        "approx_kl": float(np.mean(batch.log_probs - logps)),
    }
    return logps, values, stats


@dataclass
class TrainResult:
    params: PolicyParameters
    curve: list[tuple[int, float]]
    stats: dict


def train(
    spec: EnvSpec,
    cfg: TrainConfig,
    out_dir: str | Path | None = None,
) -> TrainResult:
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

    pool: ProcessPoolExecutor | None = None
    try:
        if cfg.workers > 1:
            pool = ProcessPoolExecutor(max_workers=cfg.workers)
        steps_done = 0
        iteration = 0
        while steps_done < cfg.total_env_steps:
            batch = collect_rollouts(spec, params, cfg, iteration, pool)
            steps_done += batch.env_steps
            curve.append((steps_done, float(np.mean(batch.episode_rewards))))
            shuffle_rng = np.random.default_rng(
                np.random.SeedSequence(entropy=cfg.seed, spawn_key=(6, iteration))
            )
            params, stats = ppo_update(params, batch, cfg, optimizer, shuffle_rng)
            iteration += 1
    finally:
        if pool is not None:
            pool.shutdown()

    if out_dir is not None:
        save_reward_curve(curve, Path(out_dir) / "reward_curve.csv")
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
    from .policy import deterministic_action

    def act(obs: np.ndarray) -> np.ndarray:
        return deterministic_action(params, obs)

    return act
