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
process: only the actor runs in the closed loop, once per decision for all
lanes. The critic's values and the samples' log-probs are read by the update
alone, so they are worked out after the day, over the whole grid. Episodes
are seeded per (master seed, iteration, episode index), and each lane's
arithmetic is that of its episode rolled alone by ``run_day`` (the tests'
lockstep oracle, ``PumpSchedulingEnv``, steps it alone as well), so a batch
is identical for any lane count. A batch keeps the lanes' grid,
episodes by decisions; only the update flattens it, to draw minibatches. Each
update copies the policy's one parameter vector once, and Adam steps the copy
in place; Adam's moments live across iterations. The update's other working
arrays, the batch's shuffled columns, a gradient vector laid out like the
parameters and each network's activation and backprop buffers for one
minibatch, live for one update: they are allocated when it starts, and every
epoch or minibatch reuses them. ``_minibatch_gradient`` is the one place the
loss and its gradient are taken, and the update's stats come from its terms.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .env import AgentKind, _check_window, closed_loop, day_rewards, sample_episode
from .errors import NumericError, TrainingError, ValidationError
from .network import STEPS_PER_DAY, NetworkTopology, _seed_stream
from .nn import MLP, Adam
from .policy import (
    PolicyParameters,
    entropy,
    forward_rows,
    gaussian_logp,
    gaussian_logp_grads,
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

    def __post_init__(self):
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

    def __post_init__(self):
        _check_window(self.frame_skip)

    @property
    def decisions_per_episode(self) -> int:
        return STEPS_PER_DAY // self.frame_skip

    @property
    def obs_dim(self) -> int:
        """The agent's observation width, ``AgentKind.obs_dim``."""
        return self.agent_kind.obs_dim(self.topology.n_tanks)

    @property
    def action_dim(self) -> int:
        return self.topology.n_stations


@dataclass
class RolloutBatch:
    """Whole episodes on their grid: row k is episode k, column i its decision
    i, and observations and actions add a feature axis. Every row ends its
    episode, so the grid marks every episode boundary. ``log_probs`` and
    ``values`` are the acting policy's, worked out from the grid once the
    episodes have ended."""

    observations: np.ndarray  # (episodes, decisions, obs_dim)
    actions: np.ndarray  # (episodes, decisions, action_dim), raw samples
    log_probs: np.ndarray  # (episodes, decisions)
    rewards: np.ndarray  # (episodes, decisions)
    values: np.ndarray  # (episodes, decisions)
    env_steps: int = 0

    def __len__(self) -> int:
        return self.rewards.size


def _collect_lanes(
    spec: EnvSpec,
    params: PolicyParameters,
    cfg: TrainConfig,
    iteration: int,
    episodes: range,
) -> tuple[np.ndarray, ...]:
    """Roll the listed episodes of one iteration in lockstep, as lanes of a day.

    Returns observations, raw actions, log-probs, rewards and values, each
    with one leading row per episode and one column per decision. A lane's
    day of noise is one draw, equal to a draw per decision bit for bit.

    Each decision runs only the actor: the raw sample is its mean plus sigma
    times the noise, and the lanes execute the sample clipped into [0, 1].
    The log-probs of the raw samples then come from one ``gaussian_logp`` over
    the grid, and the values from one row-exact critic forward per episode
    row (``forward_rows``). Both equal byte for byte what a pass per decision
    gives, and the critic holds one row's activations at a time.
    A batch too large to allocate raises ``ValidationError``; a rollout that
    fails on non-finite actions or levels raises ``TrainingError``.
    """
    lanes, n = len(episodes), spec.decisions_per_episode
    try:
        noise = np.empty((n, lanes, spec.action_dim))
        observations = np.empty((lanes, n, spec.obs_dim))
        actions, means = np.empty((2, lanes, n, spec.action_dim))
    except (ValueError, MemoryError):  # refused before any episode runs
        raise ValidationError(f"a batch of {lanes} episodes is too large") from None
    levels, demands = [], []
    for k, idx in enumerate(episodes):
        stream = _seed_stream(cfg.seed, "train_episode", iteration, idx)
        cfg_ss, act_ss = stream.spawn(2)
        rng = np.random.default_rng(cfg_ss)
        start, day_demands = sample_episode(spec.topology, rng, START_OVERHANG)
        levels.append(start)
        demands.append(day_demands)
        act_rng = np.random.default_rng(act_ss)
        noise[:, k] = act_rng.standard_normal((n, spec.action_dim))
    noise *= np.exp(params.log_sigma)  # sigma times the noise, per decision
    decisions = iter(range(n))

    def act_fn(obs: np.ndarray) -> np.ndarray:
        i = next(decisions)
        means[:, i] = mean = forward_rows(params.actor, obs)
        actions[:, i] = raw = mean + noise[i]
        observations[:, i] = obs
        return np.minimum(np.maximum(raw, 0.0), 1.0)  # np.clip's bytes

    window = spec.frame_skip
    act = closed_loop(spec.topology, spec.agent_kind, act_fn, window)
    try:
        day = run_day(spec.topology, np.array(levels), np.array(demands), act)
    except (NumericError, ValidationError) as exc:  # non-finite actions or levels
        raise TrainingError(f"rollout failed: {exc}") from exc
    # A decision earns its window's step rewards added one by one in step
    # order, as stepping the env would; numpy's pairwise sum of 8 or more
    # would differ in the last bits.
    per_step = day_rewards(spec.topology, spec.agent_kind, day)
    rewards = per_step[::window]
    for j in range(1, window):
        rewards = rewards + per_step[j::window]
    log_probs = gaussian_logp(actions, means, params.log_sigma)
    values = np.array([forward_rows(params.critic, row)[:, 0] for row in observations])
    return observations, actions, log_probs, np.ascontiguousarray(rewards.T), values


def collect_rollouts(
    spec: EnvSpec,
    params: PolicyParameters,
    cfg: TrainConfig,
    iteration: int = 0,
) -> RolloutBatch:
    """Collect whole episodes until at least ``batch_size`` transitions exist."""
    n_episodes = -(-cfg.batch_size // spec.decisions_per_episode)  # ceil
    grids = _collect_lanes(spec, params, cfg, iteration, range(n_episodes))
    return RolloutBatch(*grids, env_steps=n_episodes * STEPS_PER_DAY)


def compute_gae(
    rewards: np.ndarray, values: np.ndarray, gamma: float, lam: float
) -> tuple[np.ndarray, np.ndarray]:
    """Generalized advantage estimates and value targets (Schulman et al.,
    arXiv 1506.02438) of whole episodes: decisions along the last axis, one
    episode per row of the leading axes. Each episode ends after its last
    decision, so that decision has no successor value.
    """
    rewards = np.asarray(rewards, dtype=float)
    values = np.asarray(values, dtype=float)
    if rewards.shape != values.shape:
        raise ValidationError("rewards and values must share a shape")
    advantages = np.empty_like(rewards)
    last_adv = next_value = np.zeros(rewards.shape[:-1])
    for t in range(rewards.shape[-1] - 1, -1, -1):
        delta = rewards[..., t] + gamma * next_value - values[..., t]
        last_adv = advantages[..., t] = delta + gamma * lam * last_adv
        next_value = values[..., t]
    return advantages, advantages + values


def ppo_update(
    params: PolicyParameters,
    batch: RolloutBatch,
    optimizer: Adam,
    shuffle_rng: np.random.Generator,
) -> tuple[PolicyParameters, dict]:
    """Run ``EPOCHS`` shuffled-minibatch clipped-surrogate passes.

    Advantages are normalized to zero mean / unit variance over the whole
    batch before any epoch runs. Adam steps one copy of the policy's vector in
    place, so ``params`` is left as it was. Each epoch gathers the batch once
    in its shuffled order, and its minibatches are consecutive slices of that
    gather.

    The call allocates its working arrays once and frees them on return:
    the five shuffled columns, which every epoch gathers into anew; one flat
    gradient, laid out like ``params`` (``dataclasses.replace(params,
    vector=grad)``), that every minibatch overwrites; and each network's
    activation and backprop buffers for a full minibatch, of which a short
    last minibatch uses the leading rows.

    Each minibatch takes its loss and gradient from one ``_minibatch_gradient``
    call, then one Adam step. The reported ``policy_loss``, ``value_loss``,
    ``clip_fraction`` and ``approx_kl`` are means over the last epoch's
    transitions, summed from that call's terms, so each is taken with the
    parameters its minibatch stepped from; the ``entropy`` is the returned
    policy's. A non-finite ``total_loss`` raises ``NumericError``.
    """
    n = len(batch)
    if n == 0:
        raise ValidationError("cannot update from an empty batch")

    advantages, returns = compute_gae(batch.rewards, batch.values, GAMMA, GAE_LAMBDA)
    # A minibatch draws transitions from anywhere in the grid: one row each.
    grids = batch.observations, batch.actions, batch.log_probs, advantages, returns
    obs, actions, old_logps, adv, returns = (g.reshape(n, *g.shape[2:]) for g in grids)

    mb = min(MINIBATCH_SIZE, n)
    current = replace(params, vector=params.vector.copy())
    grads = replace(params, vector=np.empty_like(params.vector))
    buffers = [_buffers(net, mb) for net in (params.actor, params.critic)]
    tail = [_leading_rows(b, n % mb) for b in buffers]  # a short last minibatch's
    # Overflow shows up as the non-finite gradient or loss checked below, so
    # numpy's warnings would only repeat that error.
    with np.errstate(all="ignore"):
        norm_adv = (adv - adv.mean()) / (adv.std() + 1e-8)
        columns = obs, actions, old_logps, norm_adv, returns
        shuffled = [np.empty_like(column) for column in columns]
        sums = np.zeros(4)
        for epoch in range(EPOCHS):
            order = shuffle_rng.permutation(n)
            for column, gathered in zip(columns, shuffled):
                # order is a permutation, so "clip" clips nothing; it spares
                # the copy through a temporary that "raise" makes of ``out``.
                np.take(column, order, axis=0, out=gathered, mode="clip")
            for start in range(0, n, mb):
                minibatch = [column[start : start + mb] for column in shuffled]
                work = buffers if start + mb <= n else tail
                logps, ratio, surr1, surr2, errors = _minibatch_gradient(
                    current, grads, work, *minibatch
                )
                optimizer.step(current.vector, grads.vector)
                if epoch == EPOCHS - 1:
                    sums += (
                        np.minimum(surr1, surr2).sum(),
                        errors @ errors,
                        np.count_nonzero(np.abs(ratio - 1.0) > CLIP_RATIO),
                        (minibatch[2] - logps).sum(),  # old_logps - logps
                    )
        min_surrogate, value_loss, clip_fraction, approx_kl = (sums / n).tolist()
    policy_loss, ent = -min_surrogate, entropy(current)
    stats = {
        "policy_loss": policy_loss,
        "value_loss": value_loss,
        "entropy": ent,
        "total_loss": policy_loss + VALUE_COEF * value_loss - ENTROPY_COEF * ent,
        "clip_fraction": clip_fraction,
        "approx_kl": approx_kl,
    }
    if not np.isfinite(stats["total_loss"]):
        raise NumericError(
            "non-finite loss during update: "
            f"policy={stats['policy_loss']!r} value={stats['value_loss']!r}"
        )
    return current, stats


def _buffers(net: MLP, rows: int) -> tuple[list, list]:
    """``net``'s activation buffers and backprop scratch for ``rows`` rows
    (``MLP.forward``, ``MLP.backward``)."""
    widths = net.sizes[1:]
    acts = [np.empty((rows, w)) for w in widths]
    return acts, [np.empty((2, rows, w)) for w in widths[:-1]]


def _leading_rows(buffers: tuple[list, list], rows: int) -> tuple[list, list]:
    """Views of the first ``rows`` rows of ``_buffers``' arrays."""
    acts, scratch = buffers
    return [a[:rows] for a in acts], [s[:, :rows] for s in scratch]


def _surrogate(logps, old_logps, norm_adv):
    """The probability ratio and the unclipped and clipped surrogate terms;
    the PPO policy loss is -mean(min(surr1, surr2))."""
    ratio = np.exp(logps - old_logps)
    surr1 = ratio * norm_adv
    clipped = np.minimum(np.maximum(ratio, 1 - CLIP_RATIO), 1 + CLIP_RATIO)
    surr2 = clipped * norm_adv  # clipped: np.clip's bytes, faster
    return ratio, surr1, surr2


def _minibatch_gradient(
    params, grads, buffers, obs, actions, old_logps, norm_adv, returns
):
    """The gradient of one minibatch's PPO loss (Schulman et al., eq. 9),
    -mean(min(surr1, surr2)) - ENTROPY_COEF * H + VALUE_COEF * mean((v - R)^2),
    written into ``grads``, laid out like ``params``.

    The actor and the critic each run forward once, into their ``buffers``
    (``_buffers``, sized for the minibatch's rows), and ``_surrogate`` runs
    once. Returns the log-probs, the ratio, both surrogate terms and the value
    errors v - R.
    """
    m = len(obs)
    (actor_acts, actor_scratch), (critic_acts, critic_scratch) = buffers
    means, acts = params.actor.forward(obs, actor_acts)
    logps = gaussian_logp(actions, means, params.log_sigma)
    ratio, surr1, surr2 = _surrogate(logps, old_logps, norm_adv)
    # Gradient flows only where the unclipped branch is the minimum (inside
    # the band both branches agree).
    coeff = np.where(surr1 <= surr2, -norm_adv * ratio, 0.0) / m
    g_means, g_log_sigma = gaussian_logp_grads(actions, means, params.log_sigma, coeff)
    out = grads.actor.weights, grads.actor.biases
    params.actor.backward(acts, g_means, out, actor_scratch)
    # Entropy bonus: d(-coef * H)/d log_sigma = -coef per dimension.
    np.subtract(g_log_sigma, ENTROPY_COEF, out=grads.log_sigma)

    values, acts = params.critic.forward(obs, critic_acts)
    errors = values[:, 0] - returns
    dloss_dv = VALUE_COEF * 2.0 * errors / m
    out = grads.critic.weights, grads.critic.biases
    params.critic.backward(acts, dloss_dv[:, None], out, critic_scratch)
    return logps, ratio, surr1, surr2, errors


@dataclass
class TrainResult:
    """The trained policy, its reward curve, the last update's stats (means
    over that update's last epoch of minibatches, see ``ppo_update``), and
    the wall-clock seconds spent collecting rollouts and updating, summed
    over iterations."""

    params: PolicyParameters
    curve: list[tuple[int, float]]
    stats: dict
    collect_seconds: float
    update_seconds: float


def train(spec: EnvSpec, cfg: TrainConfig) -> TrainResult:
    """Alternate rollout collection and updates until the step budget is spent.

    The reward curve holds one point per iteration: cumulative environment
    steps and the mean total episode reward of that iteration's batch.
    """
    init_rng = np.random.default_rng(_seed_stream(cfg.seed, "policy_init"))
    params = init_policy(spec.obs_dim, spec.action_dim, init_rng)
    optimizer = Adam(params.vector.size, cfg.learning_rate)
    curve: list[tuple[int, float]] = []
    stats: dict = {}
    collect_s = update_s = 0.0

    steps_done = 0
    iteration = 0
    while steps_done < cfg.total_env_steps:
        started = time.perf_counter()
        batch = collect_rollouts(spec, params, cfg, iteration)
        collect_s += time.perf_counter() - started
        steps_done += batch.env_steps
        curve.append((steps_done, float(np.mean(batch.rewards.sum(axis=1)))))
        shuffle_rng = np.random.default_rng(
            _seed_stream(cfg.seed, "ppo_shuffle", iteration)
        )
        started = time.perf_counter()
        params, stats = ppo_update(params, batch, optimizer, shuffle_rng)
        update_s += time.perf_counter() - started
        iteration += 1
    return TrainResult(params, curve, stats, collect_s, update_s)
