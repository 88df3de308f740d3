import dataclasses

import numpy as np
import pytest

from pumpsched import (
    AgentKind,
    EnvSpec,
    NumericError,
    TrainConfig,
    TrainingError,
    ValidationError,
    policy_act_fn,
    train,
)
from pumpsched import training
from pumpsched.nn import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, MLP, Adam
from pumpsched.policy import deterministic_action, entropy, gaussian_logp, init_policy
from pumpsched.training import (
    CLIP_RATIO,
    ENTROPY_COEF,
    EPOCHS,
    GAE_LAMBDA,
    GAMMA,
    MINIBATCH_SIZE,
    VALUE_COEF,
    RolloutBatch,
    collect_rollouts,
    compute_gae,
    load_reward_curve,
    ppo_update,
    save_reward_curve,
    _buffers,
    _minibatch_gradient,
)
from pumpsched.network import STEPS_PER_DAY, _seed_stream


def _cfg(**overrides):
    base = dict(total_env_steps=0, seed=0, batch_size=96)
    base.update(overrides)
    return TrainConfig(**base)


def _update(params, batch, optimizer=None):
    """``ppo_update`` through ``optimizer`` (default: a fresh one at the
    default learning rate) and a fixed shuffle stream."""
    if optimizer is None:
        optimizer = Adam(params.vector.size, _cfg().learning_rate)
    return ppo_update(params, batch, optimizer, np.random.default_rng(0))


# -- generalized advantage estimation ------------------------------------------


def test_gae_two_step_worked_example():
    advantages, returns = compute_gae(
        rewards=np.array([[1.0, 1.0]]),
        values=np.array([[0.5, 0.5]]),
        gamma=0.99,
        lam=0.95,
    )
    # delta_1 = 1 + 0.99*0.5 - 0.5 = 0.995; delta_2 = 0.5;
    # A_1 = 0.995 + 0.99*0.95*0.5 = 1.46525.
    np.testing.assert_allclose(advantages, [[1.46525, 0.5]], atol=1e-12)
    np.testing.assert_allclose(returns, [[1.96525, 1.0]], atol=1e-12)


def test_gae_zero_lambda_is_one_step_td():
    rng = np.random.default_rng(0)
    rewards = rng.normal(size=(3, 10))
    values = rng.normal(size=(3, 10))
    advantages, _ = compute_gae(rewards, values, gamma=0.9, lam=0.0)
    expect = rewards.copy()
    expect[:, :-1] += 0.9 * values[:, 1:]
    expect -= values
    np.testing.assert_allclose(advantages, expect, atol=1e-12)


def _gae_over_a_stream(rewards, values, dones, gamma, lam):
    """GAE over episodes laid back to back, ``dones`` marking the last step
    of each: the reference the grid form must equal."""
    n = len(rewards)
    advantages, last_adv = np.zeros(n), 0.0
    for t in range(n - 1, -1, -1):
        nonterminal = 1.0 - dones[t]
        next_value = values[t + 1] if t + 1 < n else 0.0
        delta = rewards[t] + gamma * next_value * nonterminal - values[t]
        last_adv = delta + gamma * lam * nonterminal * last_adv
        advantages[t] = last_adv
    return advantages


def test_gae_respects_episode_boundaries():
    # Each row of the grid is its own episode: the grid's advantages equal,
    # byte for byte, those of its rows laid back to back with their ends
    # marked, and each row's equal those of the row alone.
    rng = np.random.default_rng(1)
    rewards, values = rng.normal(size=(2, 4, 7))
    advantages, returns = compute_gae(rewards, values, 0.99, 0.95)
    dones = np.zeros((4, 7))
    dones[:, -1] = 1.0
    flat = [a.ravel() for a in (rewards, values, dones)]
    stream = _gae_over_a_stream(*flat, 0.99, 0.95)
    assert advantages.tobytes() == stream.tobytes()
    assert returns.tobytes() == (advantages + values).tobytes()
    single = compute_gae(rewards[2], values[2], 0.99, 0.95)[0]  # one 1-D episode
    assert single.tobytes() == advantages[2].tobytes()


def test_gae_shape_mismatch():
    with pytest.raises(ValidationError):
        compute_gae(np.zeros((2, 3)), np.zeros((2, 4)), 0.99, 0.95)


# -- config and spec ------------------------------------------------------------


def test_train_config_defaults_match_contract():
    assert (GAMMA, GAE_LAMBDA, CLIP_RATIO, EPOCHS) == (0.99, 0.95, 0.2, 4)
    assert (VALUE_COEF, ENTROPY_COEF) == (0.5, 0.01)
    cfg = TrainConfig(total_env_steps=0, seed=0)
    assert cfg.learning_rate == 3e-4
    assert cfg.batch_size == 256


@pytest.mark.parametrize(
    "overrides",
    [
        {"total_env_steps": -1},
        {"learning_rate": -1e-4},
        {"batch_size": 0},
        {"learning_rate": float("nan")},
        {"learning_rate": float("inf")},
    ],
)
def test_train_config_rejects_bad_values(overrides):
    with pytest.raises(ValidationError):
        _cfg(**overrides).validate()


def test_env_spec_dimensions(tiny_world):
    spec = EnvSpec(topology=tiny_world)
    assert spec.obs_dim == 2
    assert spec.action_dim == 2
    assert spec.decisions_per_episode == STEPS_PER_DAY

    dual = EnvSpec(topology=tiny_world, agent_kind=AgentKind.DUAL, frame_skip=8)
    assert dual.obs_dim == 2 + 2  # levels, the clock and the current price
    assert dual.decisions_per_episode == 12

    for window in (7, 0, -3):
        with pytest.raises(ValidationError):
            _ = EnvSpec(topology=tiny_world, frame_skip=window).decisions_per_episode


# -- rollout collection -----------------------------------------------------------


def _tiny_policy(spec, seed=0):
    rng = np.random.default_rng(seed)
    return init_policy(spec.obs_dim, spec.action_dim, rng, hidden=(8,))


def test_collect_rollouts_whole_episodes(tiny_world):
    spec = EnvSpec(topology=tiny_world)
    params = _tiny_policy(spec)
    batch = collect_rollouts(spec, params, _cfg(batch_size=100))
    # 100 transitions need ceil(100/96) = 2 whole episodes.
    assert len(batch) == 2 * STEPS_PER_DAY
    assert batch.env_steps == 2 * STEPS_PER_DAY
    # One row per episode, one column per decision.
    assert batch.observations.shape == (2, STEPS_PER_DAY, spec.obs_dim)
    assert batch.actions.shape == (2, STEPS_PER_DAY, spec.action_dim)
    for name in ("log_probs", "rewards", "values"):
        assert getattr(batch, name).shape == (2, STEPS_PER_DAY), name


def test_collect_rollouts_counts_real_steps_under_frame_skip(tiny_world):
    spec = EnvSpec(topology=tiny_world, agent_kind=AgentKind.DUAL, frame_skip=8)
    params = _tiny_policy(spec)
    batch = collect_rollouts(spec, params, _cfg(batch_size=24))
    # 24 decisions at 12 per episode = 2 episodes, but every episode still
    # advances the simulator through all 96 steps.
    assert len(batch) == 24
    assert batch.env_steps == 2 * STEPS_PER_DAY


def test_collect_rollouts_deterministic(tiny_world):
    spec = EnvSpec(topology=tiny_world)
    params = _tiny_policy(spec)
    a = collect_rollouts(spec, params, _cfg(), iteration=3)
    b = collect_rollouts(spec, params, _cfg(), iteration=3)
    np.testing.assert_array_equal(a.observations, b.observations)
    np.testing.assert_array_equal(a.actions, b.actions)
    np.testing.assert_array_equal(a.log_probs, b.log_probs)

    c = collect_rollouts(spec, params, _cfg(), iteration=4)
    assert not np.array_equal(a.actions, c.actions)


@pytest.mark.parametrize("window", [1, 4])
def test_a_day_of_noise_in_one_draw_equals_a_draw_per_decision(world, window):
    spec = EnvSpec(topology=world, agent_kind=AgentKind.DUAL, frame_skip=window)
    n, d = spec.decisions_per_episode, spec.action_dim
    for idx in range(3):
        act_ss = _seed_stream(7, "train_episode", 2, idx).spawn(2)[1]
        whole, stepped = np.random.default_rng(act_ss), np.random.default_rng(act_ss)
        day = whole.standard_normal((n, d))
        per_decision = np.array([stepped.standard_normal(d) for _ in range(n)])
        assert day.tobytes() == per_decision.tobytes()
        assert whole.standard_normal(d).tobytes() == stepped.standard_normal(d).tobytes()


@pytest.mark.parametrize("window", [1, 8])
def test_collection_runs_the_actor_per_decision_and_the_critic_per_episode(
    world, window, monkeypatch
):
    # Only the actor acts; the critic's values wait for the end of the day,
    # then take one forward per episode row.
    spec = EnvSpec(topology=world, agent_kind=AgentKind.DUAL, frame_skip=window)
    params = init_policy(spec.obs_dim, spec.action_dim, np.random.default_rng(0))
    forward, calls = MLP.forward, []

    def counting(net, x):
        calls.append({id(params.actor): "actor", id(params.critic): "critic"}[id(net)])
        return forward(net, x)

    monkeypatch.setattr(MLP, "forward", counting)
    training._collect_lanes(spec, params, _cfg(), 0, range(3))
    assert calls.count("actor") == STEPS_PER_DAY // window
    assert calls.count("critic") == 3
    assert len(calls) == STEPS_PER_DAY // window + 3


def test_collect_rollouts_maps_a_failed_rollout_to_training_error(tiny_world):
    spec = EnvSpec(topology=tiny_world)
    params = _tiny_policy(spec)
    params.actor.biases[-1][0] = np.nan  # NaN means, so NaN pump speeds
    with pytest.raises(TrainingError, match="rollout failed: pump speed"):
        collect_rollouts(spec, params, _cfg())


# -- the update -------------------------------------------------------------------


def test_zero_learning_rate_is_a_no_op(tiny_world):
    spec = EnvSpec(topology=tiny_world)
    params = _tiny_policy(spec)
    batch = collect_rollouts(spec, params, _cfg())
    zero_lr = Adam(params.vector.size, 0.0)
    updated, stats = _update(params, batch, zero_lr)
    assert updated.vector.tobytes() == params.vector.tobytes()
    assert np.isfinite(stats["total_loss"])


def test_constant_rewards_only_move_sigma_and_critic(tiny_world):
    spec = EnvSpec(topology=tiny_world)
    params = _tiny_policy(spec)
    batch = collect_rollouts(spec, params, _cfg())
    flat = dataclasses.replace(
        batch, rewards=np.zeros_like(batch.rewards), values=np.zeros_like(batch.values)
    )
    updated, _ = _update(params, flat)
    # All advantages are identical, so the normalized advantage is zero and
    # the surrogate provides no actor gradient; only the entropy bonus acts.
    for a, b in zip(params.actor.weights, updated.actor.weights):
        np.testing.assert_array_equal(a, b)
    assert np.all(updated.log_sigma > params.log_sigma)
    assert not np.array_equal(
        params.critic.weights[0], updated.critic.weights[0]
    )


def test_an_update_steps_a_copy_and_leaves_its_input_as_it_was(tiny_world):
    spec = EnvSpec(topology=tiny_world)
    params = _tiny_policy(spec)
    batch = collect_rollouts(spec, params, _cfg())
    before = params.vector.tobytes()
    updated, _ = _update(params, batch)
    assert params.vector.tobytes() == before
    assert updated.vector.tobytes() != before
    assert not np.shares_memory(updated.vector, params.vector)
    for array in _arrays(updated):
        assert array.base is updated.vector


def test_update_stats_are_means_over_the_last_epochs_minibatches(tiny_world):
    # 3 episodes of 96 decisions: each epoch is minibatches of 128, 128 and 32.
    spec = EnvSpec(topology=tiny_world)
    params = _tiny_policy(spec)
    batch = collect_rollouts(spec, params, _cfg(batch_size=200))
    n = len(batch)
    optimizer, stepped_from = Adam(params.vector.size, 1e-2), []
    step = optimizer.step

    def recording(vector, grad):  # keeps the parameters each step starts from
        stepped_from.append(vector.copy())
        return step(vector, grad)

    optimizer.step = recording
    updated, stats = _update(params, batch, optimizer)

    adv, returns = compute_gae(batch.rewards, batch.values, GAMMA, GAE_LAMBDA)
    adv, returns = adv.ravel(), returns.ravel()
    adv = (adv - adv.mean()) / (adv.std() + 1e-8)
    obs, actions = batch.observations.reshape(n, -1), batch.actions.reshape(n, -1)
    old_logps = batch.log_probs.ravel()
    shuffle = np.random.default_rng(0)
    order = [shuffle.permutation(n) for _ in range(EPOCHS)][-1]
    starts = range(0, n, MINIBATCH_SIZE)
    assert len(stepped_from) == EPOCHS * len(starts) == 12
    surrogate, squared_error, clipped, kl = [], [], [], []
    for start, vector in zip(starts, stepped_from[-len(starts) :]):
        idx = order[start : start + MINIBATCH_SIZE]
        p = dataclasses.replace(params, vector=vector)
        logps = gaussian_logp(actions[idx], p.actor.forward(obs[idx])[0], p.log_sigma)
        ratio = np.exp(logps - old_logps[idx])
        bounded = np.clip(ratio, 1 - CLIP_RATIO, 1 + CLIP_RATIO)
        surrogate += np.minimum(ratio * adv[idx], bounded * adv[idx]).tolist()
        values = p.critic.forward(obs[idx])[0][:, 0]
        squared_error += ((values - returns[idx]) ** 2).tolist()
        clipped += (np.abs(ratio - 1.0) > CLIP_RATIO).tolist()
        kl += (old_logps[idx] - logps).tolist()
    want = [-np.mean(surrogate), np.mean(squared_error), np.mean(clipped), np.mean(kl)]
    names = "policy_loss", "value_loss", "clip_fraction", "approx_kl"
    got = [stats[name] for name in names]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)
    assert 0 < stats["clip_fraction"] < 1
    assert stats["entropy"] == entropy(updated)
    total = got[0] + VALUE_COEF * got[1] - ENTROPY_COEF * stats["entropy"]
    assert stats["total_loss"] == total


def test_clipped_surrogate_gradient_matches_finite_differences():
    rng = np.random.default_rng(9)
    params = init_policy(2, 1, rng, hidden=(4,))
    obs = rng.normal(size=(4, 2))
    actions = rng.uniform(0.0, 1.0, size=(4, 1))
    norm_adv = np.array([1.0, -1.0, 0.5, -2.0])

    # Old log-probs chosen so ratios sit well away from the clip boundaries.
    means, _ = params.actor.forward(obs)
    base_logps = gaussian_logp(actions, means, params.log_sigma)
    old_logps = base_logps - np.log([0.5, 0.95, 1.1, 1.4])

    def surrogate():
        means, _ = params.actor.forward(obs)
        logps = gaussian_logp(actions, means, params.log_sigma)
        ratio = np.exp(logps - old_logps)
        surr1 = ratio * norm_adv
        surr2 = np.clip(ratio, 1 - CLIP_RATIO, 1 + CLIP_RATIO) * norm_adv
        return float(-np.minimum(surr1, surr2).mean()) - ENTROPY_COEF * entropy(params)

    grads = dataclasses.replace(params, vector=np.empty_like(params.vector))
    buffers = [_buffers(net, 4) for net in (params.actor, params.critic)]
    _minibatch_gradient(
        params, grads, buffers, obs, actions, old_logps, norm_adv, np.zeros(4)
    )
    arrays = params.actor.weights + params.actor.biases + [params.log_sigma]
    grads = grads.actor.weights + grads.actor.biases + [grads.log_sigma]
    h = 1e-6
    for arr, grad in zip(arrays, grads):
        flat = arr.reshape(-1)
        gflat = np.asarray(grad).reshape(-1)
        for idx in rng.choice(flat.size, size=min(6, flat.size), replace=False):
            original = flat[idx]
            flat[idx] = original + h
            up = surrogate()
            flat[idx] = original - h
            down = surrogate()
            flat[idx] = original
            numeric = (up - down) / (2 * h)
            scale = max(1.0, abs(numeric), abs(gflat[idx]))
            assert abs(numeric - gflat[idx]) / scale <= 1e-4


def test_policy_gradients_in_one_pass_equal_the_two_pass_path(monkeypatch):
    # One actor forward, one critic forward and one surrogate evaluation give
    # the bytes of a path that runs the actor twice, once for the ratio and
    # once for the activations its backward pass runs from.
    rng = np.random.default_rng(21)
    params = init_policy(5, 3, rng, hidden=(16, 16))
    obs = rng.normal(size=(40, 5))
    actions = rng.uniform(0.0, 1.0, size=(40, 3))
    norm_adv = rng.normal(size=40)
    returns = rng.normal(size=40)
    means, _ = params.actor.forward(obs)
    old_logps = gaussian_logp(actions, means, params.log_sigma) + rng.normal(
        0.0, 0.3, 40
    )

    logps = gaussian_logp(actions, params.actor.forward(obs)[0], params.log_sigma)
    ratio = np.exp(logps - old_logps)
    surr1 = ratio * norm_adv
    surr2 = np.clip(ratio, 1 - CLIP_RATIO, 1 + CLIP_RATIO) * norm_adv
    coeff = np.where(surr1 <= surr2, -norm_adv * ratio, 0.0) / 40
    assert 0 < np.count_nonzero(coeff) < 40  # both branches of the clip act
    means, acts = params.actor.forward(obs)
    sigma = np.exp(params.log_sigma)
    diff = actions - means
    gw, gb = params.actor.backward(acts, coeff[:, None] * diff / sigma**2)
    gs = (coeff[:, None] * (diff**2 / sigma**2 - 1.0)).sum(axis=0) - ENTROPY_COEF
    values, acts = params.critic.forward(obs)
    errors = values[:, 0] - returns
    cw, cb = params.critic.backward(acts, (VALUE_COEF * 2.0 * errors / 40)[:, None])

    calls = []

    def counted(name, fn):
        return lambda *args: calls.append(name) or fn(*args)

    params.actor.forward = counted("actor", params.actor.forward)
    params.critic.forward = counted("critic", params.critic.forward)
    monkeypatch.setattr(training, "_surrogate", counted("surrogate", training._surrogate))
    grads = dataclasses.replace(params, vector=np.empty_like(params.vector))
    buffers = [_buffers(net, 40) for net in (params.actor, params.critic)]
    got = _minibatch_gradient(
        params, grads, buffers, obs, actions, old_logps, norm_adv, returns
    )
    assert sorted(calls) == ["actor", "critic", "surrogate"]
    want = [logps, ratio, surr1, surr2, errors, *gw, *gb, gs, *cw, *cb]
    for a, b in zip([*got, *_arrays(grads)], want, strict=True):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def _arrays(params):
    """Every array of the policy, each a view of its vector."""
    a, c = params.actor, params.critic
    return [*a.weights, *a.biases, params.log_sigma, *c.weights, *c.biases]


def test_flat_adam_equals_the_per_array_rule():
    # One step of the whole vector equals Kingma and Ba's update run on each
    # array of the policy alone, byte for byte; it steps ``vector`` in place
    # and leaves ``grad`` as it was.
    rng = np.random.default_rng(4)
    params = init_policy(6, 3, rng, hidden=(8, 8))
    n, lr = params.vector.size, 3e-3
    adam = Adam(n, lr)

    def on(vector):  # the policy's arrays as views of ``vector``
        return _arrays(dataclasses.replace(params, vector=vector))

    vector, ref, m, v = params.vector.copy(), params.vector, np.zeros(n), np.zeros(n)
    for t in range(1, 8):
        grad = np.empty(n)
        for g in on(grad):  # each array's gradient on its own scale
            g[...] = rng.normal(size=g.shape) * 10.0 ** rng.integers(-4, 3)
        before = vector.tobytes(), grad.tobytes()
        assert adam.step(vector, grad) is None
        assert vector.tobytes() != before[0] and grad.tobytes() == before[1]
        out = np.empty(n)
        for p, g, mi, vi, o in zip(on(ref), on(grad), on(m), on(v), on(out)):
            mi[...] = ADAM_BETA1 * mi + (1 - ADAM_BETA1) * g
            vi[...] = ADAM_BETA2 * vi + (1 - ADAM_BETA2) * g * g
            m_hat = mi / (1 - ADAM_BETA1**t)
            v_hat = vi / (1 - ADAM_BETA2**t)
            o[...] = p - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        ref = out
        assert vector.tobytes() == ref.tobytes()


def test_adam_rejects_a_vector_of_another_size():
    adam = Adam(5, 1e-3)
    with pytest.raises(ValidationError, match="size mismatch"):
        adam.step(np.zeros(5), np.zeros(4))
    with pytest.raises(ValidationError, match="size mismatch"):
        adam.step(np.zeros(6), np.zeros(6))
    assert adam.t == 0


@pytest.mark.parametrize(
    "pick",
    [
        lambda grads: grads.actor.weights[0],
        lambda grads: grads.log_sigma,
        lambda grads: grads.critic.biases[-1],
    ],
    ids=["actor_first_weight", "log_sigma", "critic_last_bias"],
)
def test_a_non_finite_gradient_in_any_segment_stops_the_update(
    tiny_world, monkeypatch, pick
):
    spec = EnvSpec(topology=tiny_world)
    params = _tiny_policy(spec)
    batch = collect_rollouts(spec, params, _cfg())
    gradient = training._minibatch_gradient

    def poisoned(params, grads, *args):
        result = gradient(params, grads, *args)
        pick(grads).reshape(-1)[-1] = np.nan
        return result

    monkeypatch.setattr(training, "_minibatch_gradient", poisoned)
    optimizer = Adam(params.vector.size, _cfg().learning_rate)
    with pytest.raises(NumericError, match="^non-finite gradient during update$"):
        _update(params, batch, optimizer)
    assert optimizer.t == 0 and not optimizer.m.any() and not optimizer.v.any()


def test_an_overflowing_batch_raises_the_non_finite_loss_error(tiny_world):
    # Rewards of 1e200 overflow the advantages' variance and the value error;
    # the update reports that as a non-finite loss, with no numpy warning first.
    spec = EnvSpec(topology=tiny_world)
    params = _tiny_policy(spec)
    batch = collect_rollouts(spec, params, _cfg())
    huge = dataclasses.replace(batch, rewards=np.full_like(batch.rewards, 1e200))
    with pytest.raises(NumericError, match="^non-finite loss during update: "):
        _update(params, huge)


def test_update_rejects_empty_batch():
    empty = RolloutBatch(
        observations=np.zeros((0, STEPS_PER_DAY, 2)),
        actions=np.zeros((0, STEPS_PER_DAY, 2)),
        log_probs=np.zeros((0, STEPS_PER_DAY)),
        rewards=np.zeros((0, STEPS_PER_DAY)),
        values=np.zeros((0, STEPS_PER_DAY)),
    )
    rng = np.random.default_rng(0)
    params = init_policy(2, 2, rng, hidden=(4,))
    with pytest.raises(ValidationError, match="empty batch"):
        _update(params, empty)


def test_optimizer_state_persists_across_updates(tiny_world):
    # Two updates through one optimizer differ from two fresh-optimizer
    # updates: Adam moments carry over.
    spec = EnvSpec(topology=tiny_world)
    params = _tiny_policy(spec)
    batch = collect_rollouts(spec, params, _cfg())
    cfg = _cfg()

    shared = Adam(params.vector.size, cfg.learning_rate)
    p1, _ = _update(params, batch, shared)
    p2_shared, _ = _update(p1, batch, shared)

    p2_fresh, _ = _update(p1, batch, Adam(params.vector.size, cfg.learning_rate))
    assert not np.array_equal(p2_shared.vector, p2_fresh.vector)


# -- the training loop ------------------------------------------------------------


def test_train_zero_budget_returns_initial_policy(tiny_world):
    spec = EnvSpec(topology=tiny_world)
    result = train(spec, _cfg(total_env_steps=0, seed=5))
    fresh = init_policy(
        spec.obs_dim,
        spec.action_dim,
        np.random.default_rng(np.random.SeedSequence(entropy=5, spawn_key=(3,))),
    )
    assert result.curve == []
    assert result.params.vector.tobytes() == fresh.vector.tobytes()


def test_train_curve_tracks_cumulative_steps(tiny_world):
    spec = EnvSpec(topology=tiny_world)
    result = train(spec, _cfg(total_env_steps=2 * STEPS_PER_DAY))
    assert [steps for steps, _ in result.curve] == [STEPS_PER_DAY, 2 * STEPS_PER_DAY]
    assert all(np.isfinite(r) for _, r in result.curve)
    assert set(result.stats) >= {
        "policy_loss",
        "value_loss",
        "entropy",
        "total_loss",
        "clip_fraction",
        "approx_kl",
    }


def test_train_deterministic(tiny_world):
    spec = EnvSpec(topology=tiny_world)
    cfg = _cfg(total_env_steps=2 * STEPS_PER_DAY, seed=3)
    a = train(spec, cfg)
    b = train(spec, cfg)
    assert a.curve == b.curve
    assert a.params.vector.tobytes() == b.params.vector.tobytes()


def test_train_writes_reward_curve(tmp_path, tiny_world):
    spec = EnvSpec(topology=tiny_world)
    result = train(spec, _cfg(total_env_steps=STEPS_PER_DAY))
    save_reward_curve(result.curve, tmp_path / "reward_curve.csv")
    assert load_reward_curve(tmp_path / "reward_curve.csv") == result.curve


def test_reward_curve_round_trip(tmp_path):
    curve = [(96, 1.5), (192, 2.25)]
    path = tmp_path / "curve.csv"
    save_reward_curve(curve, path)
    assert load_reward_curve(path) == curve
    path.write_text("wrong,header\n1,2\n")
    with pytest.raises(ValidationError):
        load_reward_curve(path)


def test_policy_act_fn_is_clipped_mean(tiny_world):
    spec = EnvSpec(topology=tiny_world)
    params = _tiny_policy(spec)
    act = policy_act_fn(params)
    obs = np.full(2, 0.5)
    np.testing.assert_array_equal(act(obs), deterministic_action(params, obs))
