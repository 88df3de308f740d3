import numpy as np
import pytest

from pumpsched import (
    AgentKind,
    EnvSpec,
    TrainConfig,
    TrainingError,
    ValidationError,
    policy_act_fn,
    train,
)
from pumpsched.policy import deterministic_action, entropy, init_policy
from pumpsched.training import (
    CLIP_RATIO,
    ENTROPY_COEF,
    EPOCHS,
    GAE_LAMBDA,
    GAMMA,
    VALUE_COEF,
    RolloutBatch,
    collect_rollouts,
    compute_gae,
    load_reward_curve,
    make_optimizer,
    ppo_update,
    save_reward_curve,
    _policy_gradients,
)
from pumpsched.network import STEPS_PER_DAY


def _cfg(**overrides):
    base = dict(total_env_steps=0, seed=0, batch_size=96)
    base.update(overrides)
    return TrainConfig(**base)


def _update(params, batch, optimizer=None):
    """``ppo_update`` through ``optimizer`` (default: a fresh one at the
    default learning rate) and a fixed shuffle stream."""
    if optimizer is None:
        optimizer = make_optimizer(params, _cfg())
    return ppo_update(params, batch, optimizer, np.random.default_rng(0))


# -- generalized advantage estimation ------------------------------------------


def test_gae_two_step_worked_example():
    advantages, returns = compute_gae(
        rewards=np.array([1.0, 1.0]),
        values=np.array([0.5, 0.5]),
        dones=np.array([0.0, 1.0]),
        gamma=0.99,
        lam=0.95,
    )
    # delta_1 = 1 + 0.99*0.5 - 0.5 = 0.995; delta_2 = 0.5;
    # A_1 = 0.995 + 0.99*0.95*0.5 = 1.46525.
    np.testing.assert_allclose(advantages, [1.46525, 0.5], atol=1e-12)
    np.testing.assert_allclose(returns, [1.96525, 1.0], atol=1e-12)


def test_gae_zero_lambda_is_one_step_td():
    rng = np.random.default_rng(0)
    rewards = rng.normal(size=10)
    values = rng.normal(size=10)
    dones = np.zeros(10)
    dones[-1] = 1.0
    advantages, _ = compute_gae(rewards, values, dones, gamma=0.9, lam=0.0)
    expect = rewards.copy()
    expect[:-1] += 0.9 * values[1:]
    expect -= values
    np.testing.assert_allclose(advantages, expect, atol=1e-12)


def test_gae_respects_episode_boundaries():
    rng = np.random.default_rng(1)
    r1, v1 = rng.normal(size=5), rng.normal(size=5)
    r2, v2 = rng.normal(size=7), rng.normal(size=7)
    d1 = np.array([0, 0, 0, 0, 1.0])
    d2 = np.array([0, 0, 0, 0, 0, 0, 1.0])

    a1, _ = compute_gae(r1, v1, d1, 0.99, 0.95)
    a2, _ = compute_gae(r2, v2, d2, 0.99, 0.95)
    a_cat, _ = compute_gae(
        np.concatenate([r1, r2]),
        np.concatenate([v1, v2]),
        np.concatenate([d1, d2]),
        0.99,
        0.95,
    )
    np.testing.assert_allclose(a_cat, np.concatenate([a1, a2]), atol=1e-12)


def test_gae_shape_mismatch():
    with pytest.raises(ValidationError):
        compute_gae(np.zeros(3), np.zeros(4), np.zeros(3), 0.99, 0.95)


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
    assert dual.obs_dim == 2 + 1 + STEPS_PER_DAY
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
    assert len(batch.episode_rewards) == 2
    assert batch.dones.sum() == 2.0
    assert batch.dones[STEPS_PER_DAY - 1] == 1.0


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
    zero_lr = make_optimizer(params, _cfg(learning_rate=0.0))
    updated, stats = _update(params, batch, zero_lr)
    for a, b in zip(params.arrays(), updated.arrays()):
        np.testing.assert_array_equal(a, b)
    assert np.isfinite(stats["total_loss"])


def test_constant_rewards_only_move_sigma_and_critic(tiny_world):
    spec = EnvSpec(topology=tiny_world)
    params = _tiny_policy(spec)
    batch = collect_rollouts(spec, params, _cfg())
    flat = RolloutBatch(
        observations=batch.observations,
        actions=batch.actions,
        log_probs=batch.log_probs,
        rewards=np.zeros_like(batch.rewards),
        values=np.zeros_like(batch.values),
        dones=batch.dones,
        episode_rewards=[0.0],
        env_steps=batch.env_steps,
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


def test_clipped_surrogate_gradient_matches_finite_differences():
    rng = np.random.default_rng(9)
    params = init_policy(2, 1, rng, hidden=(4,))
    obs = rng.normal(size=(4, 2))
    actions = rng.uniform(0.0, 1.0, size=(4, 1))
    norm_adv = np.array([1.0, -1.0, 0.5, -2.0])

    # Old log-probs chosen so ratios sit well away from the clip boundaries.
    from pumpsched.policy import gaussian_logp

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

    _, gw, gb, gs = _policy_gradients(params, obs, actions, old_logps, norm_adv, 4)
    arrays = params.actor.weights + params.actor.biases + [params.log_sigma]
    grads = gw + gb + [gs]
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


def test_update_rejects_empty_batch():
    empty = RolloutBatch(
        observations=np.zeros((0, 2)),
        actions=np.zeros((0, 2)),
        log_probs=np.zeros(0),
        rewards=np.zeros(0),
        values=np.zeros(0),
        dones=np.zeros(0),
    )
    rng = np.random.default_rng(0)
    params = init_policy(2, 2, rng, hidden=(4,))
    with pytest.raises(ValidationError):
        _update(params, empty)


def test_optimizer_state_persists_across_updates(tiny_world):
    # Two updates through one optimizer differ from two fresh-optimizer
    # updates: Adam moments carry over.
    spec = EnvSpec(topology=tiny_world)
    params = _tiny_policy(spec)
    batch = collect_rollouts(spec, params, _cfg())
    cfg = _cfg()

    shared = make_optimizer(params, cfg)
    p1, _ = _update(params, batch, shared)
    p2_shared, _ = _update(p1, batch, shared)

    p2_fresh, _ = _update(p1, batch, make_optimizer(params, cfg))
    assert any(
        not np.array_equal(a, b)
        for a, b in zip(p2_shared.arrays(), p2_fresh.arrays())
    )


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
    for a, b in zip(result.params.arrays(), fresh.arrays()):
        np.testing.assert_array_equal(a, b)


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
    for x, y in zip(a.params.arrays(), b.params.arrays()):
        np.testing.assert_array_equal(x, y)


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
