import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pumpsched import (
    PolicyParameters,
    init_policy,
    load_checkpoint,
    save_checkpoint,
)
from pumpsched.errors import SchemaError, ValidationError
from pumpsched.policy import (
    actor_logp_and_grads,
    deterministic_action,
    entropy,
    forward_batch,
    gaussian_logp,
)
from pumpsched.training import VALUE_COEF, _sample_lanes, _value_gradients


def _small_policy(seed=0, obs_dim=3, action_dim=2, hidden=(5, 4)):
    rng = np.random.default_rng(seed)
    return init_policy(obs_dim, action_dim, rng, hidden=hidden)


def test_gaussian_logp_at_mean_unit_sigma():
    # Six dimensions, action at the mean, sigma 1: -3 * ln(2*pi) = -5.5136.
    logp = gaussian_logp(np.zeros(6), np.zeros(6), np.zeros(6))
    assert logp[0] == pytest.approx(-3.0 * math.log(2.0 * math.pi), abs=1e-12)
    assert logp[0] == pytest.approx(-5.5136, abs=1e-4)


def test_gaussian_logp_one_sigma_away():
    logp = gaussian_logp(np.array([1.0]), np.array([0.0]), np.array([0.0]))
    assert logp[0] == pytest.approx(-0.5 * math.log(2.0 * math.pi) - 0.5, abs=1e-12)


def test_gaussian_logp_matches_scipy_style_formula():
    rng = np.random.default_rng(1)
    actions = rng.normal(size=(5, 3))
    means = rng.normal(size=(5, 3))
    log_sigma = rng.uniform(-1.0, 0.5, 3)
    got = gaussian_logp(actions, means, log_sigma)
    sigma = np.exp(log_sigma)
    expect = (
        -0.5 * ((actions - means) / sigma) ** 2
        - log_sigma
        - 0.5 * np.log(2.0 * np.pi)
    ).sum(axis=1)
    np.testing.assert_allclose(got, expect, atol=1e-12)


def test_init_policy_shapes_and_start():
    params = _small_policy()
    assert params.obs_dim == 3
    assert params.action_dim == 2
    np.testing.assert_allclose(np.exp(params.log_sigma), 0.3)
    # The mean head starts near mid-range so initial actions hover around 0.5.
    means, sigmas, values = forward_batch(params, np.zeros((1, 3)))
    np.testing.assert_allclose(means[0], 0.5, atol=0.05)
    assert sigmas.shape == (1, 2)
    assert values.shape == (1,) and np.isfinite(values[0])


def test_init_policy_deterministic():
    a = _small_policy(seed=12)
    b = _small_policy(seed=12)
    for x, y in zip(a.arrays(), b.arrays()):
        np.testing.assert_array_equal(x, y)


def test_init_policy_rejects_bad_dims():
    rng = np.random.default_rng(0)
    with pytest.raises(ValidationError):
        init_policy(0, 2, rng)


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    obs_dim=st.sampled_from([6, 103]),
)
def test_forward_batch_matches_single(seed, obs_dim):
    # At every batch width from 1 to 64, every row equals the one-row forward
    # byte for byte, for the default net and the tiny one alike, and so does
    # every row of the greedy action.
    rng = np.random.default_rng(seed)
    obs = rng.normal(size=(64, obs_dim))
    for hidden in ((64, 64), (8,)):
        params = init_policy(obs_dim, 6, rng, hidden=hidden)
        params = params.replace_arrays(
            [a + rng.normal(0.0, 0.3, a.shape) for a in params.arrays()]
        )
        rows = [
            (
                params.actor.forward(x)[0][0],
                params.critic.forward(x)[0][0, 0],
                deterministic_action(params, x),
            )
            for x in obs
        ]
        for batch in range(1, 65):
            means, sigmas, values = forward_batch(params, obs[:batch])
            greedy = deterministic_action(params, obs[:batch])
            for k in range(batch):
                assert means[k].tobytes() == rows[k][0].tobytes()
                assert values[k].tobytes() == rows[k][1].tobytes()
                assert greedy[k].tobytes() == rows[k][2].tobytes()
            sigma_rows = np.tile(np.exp(params.log_sigma), (batch, 1))
            np.testing.assert_array_equal(sigmas, sigma_rows)


def test_forward_batch_checks_width():
    params = _small_policy()
    with pytest.raises(ValidationError):
        forward_batch(params, np.zeros((2, 4)))
    with pytest.raises(ValidationError):
        forward_batch(params, np.zeros(4))


def test_sample_action_clipped_and_logp_unclipped():
    params = _small_policy()
    rng = np.random.default_rng(0)
    means, _, _ = forward_batch(params, np.zeros((1, 3)))
    for _ in range(50):
        raw, action, logp = _sample_lanes(means, params, [rng])
        assert np.all(action >= 0.0) and np.all(action <= 1.0)
        np.testing.assert_array_equal(action, np.clip(raw, 0.0, 1.0))
        assert logp[0] == gaussian_logp(raw, means, params.log_sigma)[0]


def test_tiny_sigma_sampling_collapses_to_mean():
    params = _small_policy()
    frozen = PolicyParameters(
        actor=params.actor, log_sigma=np.full(2, -20.0), critic=params.critic
    )
    rng = np.random.default_rng(5)
    means, _, _ = forward_batch(frozen, np.zeros((1, 3)))
    _, action, _ = _sample_lanes(means, frozen, [rng])
    np.testing.assert_allclose(action[0], np.clip(means[0], 0.0, 1.0), atol=1e-7)
    np.testing.assert_array_equal(
        deterministic_action(frozen, np.zeros(3)), np.clip(means[0], 0.0, 1.0)
    )


def test_deterministic_action_clips_high_means():
    rng = np.random.default_rng(2)
    params = init_policy(3, 2, rng, hidden=(4,))
    params.actor.biases[-1][:] = 1.5  # the actor mean starts above full speed
    action = deterministic_action(params, np.zeros(3))
    assert np.all(action <= 1.0)


def test_entropy_closed_form():
    params = _small_policy()
    expect = float(np.sum(0.5 * (1.0 + np.log(2.0 * np.pi)) + params.log_sigma))
    assert entropy(params) == pytest.approx(expect, abs=1e-12)
    # Entropy grows with sigma.
    wider = PolicyParameters(
        actor=params.actor, log_sigma=params.log_sigma + 1.0, critic=params.critic
    )
    assert entropy(wider) > entropy(params)


# -- finite-difference gradient checks ---------------------------------------


def _fd_check(objective, arrays, grads, rng, n_coords=12, h=1e-6, tol=1e-4):
    """Compare analytic grads with central differences at sampled coordinates."""
    checked = 0
    for arr, grad in zip(arrays, grads):
        flat = arr.reshape(-1)
        gflat = np.asarray(grad).reshape(-1)
        for idx in rng.choice(flat.size, size=min(n_coords, flat.size), replace=False):
            original = flat[idx]
            flat[idx] = original + h
            up = objective()
            flat[idx] = original - h
            down = objective()
            flat[idx] = original
            numeric = (up - down) / (2.0 * h)
            scale = max(1.0, abs(numeric), abs(gflat[idx]))
            assert abs(numeric - gflat[idx]) / scale <= tol
            checked += 1
    assert checked > 0


def test_critic_gradients_match_finite_differences():
    params = _small_policy(seed=7)
    rng = np.random.default_rng(7)
    obs = rng.normal(size=(5, 3))
    returns = rng.normal(size=5)

    def objective():
        values, _ = params.critic.forward(obs)
        return VALUE_COEF * float(np.mean((values[:, 0] - returns) ** 2))

    gw, gb = _value_gradients(params, obs, returns, len(obs))
    _fd_check(objective, params.critic.weights + params.critic.biases, gw + gb, rng)


def test_actor_gradients_match_finite_differences():
    params = _small_policy(seed=8)
    rng = np.random.default_rng(8)
    obs = rng.normal(size=(5, 3))
    actions = rng.uniform(0.0, 1.0, size=(5, 2))
    coeff = rng.normal(size=5)

    def objective():
        logps, _, _, _ = actor_logp_and_grads(params, obs, actions, coeff)
        return float((coeff * logps).sum())

    _, gw, gb, gs = actor_logp_and_grads(params, obs, actions, coeff)
    _fd_check(
        objective,
        params.actor.weights + params.actor.biases + [params.log_sigma],
        gw + gb + [gs],
        rng,
    )


def test_gradient_shapes_validated():
    params = _small_policy()
    obs = np.zeros((4, 3))
    with pytest.raises(ValidationError):
        actor_logp_and_grads(params, obs, np.zeros((4, 3)), np.ones(4))
    with pytest.raises(ValidationError):
        actor_logp_and_grads(params, obs, np.zeros((4, 2)), np.ones(5))


# -- checkpoints --------------------------------------------------------------


def test_checkpoint_round_trip(tmp_path):
    params = _small_policy(seed=3)
    path = tmp_path / "policy.json"
    save_checkpoint(params, path, meta={"agent": "constraint", "steps": 1000})
    loaded, meta = load_checkpoint(path)
    assert meta == {"agent": "constraint", "steps": 1000}
    for a, b in zip(params.arrays(), loaded.arrays()):
        np.testing.assert_array_equal(a, b)


def test_checkpoint_rejects_unknown_version(tmp_path):
    params = _small_policy()
    path = tmp_path / "policy.json"
    save_checkpoint(params, path)
    doc = json.loads(path.read_text())
    doc["format_version"] = 999
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="version"):
        load_checkpoint(path)


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "policy.json"
    path.write_text("not json at all {")
    with pytest.raises(SchemaError):
        load_checkpoint(path)


def test_checkpoint_rejects_dimension_mismatch(tmp_path):
    params = _small_policy()
    path = tmp_path / "policy.json"
    save_checkpoint(params, path)
    doc = json.loads(path.read_text())
    doc["obs_dim"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="dimensions"):
        load_checkpoint(path)
