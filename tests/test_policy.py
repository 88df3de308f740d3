import dataclasses
import hashlib
import io
import json
import math
from pathlib import Path

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
    deterministic_action,
    entropy,
    forward_rows,
    gaussian_logp,
    gaussian_logp_grads,
)
from pumpsched.simulate import run_day
from pumpsched.training import (
    CLIP_RATIO,
    ENTROPY_COEF,
    VALUE_COEF,
    EnvSpec,
    TrainConfig,
    _buffers,
    _collect_lanes,
    _leading_rows,
    _minibatch_gradient,
)
from pumpsched import training


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
    means = forward_rows(params.actor, np.zeros((1, 3)))
    values = forward_rows(params.critic, np.zeros((1, 3)))
    np.testing.assert_allclose(means[0], 0.5, atol=0.05)
    assert means.shape == (1, 2)
    assert values.shape == (1, 1) and np.isfinite(values[0, 0])


def test_init_policy_deterministic():
    a = _small_policy(seed=12)
    b = _small_policy(seed=12)
    assert a.vector.tobytes() == b.vector.tobytes()


def test_init_policy_rejects_bad_dims():
    rng = np.random.default_rng(0)
    with pytest.raises(ValidationError):
        init_policy(0, 2, rng)


def test_parameters_are_views_of_one_vector():
    params = _small_policy(seed=6)
    arrays = _arrays(params)
    assert params.vector.flags.owndata and params.vector.dtype == np.float64
    assert params.vector.size == sum(a.size for a in arrays)
    assert all(np.shares_memory(a, params.vector) for a in arrays)
    # The layout: actor weights, actor biases, log_sigma, critic weights,
    # critic biases, each in C order, end to end.
    laid_out = np.concatenate([a.ravel() for a in arrays])
    assert laid_out.tobytes() == params.vector.tobytes()

    # Arrays given alone are copied into a new vector of that layout.
    copied = PolicyParameters(params.actor, params.log_sigma, params.critic)
    assert copied.vector.tobytes() == params.vector.tobytes()
    assert not np.shares_memory(copied.vector, params.vector)

    # A new vector keeps the structure; the old arrays stay as they were.
    moved = dataclasses.replace(params, vector=params.vector + 1.0)
    assert all(np.shares_memory(a, moved.vector) for a in _arrays(moved))
    for old, new in zip(arrays, _arrays(moved), strict=True):
        assert new.shape == old.shape and np.array_equal(new, old + 1.0)
    assert params.vector.tobytes() == laid_out.tobytes()
    for vector in (params.vector[:-1], np.append(params.vector, 0.0)):
        with pytest.raises(ValueError):
            dataclasses.replace(params, vector=vector)


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    obs_dim=st.sampled_from([6, 8, 103]),
)
def test_forward_rows_matches_single(seed, obs_dim):
    # At every batch width from 1 to 64, every row of the actor and the critic
    # equals the one-row forward byte for byte, for the default net and the
    # tiny one alike, and so does every row of the greedy action; a grid of
    # rows, with two leading axes, runs the same products.
    rng = np.random.default_rng(seed)
    obs = rng.normal(size=(64, obs_dim))
    for hidden in ((64, 64), (8,)):
        params = init_policy(obs_dim, 6, rng, hidden=hidden)
        noise = rng.normal(0.0, 0.3, params.vector.size)
        params = dataclasses.replace(params, vector=params.vector + noise)
        rows = [
            (
                params.actor.forward(x)[0][0],
                params.critic.forward(x)[0][0],
                deterministic_action(params, x),
            )
            for x in obs
        ]
        for batch in range(1, 65):
            means = forward_rows(params.actor, obs[:batch])
            values = forward_rows(params.critic, obs[:batch])
            greedy = deterministic_action(params, obs[:batch])
            for k in range(batch):
                assert means[k].tobytes() == rows[k][0].tobytes()
                assert values[k].tobytes() == rows[k][1].tobytes()
                assert greedy[k].tobytes() == rows[k][2].tobytes()
        grid = forward_rows(params.critic, obs.reshape(8, 8, obs_dim))
        assert grid.tobytes() == np.array([row[1] for row in rows]).tobytes()


def test_forward_rows_checks_width():
    params = _small_policy()
    for net in (params.actor, params.critic):
        with pytest.raises(ValidationError):
            forward_rows(net, np.zeros((2, 4)))
        with pytest.raises(ValidationError):
            forward_rows(net, np.zeros(4))


def _collect_one_day(world, log_sigma, monkeypatch):
    """A small policy of noise ``log_sigma``, two episodes of ``_collect_lanes``
    on ``world`` under it, and the lanes' day as ``run_day`` rolled it, its
    executed actions included."""
    days = []

    def recording(*args):
        days.append(run_day(*args))
        return days[-1]

    monkeypatch.setattr(training, "run_day", recording)
    spec = EnvSpec(topology=world)
    params = init_policy(
        spec.obs_dim, spec.action_dim, np.random.default_rng(0), hidden=(5, 4)
    )
    params.log_sigma[:] = log_sigma
    cfg = TrainConfig(total_env_steps=0, seed=0)
    return params, _collect_lanes(spec, params, cfg, 0, range(2)), days[0]


def test_sample_action_clipped_and_logp_unclipped(tiny_world, monkeypatch):
    # Sigma 1: many raw samples leave [0, 1].
    params, grids, day = _collect_one_day(tiny_world, 0.0, monkeypatch)
    obs, raw, logp = grids[:3]
    assert (raw < 0.0).any() and (raw > 1.0).any()
    # Lane k of the day executes episode k's raw samples clipped into [0, 1].
    executed = np.clip(raw, 0.0, 1.0)
    assert day.actions.tobytes() == executed.transpose(1, 0, 2).tobytes()
    # The log-probs score the raw samples, not the executed actions.
    means = forward_rows(params.actor, obs)
    assert logp.tobytes() == gaussian_logp(raw, means, params.log_sigma).tobytes()
    assert not np.array_equal(logp, gaussian_logp(executed, means, params.log_sigma))


def test_tiny_sigma_sampling_collapses_to_mean(tiny_world, monkeypatch):
    params, (obs, *_), day = _collect_one_day(tiny_world, -20.0, monkeypatch)
    greedy = np.clip(forward_rows(params.actor, obs), 0.0, 1.0)
    np.testing.assert_allclose(day.actions, greedy.transpose(1, 0, 2), atol=1e-7)
    np.testing.assert_array_equal(deterministic_action(params, obs), greedy)


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


def test_minibatch_gradient_matches_finite_differences_of_the_full_loss():
    # PPO's loss on one minibatch, its clipped surrogate, entropy bonus and
    # value error, against central differences at sampled coordinates of
    # every segment: actor weights and biases, log_sigma, critic weights and
    # biases. The ratios sit well away from the clip kinks at 0.8 and 1.2,
    # and the clipped branch is the minimum at rows 1 and 5 only.
    params = _small_policy(seed=9)
    rng = np.random.default_rng(9)
    obs = rng.normal(size=(6, 3))
    actions = rng.uniform(0.0, 1.0, size=(6, 2))
    norm_adv = np.array([1.0, -1.0, -1.0, 0.5, -2.0, 2.0])
    returns = rng.normal(size=6)
    logps = gaussian_logp(actions, params.actor.forward(obs)[0], params.log_sigma)
    old_logps = logps - np.log([0.5, 0.5, 0.95, 1.1, 1.4, 1.4])

    def loss():
        logps = gaussian_logp(actions, params.actor.forward(obs)[0], params.log_sigma)
        ratio = np.exp(logps - old_logps)
        surr1 = ratio * norm_adv
        surr2 = np.clip(ratio, 1 - CLIP_RATIO, 1 + CLIP_RATIO) * norm_adv
        values = params.critic.forward(obs)[0][:, 0]
        return (
            -float(np.minimum(surr1, surr2).mean())
            - ENTROPY_COEF * entropy(params)
            + VALUE_COEF * float(np.mean((values - returns) ** 2))
        )

    grads = dataclasses.replace(params, vector=np.empty_like(params.vector))
    buffers = [_buffers(net, len(obs)) for net in (params.actor, params.critic)]
    got = _minibatch_gradient(
        params, grads, buffers, obs, actions, old_logps, norm_adv, returns
    )
    _, _, surr1, surr2, _ = got
    assert (surr2 < surr1).tolist() == [False, True, False, False, False, True]
    _fd_check(loss, _segments(params), _segments(grads), rng)


def _segments(params):
    """The policy's arrays in its vector's order."""
    a, c = params.actor, params.critic
    return [*a.weights, *a.biases, params.log_sigma, *c.weights, *c.biases]


def test_critic_gradients_match_finite_differences():
    # The critic's segments of the minibatch gradient are those of the value
    # term alone: the surrogate and the entropy do not depend on the critic.
    params = _small_policy(seed=7)
    rng = np.random.default_rng(7)
    obs = rng.normal(size=(5, 3))
    actions = rng.uniform(0.0, 1.0, size=(5, 2))
    returns = rng.normal(size=5)
    old_logps = gaussian_logp(actions, params.actor.forward(obs)[0], params.log_sigma)

    def objective():
        values, _ = params.critic.forward(obs)
        return VALUE_COEF * float(np.mean((values[:, 0] - returns) ** 2))

    grads = dataclasses.replace(params, vector=np.empty_like(params.vector))
    buffers = [_buffers(net, len(obs)) for net in (params.actor, params.critic)]
    _minibatch_gradient(
        params, grads, buffers, obs, actions, old_logps, rng.normal(size=5), returns
    )
    _fd_check(
        objective,
        params.critic.weights + params.critic.biases,
        grads.critic.weights + grads.critic.biases,
        rng,
    )


def test_actor_gradients_match_finite_differences():
    # The Gaussian head's derivative, backpropagated through the actor.
    params = _small_policy(seed=8)
    rng = np.random.default_rng(8)
    obs = rng.normal(size=(5, 3))
    actions = rng.uniform(0.0, 1.0, size=(5, 2))
    coeff = rng.normal(size=5)

    def objective():
        means, _ = params.actor.forward(obs)
        return float((coeff * gaussian_logp(actions, means, params.log_sigma)).sum())

    means, acts = params.actor.forward(obs)
    grad_means, gs = gaussian_logp_grads(actions, means, params.log_sigma, coeff)
    gw, gb = params.actor.backward(acts, grad_means)
    _fd_check(
        objective,
        params.actor.weights + params.actor.biases + [params.log_sigma],
        gw + gb + [gs],
        rng,
    )


@pytest.mark.parametrize("rows", [1, 64, 128])
def test_passes_into_given_buffers_equal_the_allocating_passes(rows):
    # The update's buffers: activations and scratch for 128 rows, of which a
    # short minibatch uses the leading rows, and a gradient laid out like the
    # policy. Each pair of buffers serves two different inputs in turn.
    rng = np.random.default_rng(rows)
    params = init_policy(8, 6, rng)
    grads = dataclasses.replace(params, vector=np.empty_like(params.vector))
    nets = (params.actor, grads.actor), (params.critic, grads.critic)
    for net, grad in nets:
        acts_out, scratch = _leading_rows(_buffers(net, 128), rows)
        for _ in range(2):
            x = rng.normal(size=(rows, net.sizes[0]))
            grad_out = rng.normal(size=(rows, net.sizes[-1]))
            want_out, want_acts = net.forward(x)
            want_w, want_b = net.backward(want_acts, grad_out)
            out, acts = net.forward(x, acts_out)
            gw, gb = net.backward(acts, grad_out, (grad.weights, grad.biases), scratch)
            assert all(a is b for a, b in zip(acts[1:], acts_out, strict=True))
            assert gw is grad.weights and gb is grad.biases
            want = [want_out, *want_acts, *want_w, *want_b]
            for a, b in zip(want, [out, *acts, *gw, *gb], strict=True):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()


# -- checkpoints --------------------------------------------------------------


def test_checkpoint_round_trip(tmp_path):
    params = _small_policy(seed=3)
    path = tmp_path / "policy.json"
    save_checkpoint(params, path, meta={"agent": "constraint", "steps": 1000})
    doc = json.loads(path.read_text())
    assert doc["format_version"] == 3
    assert (doc["actor"], doc["critic"]) == ([3, 5, 4, 2], [3, 5, 4, 1])
    loaded, meta = load_checkpoint(path)
    assert meta == {"agent": "constraint", "steps": 1000}
    _assert_same_checkpoint(loaded, params)


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
    for text in [
        "not json at all {",
        '{"format_version": 3, "actor": [' + "9" * 5000 + "]}",
    ]:
        path.write_text(text)
        with pytest.raises(SchemaError, match="not valid JSON") as error:
            load_checkpoint(path)
        assert "\n" not in str(error.value)


def test_checkpoint_rejects_dimension_mismatch(tmp_path):
    """The critic must take the actor's inputs to one value."""
    params = _small_policy()
    path = tmp_path / "policy.json"
    save_checkpoint(params, path)
    saved = json.loads(path.read_text())
    # two outputs, a wider input, a narrower input
    for critic in [[3, 5, 4, 2], [4, 5, 4, 1], [2, 1]]:
        doc = dict(saved, critic=critic)
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match="critic must map 3 inputs to 1 value"):
            load_checkpoint(path)


# -- checkpoint companions -----------------------------------------------------

COMPANION_POLICIES = {
    "small": dict(seed=3),
    "dual_sized": dict(seed=0, obs_dim=8, action_dim=6, hidden=(64, 64)),
}


def _arrays(params):
    """Every array of the policy, each a view of its vector."""
    a, c = params.actor, params.critic
    return [*a.weights, *a.biases, params.log_sigma, *c.weights, *c.biases]


def _assert_same_checkpoint(a, b):
    assert a.vector.dtype == b.vector.dtype == np.float64
    assert a.vector.tobytes() == b.vector.tobytes()
    assert [x.shape for x in _arrays(a)] == [y.shape for y in _arrays(b)]


def _saved(array, **kwargs):
    """The bytes ``np.save`` writes for ``array``."""
    buf = io.BytesIO()
    np.save(buf, array, **kwargs)
    return buf.getvalue()


@pytest.mark.parametrize("policy", list(COMPANION_POLICIES))
def test_checkpoint_load_returns_the_saved_vector(tmp_path, policy):
    params = _small_policy(**COMPANION_POLICIES[policy])
    path = tmp_path / "checkpoint.json"
    meta = {"agent": "dual", "frame_skip": 4, "nested": {"steps": [1, 2.5]}}
    save_checkpoint(params, path, meta=meta)

    # The document holds each network's layer sizes, every one an int, and
    # no value; the arrays file is the vector as ``np.save`` writes it, and
    # nothing else.
    doc = json.loads(path.read_text())
    assert list(doc) == ["format_version", "actor", "critic", "meta", "arrays_sha256"]
    assert doc["actor"] == list(params.actor.sizes)
    assert doc["critic"] == list(params.critic.sizes)
    assert all(type(n) is int for n in doc["actor"] + doc["critic"])
    data = (tmp_path / "checkpoint.json.arrays").read_bytes()
    assert data == _saved(params.vector, allow_pickle=False)
    assert doc["arrays_sha256"] == hashlib.sha256(data).hexdigest()

    loaded, loaded_meta = load_checkpoint(path)
    assert loaded_meta == meta
    _assert_same_checkpoint(loaded, params)
    vector = loaded.vector
    assert vector.flags.writeable and vector.flags.c_contiguous
    assert all(np.shares_memory(x, vector) for x in _arrays(loaded))
    obs = np.random.default_rng(1).uniform(-1, 2, (17, params.obs_dim))
    assert (
        deterministic_action(loaded, obs).tobytes()
        == deterministic_action(params, obs).tobytes()
    )
    save_checkpoint(loaded, tmp_path / "again.json", meta=loaded_meta)
    for suffix in ("", ".arrays"):
        again = (tmp_path / f"again.json{suffix}").read_bytes()
        assert again == (tmp_path / f"checkpoint.json{suffix}").read_bytes(), suffix


def test_saving_a_checkpoint_twice_writes_identical_files(tmp_path):
    params = _small_policy(seed=4)
    for name in ("a.json", "b.json"):
        save_checkpoint(params, tmp_path / name, meta={"agent": "dual"})
    for suffix in ("", ".arrays"):
        first = (tmp_path / f"a.json{suffix}").read_bytes()
        assert first == (tmp_path / f"b.json{suffix}").read_bytes(), suffix


def _broken_checkpoint_companions(path):
    """Checkpoints that must not load, by name: an edit of the document, the
    bytes of the arrays file beside it and the error the load must raise. The
    document records the SHA-256 of those bytes unless the edit says
    otherwise, so each case reaches the check it is for."""
    data = Path(f"{path}.arrays").read_bytes()
    vector = np.load(io.BytesIO(data), allow_pickle=False)
    key = json.loads(Path(path).read_text())["arrays_sha256"]

    def same(doc):
        pass

    def sizes(net, value):
        return lambda doc: doc.update({net: value})

    stale, not_saved, not_a_vector = "SHA-256", "not a saved array", "1-D float64"
    unfilled, bad_sizes = "do not fill the shapes", "expected layer sizes"
    yield "stale", lambda doc: doc.update(arrays_sha256=key), _saved(vector + 1), stale
    yield "unrecorded", lambda doc: doc.pop("arrays_sha256"), data, stale
    for cut in (0, 10, 64, 128, len(data) - 8):
        yield f"truncated_at_{cut}", same, data[:cut], not_saved
    yield "garbage", same, bytes(range(256)) * 64, not_saved
    yield "pickled_object_array", same, _saved(vector.astype(object)), not_saved
    yield "float32", same, _saved(vector.astype(np.float32)), not_a_vector
    yield "two_dimensional", same, _saved(vector.reshape(1, -1)), not_a_vector
    npz = io.BytesIO()
    np.savez(npz, vector=vector)
    yield "npz_archive", same, npz.getvalue(), not_a_vector
    yield "too_short", same, _saved(vector[:-1]), unfilled
    yield "too_long", same, _saved(np.append(vector, 0.0)), unfilled
    yield "text_sizes", sizes("actor", ["3", 5, 4, 2]), data, bad_sizes
    yield "float_sizes", sizes("actor", [3, 5.0, 4, 2]), data, bad_sizes
    yield "bool_sizes", sizes("critic", [3, 5, 4, True]), data, bad_sizes
    yield "scalar_sizes", sizes("actor", 3), data, bad_sizes
    yield "single_size", sizes("actor", [3]), data, bad_sizes
    yield "no_sizes", sizes("critic", []), data, bad_sizes
    yield "zero_size", sizes("actor", [3, 0, 4, 2]), data, bad_sizes
    yield "negative_size", sizes("actor", [3, -5, 4, 2]), data, bad_sizes
    yield "sizes_not_a_list", sizes("critic", "3x5x4x1"), data, bad_sizes
    yield "missing_sizes", lambda doc: doc.pop("actor"), data, bad_sizes
    # sizes that chain but are not the vector's: the shapes do not fill it
    yield "wider_hidden_layer", sizes("actor", [3, 6, 4, 2]), data, unfilled


def test_a_broken_companion_is_a_one_line_schema_error(tmp_path):
    params = _small_policy(seed=5)
    path = tmp_path / "checkpoint.json"
    save_checkpoint(params, path, meta={"agent": "dual"})
    original = json.loads(path.read_text())
    companion = tmp_path / "checkpoint.json.arrays"
    for name, edit, content, message in _broken_checkpoint_companions(path):
        doc = json.loads(json.dumps(original))
        doc["arrays_sha256"] = hashlib.sha256(content).hexdigest()
        edit(doc)
        path.write_text(json.dumps(doc) + "\n")
        companion.write_bytes(content)
        with pytest.raises(SchemaError, match=message) as error:
            load_checkpoint(path)
        assert "\n" not in str(error.value), name
    # A companion that cannot be read is a file error, as a missing document is.
    path.write_text(json.dumps(original) + "\n")
    companion.unlink()
    with pytest.raises(FileNotFoundError):
        load_checkpoint(path)
    companion.mkdir()
    with pytest.raises(OSError):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "edit, message",
    [
        (
            lambda doc: doc.update(actor=["wide"] * 4),
            "actor: expected layer sizes, a list of two or more positive integers",
        ),
        (
            lambda doc: doc.update(critic=[4, 5, 4, 1]),
            "critic must map 3 inputs to 1 value",
        ),
        (None, "not valid JSON"),
    ],
    ids=["text_sizes", "critic_of_another_width", "not_utf8"],
)
def test_a_checkpoint_edited_in_place_ignores_its_stale_companion(
    tmp_path, edit, message
):
    """The document is checked before its companion is read, so an edit that
    breaks it fails alike beside the companion and without one."""
    path = tmp_path / "checkpoint.json"
    save_checkpoint(_small_policy(), path)
    if edit is None:
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2] + b"\xff" + data[len(data) // 2 :])
    else:
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc) + "\n")
    with pytest.raises(SchemaError, match=message) as beside_companion:
        load_checkpoint(path)
    (tmp_path / "checkpoint.json.arrays").unlink()
    with pytest.raises(SchemaError) as alone:
        load_checkpoint(path)
    assert str(beside_companion.value) == str(alone.value)
