import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pumpsched import (
    AgentKind,
    ValidationError,
    demands_from_rng,
    sample_episode,
    sample_operational_episode,
)
from pumpsched.env import (
    CONSTRAINT_WEIGHT,
    ENERGY_WEIGHT,
    PumpSchedulingEnv,
    _observation,
    closed_loop,
    day_rewards,
    reward_constraint_step,
    reward_dual,
)
from pumpsched.network import STEPS_PER_DAY
from pumpsched.policy import init_policy, policy_act_fn
from pumpsched.simulate import run_day, step_costs, step_energies
from pumpsched.training import EnvSpec

from test_simulator import _all_in_one_day


def _episode(world, levels=None):
    """An episode's start levels and zone demands."""
    start = world.compiled.initial_levels if levels is None else np.asarray(levels)
    return start, demands_from_rng(world, np.random.default_rng(8))


def _env(world, kind=AgentKind.CONSTRAINT):
    return PumpSchedulingEnv(world, kind)


# -- reward oracles -----------------------------------------------------------


def test_constraint_reward_all_in():
    levels = np.full(6, 4.0)
    assert reward_constraint_step(levels, np.full(6, 2.0), np.full(6, 6.0)) == 6.0


def test_constraint_reward_all_out():
    levels = np.full(6, 9.0)
    assert reward_constraint_step(levels, np.full(6, 2.0), np.full(6, 6.0)) == -6.0


def test_constraint_reward_mixed():
    levels = np.array([3.0, 3.0, 3.0, 3.0, 1.0, 7.0])
    assert reward_constraint_step(levels, np.full(6, 2.0), np.full(6, 6.0)) == 2.0


def test_constraint_reward_has_even_parity():
    rng = np.random.default_rng(0)
    lb, ub = np.full(6, 2.0), np.full(6, 6.0)
    for _ in range(100):
        r = reward_constraint_step(rng.uniform(0.0, 8.0, 6), lb, ub)
        assert r in {-6.0, -4.0, -2.0, 0.0, 2.0, 4.0, 6.0}


UNIT_ENERGY = np.ones(6)


def test_dual_reward_best_case():
    levels = np.full(6, 4.0)
    lb, ub = np.full(6, 2.0), np.full(6, 6.0)
    r = reward_dual(levels, lb, ub, np.zeros(6), 1.0, UNIT_ENERGY)
    assert r == pytest.approx(1.0, abs=1e-12)


def test_dual_reward_worst_case():
    levels = np.full(6, 9.0)
    lb, ub = np.full(6, 2.0), np.full(6, 6.0)
    r = reward_dual(levels, lb, ub, np.ones(6), 1.0, UNIT_ENERGY)
    assert r == pytest.approx(0.0, abs=1e-12)


def test_dual_reward_mixed_case():
    # 4 tanks in band, 2 out, normalized energy 0.2 per station at tariff 1:
    # 0.7 * (8/12) + 0.3 * (1 - 0.2).
    levels = np.array([3.0, 3.0, 3.0, 3.0, 1.0, 7.0])
    r = reward_dual(
        levels, np.full(6, 2.0), np.full(6, 6.0), np.full(6, 0.2), 1.0, UNIT_ENERGY
    )
    assert r == pytest.approx(0.7 * 8.0 / 12.0 + 0.3 * 0.8, abs=1e-12)
    assert round(r, 5) == 0.70667


def test_dual_reward_single_tank_step_size():
    lb, ub = np.full(6, 2.0), np.full(6, 6.0)
    energies = np.full(6, 0.37)
    out = np.array([3.0, 3.0, 3.0, 3.0, 3.0, 7.0])
    back_in = np.array([3.0, 3.0, 3.0, 3.0, 3.0, 5.0])
    gain = reward_dual(back_in, lb, ub, energies, 0.6, UNIT_ENERGY) - reward_dual(
        out, lb, ub, energies, 0.6, UNIT_ENERGY
    )
    assert gain == pytest.approx(0.7 * 2.0 / 12.0, abs=1e-12)


@settings(max_examples=300, deadline=None)
@given(
    levels=st.lists(
        st.floats(min_value=-5.0, max_value=15.0, allow_nan=False),
        min_size=6,
        max_size=6,
    ),
    energy=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    tariff=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
def test_dual_reward_stays_in_unit_interval(levels, energy, tariff):
    r = reward_dual(
        np.array(levels),
        np.full(6, 2.0),
        np.full(6, 6.0),
        np.full(6, energy),
        tariff,
        UNIT_ENERGY,
    )
    assert 0.0 <= r <= 1.0


def test_normalize_tariff_unit_range(world):
    norm = world.compiled.tariff_norm
    assert norm.min() == 0.0
    assert norm.max() == 1.0
    # A tariff without spread has no normalization: no topology can hold one.
    message = "tariff: min must be strictly below max"
    with pytest.raises(ValidationError, match=message):
        dataclasses.replace(world, tariff=(0.1,) * STEPS_PER_DAY)


def test_dual_reward_needs_an_energy_span_on_every_station():
    levels, bounds = np.full(6, 4.0), (np.full(6, 2.0), np.full(6, 6.0))
    span = np.array([1.0, 1.0, 0.0, 1.0, 1.0, 1.0])  # a station rated at 0 kW
    with pytest.raises(ValidationError, match="strictly positive rated power"):
        reward_dual(levels, *bounds, np.zeros(6), 0.5, span)
    assert CONSTRAINT_WEIGHT + ENERGY_WEIGHT == 1.0


# -- episode lifecycle --------------------------------------------------------


def test_observation_dimensions(world):
    obs = _env(world, AgentKind.CONSTRAINT).reset(*_episode(world))
    assert obs.shape == (6,)

    obs = _env(world, AgentKind.DUAL).reset(*_episode(world))
    assert obs.shape == (8,)


def test_levels_normalized_by_physical_cap(world):
    env = _env(world)
    obs = env.reset(*_episode(world, levels=world.compiled.caps))
    np.testing.assert_allclose(obs, np.ones(6))


def test_dual_observation_layout(world):
    env = _env(world, AgentKind.DUAL)
    obs = env.reset(*_episode(world))
    np.testing.assert_allclose(
        obs[:6], world.compiled.initial_levels / world.compiled.caps
    )
    assert obs[6] == 0.0  # t/96 at reset
    tariff = np.array(world.tariff)
    tariff_norm = (tariff - tariff.min()) / (tariff.max() - tariff.min())
    assert obs[7] == pytest.approx(tariff_norm[0])  # the price of step 0

    for t in range(1, STEPS_PER_DAY + 1):
        obs, _, done, _ = env.step(np.full(6, 0.5))
        assert obs[6] == pytest.approx(t / STEPS_PER_DAY)
        # After the last step the price is the next day's first.
        assert obs[7] == pytest.approx(tariff_norm[t % STEPS_PER_DAY])
    assert done


def test_episode_terminates_at_96(world):
    env = _env(world)
    env.reset(*_episode(world))
    action = np.full(6, 0.4)
    for t in range(STEPS_PER_DAY):
        _, _, done, _ = env.step(action)
        assert done == (t == STEPS_PER_DAY - 1)
    with pytest.raises(ValidationError, match="finished"):
        env.step(action)


def test_step_before_reset_rejected(world):
    env = _env(world)
    with pytest.raises(ValidationError, match="reset"):
        env.step(np.zeros(6))


def test_reset_validates_levels(world):
    env = _env(world)
    with pytest.raises(ValidationError):
        env.reset(*_episode(world, levels=np.full(6, 100.0)))
    with pytest.raises(ValidationError):
        env.reset(*_episode(world, levels=np.full(5, 4.0)))


def test_constraint_reward_flows_through_env(world):
    env = _env(world)
    env.reset(*_episode(world))
    _, reward, _, info = env.step(np.full(6, 0.5))
    # Reward must equal the rule applied to the post-step levels.
    inside = info["in_bounds"]
    assert reward == float(inside.sum() - (~inside).sum())


def test_trajectory_matches_simulator(world):
    from pumpsched import simulate

    env = _env(world)
    levels, demands = _episode(world)
    env.reset(levels, demands)
    rng = np.random.default_rng(3)
    schedule = rng.uniform(0.2, 0.8, (STEPS_PER_DAY, 6))
    for t in range(STEPS_PER_DAY):
        env.step(schedule[t])
    traj = env.trajectory()
    ref = simulate(world, levels, schedule, demands)
    np.testing.assert_array_equal(traj.states, ref.states)
    np.testing.assert_array_equal(traj.actions, ref.actions)


def test_every_env_step_reports_its_cost_energy_and_reward(world):
    # The env prices a step from its action after advancing, the cost at the
    # tariff of the step it took; the oracle works out every record beside
    # the level recursion, one step at a time.
    env = _env(world, AgentKind.DUAL)
    levels, demands = _episode(world)
    env.reset(levels, demands)
    schedule = np.random.default_rng(4).uniform(0.0, 1.0, (STEPS_PER_DAY, 6))
    results = [env.step(schedule[t]) for t in range(STEPS_PER_DAY)]
    c = world.compiled
    ref, _ = _all_in_one_day(c, levels, schedule, demands)
    for t, (_, reward, _, info) in enumerate(results):
        assert info["step_cost"] == float(ref["costs"][t])
        assert info["step_energy"] == float(ref["energies"][t].sum())
        assert reward == reward_dual(
            ref["states"][t + 1], c.lower, c.upper, ref["energies"][t],
            float(c.tariff_norm[t]), c.energy_span,
        )  # fmt: skip
    actions = env.trajectory().actions
    assert step_energies(c, actions).tobytes() == ref["energies"].tobytes()
    assert step_costs(c, actions).tobytes() == ref["costs"].tobytes()


@pytest.mark.parametrize("kind", list(AgentKind))
def test_each_observation_row_is_levels_clock_and_current_price(world, kind):
    # Before step t, every lane sees its levels over caps; the dual agent also
    # sees t/96 and the min-max normalized price of step t. No other input.
    tariff = np.array(world.tariff)
    tariff_norm = (tariff - tariff.min()) / (tariff.max() - tariff.min())
    rng = np.random.default_rng(9)
    episodes = [sample_episode(world, rng) for _ in range(3)]
    levels, demands = (np.array(arrays) for arrays in zip(*episodes))
    rows = []

    def act_fn(obs):
        rows.append(obs.copy())
        return np.full((len(levels), 6), 0.4)

    day = run_day(world, levels, demands, closed_loop(world, kind, act_fn))
    caps = world.compiled.caps
    for t, row in enumerate(rows):
        for k in range(len(levels)):
            expected = day.states[t, k] / caps
            if kind == AgentKind.DUAL:
                expected = [*expected, t / STEPS_PER_DAY, tariff_norm[t]]
            np.testing.assert_allclose(row[k], expected, rtol=1e-12)
            assert EnvSpec(world, kind).obs_dim == len(row[k]) == len(expected)
    assert len(rows) == STEPS_PER_DAY


@pytest.mark.parametrize("kind", list(AgentKind))
def test_a_closed_loop_whose_lane_count_changes_equals_each_lane_alone(world, kind):
    # As in ``inject``: each step hands the loop only the lanes inside their
    # window, so its observation's row count changes during the day: 1, 2, 3,
    # 2 and 1 rows. Each lane equals its day rolled alone, and ``act_fn`` sees
    # exactly the rows the env would show those lanes.
    params = init_policy(kind.obs_dim(world.n_tanks), 6, np.random.default_rng(4))
    act_fn = policy_act_fn(params)
    rng = np.random.default_rng(12)
    episodes = [sample_episode(world, rng) for _ in range(3)]
    levels, demands = (np.array(arrays) for arrays in zip(*episodes))
    schedules = rng.uniform(0.0, 1.0, (3, STEPS_PER_DAY, 6))
    windows = np.array([(0, STEPS_PER_DAY), (10, 40), (30, 90)])
    row_counts, seen = set(), []

    def recording(obs):
        row_counts.add(len(obs))
        seen.append(obs.copy())
        return act_fn(obs)

    policy = closed_loop(world, kind, recording)

    def act(t, lanes):
        inside = (windows[:, 0] <= t) & (t < windows[:, 1])
        action = schedules[:, t].copy()
        action[inside] = policy(t, lanes[inside])
        return action

    day = run_day(world, levels, demands, act)
    assert row_counts == {1, 2, 3}
    for t, obs in enumerate(seen):
        inside = (windows[:, 0] <= t) & (t < windows[:, 1])
        expected = _observation(kind, day.states[t, inside], t, world.compiled)
        assert obs.tobytes() == expected.tobytes()
    for k, (start, end) in enumerate(windows):
        alone_policy = closed_loop(world, kind, act_fn)

        def alone(t, lane, k=k, start=start, end=end):
            if start <= t < end:
                return alone_policy(t, lane)
            return schedules[k, t]

        rolled = run_day(world, levels[k], demands[k], alone)
        assert day.lane(k).states.tobytes() == rolled.states.tobytes()
        assert day.lane(k).actions.tobytes() == rolled.actions.tobytes()


# -- frame skip: closed_loop holding each action for a window ---------------


def _held_day(world, kind, act_fn, window):
    """The day ``run_day`` rolls from ``_episode`` as one lane under
    ``closed_loop``, with ``act_fn`` given and giving that lane's row, and
    the lane's ``day_rewards``."""
    levels, demands = _episode(world)
    act = closed_loop(world, kind, lambda obs: act_fn(obs[0])[None], window)
    day = run_day(world, levels[None], demands[None], act)
    return day, day_rewards(world, kind, day)[:, 0]


def test_frame_skip_decision_count(world):
    """A window of 8 asks for 12 decisions a day, at the steps the dual
    observation's clock names: 0, 8, ..., 88."""
    clocks = []

    def act_fn(obs):
        clocks.append(round(obs[6] * STEPS_PER_DAY))
        return np.full(6, 0.5)

    _held_day(world, AgentKind.DUAL, act_fn, 8)
    assert clocks == list(range(0, STEPS_PER_DAY, 8))


def test_frame_skip_rejects_bad_window(world):
    for window in (7, 0, -8, 2 * STEPS_PER_DAY):  # each fails to divide 96
        with pytest.raises(ValidationError, match="frame-skip window"):
            closed_loop(world, AgentKind.CONSTRAINT, lambda obs: obs, window)


def test_frame_skip_reward_sums_inner_rewards(world):
    """Under a window of 8, ``day_rewards`` gives the env's reward for every
    step, and each decision's window sums the env's rewards of its steps."""
    decisions = np.random.default_rng(5).uniform(0.2, 0.8, (12, 6))
    chosen = iter(decisions)
    _, per_step = _held_day(world, AgentKind.DUAL, lambda obs: next(chosen), 8)

    plain = _env(world, AgentKind.DUAL)
    plain.reset(*_episode(world))
    inner = [plain.step(decisions[t // 8])[1] for t in range(STEPS_PER_DAY)]
    assert per_step.tobytes() == np.array(inner).tobytes()
    window_sums = [sum(inner[i * 8 : (i + 1) * 8]) for i in range(12)]
    np.testing.assert_allclose(
        per_step.reshape(12, 8).sum(axis=1), window_sums, rtol=0, atol=1e-12
    )
    assert sum(window_sums) == pytest.approx(float(per_step.sum()), abs=1e-12)


def test_frame_skip_window_one_is_identity(world):
    """A window of 1 asks for a decision every step and holds nothing: the day
    equals the one rolled from that schedule directly."""
    schedule = np.random.default_rng(6).uniform(0.0, 1.0, (STEPS_PER_DAY, 6))
    chosen = iter(schedule)
    day, _ = _held_day(world, AgentKind.CONSTRAINT, lambda obs: next(chosen), 1)
    levels, demands = _episode(world)
    direct = run_day(
        world, levels[None], demands[None], lambda t, lv: schedule[t][None]
    )
    assert next(chosen, None) is None
    for name in ("states", "actions"):
        assert getattr(day, name).tobytes() == getattr(direct, name).tobytes()


def test_frame_skip_whole_day_window(world):
    """A window of 96 asks for one decision and holds it all day; the day's
    rewards add up to the env's over 96 steps of that action."""
    action = np.full(6, 0.35)
    calls = []
    day, rewards = _held_day(
        world, AgentKind.CONSTRAINT, lambda obs: calls.append(obs) or action, 96
    )
    assert len(calls) == 1
    assert np.all(day.actions == action)

    plain = _env(world)
    plain.reset(*_episode(world))
    total = sum(plain.step(action)[1] for _ in range(STEPS_PER_DAY))
    assert float(rewards.sum()) == pytest.approx(total, abs=1e-12)


def test_frame_skip_toggle_bound(world):
    rng = np.random.default_rng(1)
    day, _ = _held_day(
        world, AgentKind.CONSTRAINT, lambda obs: rng.uniform(0.0, 1.0, 6), 8
    )
    changes = int((np.abs(np.diff(day.actions[:, 0], axis=0)).sum(axis=1) > 0).sum())
    assert changes <= 11


@pytest.mark.parametrize("kind", list(AgentKind))
@pytest.mark.parametrize("window", [1, 8])
def test_closed_loop_day_matches_the_env_episode(world, kind, window):
    """``closed_loop`` rolls the day the env steps when each decision is held
    for ``window`` steps, and ``day_rewards`` gives the env's step rewards."""
    weights = np.random.default_rng(4).normal(0.0, 0.1, (6 + 2, 6))

    def act_fn(obs):
        return np.clip(0.5 + obs @ weights[: obs.shape[0]], 0.0, 1.0)

    levels, demands = _episode(world)
    env = _env(world, kind)
    obs = env.reset(levels, demands)
    rewards = []
    for _ in range(STEPS_PER_DAY // window):
        action = act_fn(obs)
        for _ in range(window):
            obs, reward, _, _ = env.step(action)
            rewards.append(reward)
    expected = env.trajectory()
    traj = run_day(world, levels, demands, closed_loop(world, kind, act_fn, window))
    for name in ("states", "actions"):
        np.testing.assert_array_equal(getattr(traj, name), getattr(expected, name))
    _, lane_rewards = _held_day(world, kind, act_fn, window)
    assert lane_rewards.tobytes() == np.array(rewards).tobytes()


@pytest.mark.parametrize("kind", list(AgentKind))
def test_day_rewards_of_a_lane_less_day_equal_its_one_lane_roll(world, kind):
    """A day rolled without a lane axis gets one reward per step, the bytes of
    lane 0 of the same day rolled as one lane."""
    schedule = np.random.default_rng(7).uniform(0.0, 1.0, (STEPS_PER_DAY, 6))
    levels, demands = _episode(world)
    plain = run_day(world, levels, demands, lambda t, lv: schedule[t])
    laned = run_day(world, levels[None], demands[None], lambda t, lv: schedule[t][None])
    rewards = day_rewards(world, kind, plain)
    assert rewards.shape == (STEPS_PER_DAY,)
    assert rewards.tobytes() == day_rewards(world, kind, laned)[:, 0].copy().tobytes()


# -- episode sampling ---------------------------------------------------------


def test_sample_episode_levels_in_band(world):
    lb, ub = world.compiled.lower, world.compiled.upper
    rng = np.random.default_rng(2)
    for _ in range(20):
        levels, _ = sample_episode(world, rng)
        assert np.all(levels >= lb)
        assert np.all(levels <= ub)


def test_sample_episode_overhang_widens_starts(world):
    lb, ub = world.compiled.lower, world.compiled.upper
    rng = np.random.default_rng(2)
    seen_outside = False
    for _ in range(200):
        levels, _ = sample_episode(world, rng, start_overhang=0.5)
        assert np.all(levels >= 0.0)
        assert np.all(levels <= world.compiled.caps)
        if np.any(levels < lb) or np.any(levels > ub):
            seen_outside = True
    assert seen_outside


def test_sample_operational_episode_deterministic(world):
    seeds = (31, 32)
    levels_a, demands_a, margins_a = sample_operational_episode(
        world, [np.random.default_rng(s) for s in seeds]
    )
    levels_b, demands_b, margins_b = sample_operational_episode(
        world, [np.random.default_rng(s) for s in seeds]
    )
    assert levels_a.shape == (2, world.n_tanks)
    assert demands_a.shape == (2, world.n_zones, STEPS_PER_DAY)
    assert margins_a.shape == (2, 2, world.n_stations)  # triggers, releases
    np.testing.assert_array_equal(levels_a, levels_b)
    np.testing.assert_array_equal(demands_a, demands_b)
    np.testing.assert_array_equal(margins_a, margins_b)


def test_sample_operational_episode_lanes_equal_episodes_alone(world):
    seeds = (3, 4, 5)
    levels, demands, margins = sample_operational_episode(
        world, [np.random.default_rng(s) for s in seeds]
    )
    for k, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        alone_levels, alone_demands, alone_margins = sample_operational_episode(
            world, [rng]
        )
        for lanes, single in (
            (levels, alone_levels),
            (demands, alone_demands),
            *zip(margins, alone_margins),  # triggers, then releases
        ):
            assert lanes[k].tobytes() == single[0].tobytes()


def test_sample_operational_episode_burn_moves_levels(world):
    levels, _, _ = sample_operational_episode(world, [np.random.default_rng(7)])
    assert not np.array_equal(levels[0], world.compiled.initial_levels)
    assert np.all(levels >= 0.0)
    assert np.all(levels <= world.compiled.caps)
