import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pumpsched import (
    AgentKind,
    FrameSkipEnv,
    PumpSchedulingEnv,
    TariffSchedule,
    ValidationError,
    demands_from_rng,
    sample_episode,
    sample_operational_episode,
)
from pumpsched.env import (
    CONSTRAINT_WEIGHT,
    ENERGY_WEIGHT,
    closed_loop,
    reward_constraint_step,
    reward_dual,
)
from pumpsched.network import STEPS_PER_DAY
from pumpsched.simulate import run_day
from pumpsched.training import EnvSpec


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
    # Only an unvalidated topology can hold a tariff without spread.
    flat = TariffSchedule(values=(0.1,) * STEPS_PER_DAY)
    with pytest.raises(ValidationError, match="tariff must have min strictly below"):
        dataclasses.replace(world, tariff=flat).compiled


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
    tariff = np.array(world.tariff.values)
    tariff_norm = (tariff - tariff.min()) / (tariff.max() - tariff.min())
    assert obs[7] == pytest.approx(tariff_norm[0])  # the price of step 0

    for t in range(1, STEPS_PER_DAY + 1):
        result = env.step(np.full(6, 0.5))
        assert result.observation[6] == pytest.approx(t / STEPS_PER_DAY)
        # After the last step the price is the next day's first.
        price = tariff_norm[t % STEPS_PER_DAY]
        assert result.observation[7] == pytest.approx(price)
    assert result.done


def test_episode_terminates_at_96(world):
    env = _env(world)
    env.reset(*_episode(world))
    action = np.full(6, 0.4)
    for t in range(STEPS_PER_DAY):
        result = env.step(action)
        assert result.done == (t == STEPS_PER_DAY - 1)
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
    result = env.step(np.full(6, 0.5))
    lb, ub = world.compiled.lower, world.compiled.upper
    levels = env.trajectory().states[1] if result.done else None
    # Reward must equal the rule applied to the post-step levels.
    inside = result.info["in_bounds"]
    assert result.reward == float(inside.sum() - (~inside).sum())


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
    np.testing.assert_array_equal(traj.costs, ref.costs)


def test_every_env_step_reports_its_cost_energy_and_reward(world):
    # The env fills a step's energy and cost right after advancing, before
    # the dual reward and the step info read them.
    from pumpsched import simulate

    env = _env(world, AgentKind.DUAL)
    levels, demands = _episode(world)
    env.reset(levels, demands)
    schedule = np.random.default_rng(4).uniform(0.0, 1.0, (STEPS_PER_DAY, 6))
    results = [env.step(schedule[t]) for t in range(STEPS_PER_DAY)]
    ref = simulate(world, levels, schedule, demands)
    lb, ub = world.compiled.lower, world.compiled.upper
    tariff_norm, energy_span = world.compiled.tariff_norm, world.compiled.energy_span
    for t, result in enumerate(results):
        assert result.info["step_cost"] == float(ref.costs[t])
        assert result.info["step_energy"] == float(ref.energies[t].sum())
        reward = reward_dual(
            ref.states[t + 1], lb, ub, ref.energies[t], float(tariff_norm[t]),
            energy_span,
        )  # fmt: skip
        assert result.reward == reward
    assert env.trajectory().energies.tobytes() == ref.energies.tobytes()


@pytest.mark.parametrize("kind", list(AgentKind))
def test_each_observation_row_is_levels_clock_and_current_price(world, kind):
    # Before step t, every lane sees its levels over caps; the dual agent also
    # sees t/96 and the min-max normalized price of step t. No other input.
    tariff = np.array(world.tariff.values)
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


# -- frame-skip wrapper -------------------------------------------------------


def test_frame_skip_decision_count(world):
    env = FrameSkipEnv(_env(world, AgentKind.DUAL), 8)
    env.reset(*_episode(world))
    steps = 0
    done = False
    while not done:
        result = env.step(np.full(6, 0.5))
        steps += 1
        done = result.done
    assert steps == 12


def test_frame_skip_rejects_bad_window(world):
    with pytest.raises(ValidationError):
        FrameSkipEnv(_env(world), 7)  # does not divide 96
    with pytest.raises(ValidationError):
        FrameSkipEnv(_env(world), 0)


def test_frame_skip_reward_sums_inner_rewards(world):
    rng = np.random.default_rng(5)
    decisions = rng.uniform(0.2, 0.8, (12, 6))

    wrapped = FrameSkipEnv(_env(world, AgentKind.DUAL), 8)
    wrapped.reset(*_episode(world))
    wrapped_rewards = [wrapped.step(decisions[i]).reward for i in range(12)]

    plain = _env(world, AgentKind.DUAL)
    plain.reset(*_episode(world))
    inner = [plain.step(decisions[t // 8]).reward for t in range(STEPS_PER_DAY)]

    for i in range(12):
        window_sum = sum(inner[i * 8 : (i + 1) * 8])
        assert wrapped_rewards[i] == pytest.approx(window_sum, abs=1e-12)
    assert sum(wrapped_rewards) == pytest.approx(sum(inner), abs=1e-12)


def test_frame_skip_window_one_is_identity(world):
    action = np.full(6, 0.45)
    wrapped = FrameSkipEnv(_env(world), 1)
    wrapped.reset(*_episode(world))
    plain = _env(world)
    plain.reset(*_episode(world))
    for _ in range(STEPS_PER_DAY):
        a = wrapped.step(action)
        b = plain.step(action)
        assert a.reward == b.reward
        np.testing.assert_array_equal(a.observation, b.observation)
        assert a.done == b.done


def test_frame_skip_whole_day_window(world):
    action = np.full(6, 0.35)
    wrapped = FrameSkipEnv(_env(world), 96)
    wrapped.reset(*_episode(world))
    result = wrapped.step(action)
    assert result.done

    plain = _env(world)
    plain.reset(*_episode(world))
    total = sum(plain.step(action).reward for _ in range(STEPS_PER_DAY))
    assert result.reward == pytest.approx(total, abs=1e-12)


def test_frame_skip_toggle_bound(world):
    rng = np.random.default_rng(1)
    env = FrameSkipEnv(_env(world), 8)
    env.reset(*_episode(world))
    done = False
    while not done:
        done = env.step(rng.uniform(0.0, 1.0, 6)).done
    actions = env.trajectory().actions
    changes = int((np.abs(np.diff(actions, axis=0)).sum(axis=1) > 0).sum())
    assert changes <= 11


@pytest.mark.parametrize("kind", list(AgentKind))
@pytest.mark.parametrize("window", [1, 8])
def test_closed_loop_day_matches_the_env_episode(world, kind, window):
    weights = np.random.default_rng(4).normal(0.0, 0.1, (6 + 2, 6))

    def act_fn(obs):
        return np.clip(0.5 + obs @ weights[: obs.shape[0]], 0.0, 1.0)

    levels, demands = _episode(world)
    env = FrameSkipEnv(_env(world, kind), window)
    obs = env.reset(levels, demands)
    for _ in range(STEPS_PER_DAY // window):
        obs = env.step(act_fn(obs)).observation
    expected = env.trajectory()
    traj = run_day(world, levels, demands, closed_loop(world, kind, act_fn, window))
    for name in ("states", "actions", "powers", "energies", "costs"):
        np.testing.assert_array_equal(getattr(traj, name), getattr(expected, name))
    with pytest.raises(ValidationError):
        closed_loop(world, kind, act_fn, 7)


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
    assert margins_a.triggers.shape == (2, world.n_stations)
    np.testing.assert_array_equal(levels_a, levels_b)
    np.testing.assert_array_equal(demands_a, demands_b)
    np.testing.assert_array_equal(margins_a.triggers, margins_b.triggers)
    np.testing.assert_array_equal(margins_a.releases, margins_b.releases)


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
            (margins.triggers, alone_margins.triggers),
            (margins.releases, alone_margins.releases),
        ):
            assert lanes[k].tobytes() == single[0].tobytes()


def test_sample_operational_episode_burn_moves_levels(world):
    levels, _, _ = sample_operational_episode(world, [np.random.default_rng(7)])
    assert not np.array_equal(levels[0], world.compiled.initial_levels)
    assert np.all(levels >= 0.0)
    assert np.all(levels <= world.compiled.caps)
