import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pumpsched import (
    AgentKind,
    EnvSpec,
    NumericError,
    RuleBasedController,
    TrainConfig,
    ValidationError,
    init_policy,
    margins_for,
    run_controlled_day,
    sample_episode,
    simulate,
)
from pumpsched.env import PumpSchedulingEnv
from pumpsched.network import DT_HOURS, STEPS_PER_DAY, _seed_stream
from pumpsched.policy import gaussian_logp
from pumpsched.simulate import Trajectory, resume_lanes, run_day
from pumpsched.training import START_OVERHANG, _collect_lanes, collect_rollouts

from conftest import flat_demands

def _constant_act(speeds):
    action = np.asarray(speeds, dtype=float)
    return lambda t, levels: action


def _last_step(topology, levels, speeds, demand):
    """The day's final step alone: ``run_day`` from t0 = 95."""
    return run_day(
        topology,
        np.asarray(levels, dtype=float),
        np.full((topology.n_zones, STEPS_PER_DAY), float(demand)),
        _constant_act(speeds),
        t0=STEPS_PER_DAY - 1,
    )


def _env(topology, levels=(4.0, 4.0), demand=0.0):
    """A constraint-agent env reset to ``levels`` under a flat zone demand."""
    env = PumpSchedulingEnv(topology, AgentKind.CONSTRAINT)
    env.reset(np.asarray(levels, dtype=float), flat_demands(topology, demand))
    return env


def _env_first_step(topology, levels, speeds, demand):
    return _env(topology, levels, demand).step(np.asarray(speeds, dtype=float))


def _station_1_day(topology, speed):
    """A tiny-world day with station 1 at ``speed`` and station 2 off, through
    ``simulate`` and through 96 ``env.step`` calls."""
    schedule = np.zeros((STEPS_PER_DAY, 2))
    schedule[:, 0] = speed
    env = _env(topology)
    for t in range(STEPS_PER_DAY):
        env.step(schedule[t])
    initial = np.array([4.0, 4.0])
    demands = flat_demands(topology, 0.0)
    return simulate(topology, initial, schedule, demands), env.trajectory()


def test_pump_power_cubic(tiny_world):
    # Station 1 is rated at 200 kW.
    for speed, power in ((0.5, 25.0), (1.0, 200.0), (0.0, 0.0)):
        for traj in _station_1_day(tiny_world, speed):
            assert np.all(traj.powers[:, 0] == power)
            assert np.all(traj.energies[:, 0] == power * DT_HOURS)


def test_pump_flow_linear(tiny_world):
    # Station 1 moves at most 400 m^3/h into tank 1 (area 1000 m^2); with no
    # demand and station 2 off, tank 1 rises by flow * 0.25 h / 1000 m^2 a step.
    for speed, flow in ((0.5, 200.0), (0.25, 100.0), (0.0, 0.0)):
        for traj in _station_1_day(tiny_world, speed):
            flows = tiny_world.compiled.max_flow * traj.actions
            assert np.all(flows[:, 0] == flow) and np.all(flows[:, 1] == 0.0)
            rise = np.diff(traj.states[:21, 0])
            np.testing.assert_allclose(rise, flow * DT_HOURS / 1000.0, atol=1e-12)


# An inf speed overflows the step arithmetic before the day's check rejects it.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("speed", [-0.01, 1.01, float("nan"), float("inf")])
def test_pump_speed_rejected(tiny_world, zero_demands, speed):
    schedule = np.full((STEPS_PER_DAY, 2), 0.5)
    schedule[50, 0] = speed
    with pytest.raises(ValidationError, match="pump speed"):
        simulate(tiny_world, np.array([4.0, 4.0]), schedule, zero_demands)
    with pytest.raises(ValidationError, match="pump speed"):
        _last_step(tiny_world, [4.0, 4.0], [speed, 0.0], 0.0)
    with pytest.raises(ValidationError, match="pump speed"):
        _env_first_step(tiny_world, [4.0, 4.0], [speed, 0.0], 0.0)


def test_single_step_mass_balance(tiny_world):
    # Station 1 pushes 400 m^3/h into tank 1 (area 1000 m^2) while its zone
    # draws 200 m^3/h: the level must rise exactly (400-200)*0.25/1000 = 0.05 m.
    traj = _last_step(tiny_world, [4.0, 4.0], [1.0, 0.0], 200.0)
    assert traj.states.shape == (2, 2) and traj.costs.shape == (1,)
    assert traj.states[1, 0] == pytest.approx(4.05, abs=1e-12)
    # Tank 2 (area 500) only drains: -200*0.25/500 = -0.1 m.
    assert traj.states[1, 1] == pytest.approx(3.9, abs=1e-12)
    assert traj.powers[0, 0] == pytest.approx(200.0)
    # The tiny-world tariff is 0.1 in the first half of the day, 0.2 after.
    assert traj.costs[0] == pytest.approx(200.0 * DT_HOURS * 0.2)

    result = _env_first_step(tiny_world, [4.0, 4.0], [1.0, 0.0], 200.0)
    assert result.info["t"] == 1
    assert result.info["step_cost"] == pytest.approx(200.0 * DT_HOURS * 0.1)
    np.testing.assert_array_equal(result.observation, traj.states[1] / 8.0)


def test_step_rejects_finished_day(tiny_world, zero_demands):
    def from_step(t0):
        return run_day(
            tiny_world, [4.0, 4.0], zero_demands, _constant_act([0.0, 0.0]), t0
        )

    for t0 in (-1, STEPS_PER_DAY + 1):
        with pytest.raises(ValidationError, match="cannot start"):
            from_step(t0)
    # Starting at the end of the day is the empty rollout.
    empty = from_step(STEPS_PER_DAY)
    assert empty.states.shape == (1, 2) and empty.actions.shape == (0, 2)

    env = _env(tiny_world)
    for _ in range(STEPS_PER_DAY):
        env.step(np.zeros(2))
    with pytest.raises(ValidationError, match="finished"):
        env.step(np.zeros(2))


def test_step_rejects_bad_shapes(tiny_world, zero_demands):
    initial, zeros = np.array([4.0, 4.0]), zero_demands
    with pytest.raises(ValidationError):
        simulate(tiny_world, initial, np.zeros((STEPS_PER_DAY, 3)), zeros)
    for levels, zone_values, speeds in (
        (initial, zeros, np.zeros(3)),
        (initial, np.zeros((5, STEPS_PER_DAY)), np.zeros(2)),
        (np.zeros(3), zeros, np.zeros(2)),
    ):
        with pytest.raises(ValidationError):
            run_day(tiny_world, levels, zone_values, _constant_act(speeds))
    env = _env(tiny_world)
    with pytest.raises(ValidationError, match="action shape"):
        env.step(np.zeros(3))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf * 0 flows
def test_non_finite_levels_raise_numeric_error(tiny_world, zero_demands):
    schedule = np.zeros((STEPS_PER_DAY, 2))
    with pytest.raises(NumericError):
        simulate(tiny_world, np.array([np.nan, 4.0]), schedule, zero_demands)
    with pytest.raises(NumericError):
        run_day(
            tiny_world,
            [4.0, 4.0],
            np.full((2, STEPS_PER_DAY), np.inf),
            _constant_act([0.0, 0.0]),
        )
    with pytest.raises(NumericError):
        _env_first_step(tiny_world, [np.nan, 4.0], [0.0, 0.0], 0.0)
    # An unbounded pump turns a stopped station's flow into inf * 0 = nan.
    s1, s2 = tiny_world.stations
    unbounded = dataclasses.replace(
        tiny_world, stations=(dataclasses.replace(s1, max_flow=np.inf), s2)
    )
    with pytest.raises(NumericError):
        simulate(unbounded, np.array([4.0, 4.0]), schedule, zero_demands)
    with pytest.raises(NumericError):
        _env_first_step(unbounded, [4.0, 4.0], [0.0, 0.0], 0.0)


def test_full_day_cost_oracle(tiny_world, zero_demands):
    # Cost depends on the schedule alone: 200 kW * 0.25 h at every step's
    # tariff, 48 steps at 0.1 and 48 at 0.2, gives 720, even though tank 1
    # hits its physical cap partway through the day.
    schedule = np.zeros((STEPS_PER_DAY, 2))
    schedule[:, 0] = 1.0
    traj = simulate(tiny_world, np.array([4.0, 4.0]), schedule, zero_demands)
    expected = 200.0 * 0.25 * sum(tiny_world.tariff.values)
    assert expected == pytest.approx(720.0)
    assert traj.costs.sum() == pytest.approx(expected, abs=1e-9)
    assert traj.states[-1, 0] == 8.0  # the cap


def test_upper_clamp_freezes_level(tiny_world, zero_demands):
    schedule = np.zeros((STEPS_PER_DAY, 2))
    schedule[:, 0] = 1.0  # +0.1 m per step from 4.0 m, cap at 8.0 m
    traj = simulate(tiny_world, np.array([4.0, 4.0]), schedule, zero_demands)
    np.testing.assert_allclose(traj.states[40:, 0], 8.0, atol=1e-9)
    assert np.all(traj.states[41:, 0] == 8.0)
    raw = traj.states[:-1, 0] + DT_HOURS * 400.0 / 1000.0  # the unclamped update
    np.testing.assert_array_equal(traj.states[1:, 0], np.clip(raw, 0.0, 8.0))
    assert np.all(raw[40:] > 8.0) and np.all(raw[:40] <= 8.0)


def test_every_simulated_day_rejects_a_negative_demand(tiny_world, zero_demands):
    """A whole day, a day from mid-day, lanes of days, a controlled day and an
    env episode all reject a negative zone demand before they roll."""
    negative = zero_demands.copy()
    negative[1, 50] = -1e-9
    start, act = np.array([4.0, 4.0]), _constant_act([0.0, 0.0])
    starts, lanes = np.stack([start] * 3), np.stack([zero_demands, negative, negative])
    rule = RuleBasedController(tiny_world, margins_for(tiny_world, 0.0, None))
    env = PumpSchedulingEnv(tiny_world, AgentKind.CONSTRAINT)
    for roll in (
        lambda: simulate(tiny_world, start, np.zeros((STEPS_PER_DAY, 2)), negative),
        lambda: run_day(tiny_world, start, negative, act, 70),
        lambda: run_day(tiny_world, starts, lanes, lambda t, lv: np.zeros((3, 2))),
        lambda: run_controlled_day(tiny_world, start, rule, negative),
        lambda: env.reset(start, negative),
    ):
        with pytest.raises(ValidationError, match="zone demands must be >= 0"):
            roll()
    run_day(tiny_world, start, zero_demands, act)  # a demand of 0 is fine


def test_lower_clamp_floors_level(tiny_world):
    demands = np.zeros((2, STEPS_PER_DAY))
    demands[0, :] = 400.0  # -0.1 m per step on tank 1
    schedule = np.zeros((STEPS_PER_DAY, 2))
    traj = simulate(tiny_world, np.array([4.0, 4.0]), schedule, demands)
    assert traj.states[40, 0] == pytest.approx(0.0)
    assert np.all(traj.states[40:, 0] == 0.0)
    raw = traj.states[:-1, 0] - DT_HOURS * 400.0 / 1000.0  # the unclamped update
    np.testing.assert_array_equal(traj.states[1:, 0], np.clip(raw, 0.0, 8.0))
    assert np.all(raw[40:] < 0.0)


def test_simulate_deterministic(world):
    rng = np.random.default_rng(7)
    schedule = rng.uniform(0.2, 0.8, (STEPS_PER_DAY, world.n_stations))
    from pumpsched import demands_from_rng

    demands = demands_from_rng(world, np.random.default_rng(5))
    initial = world.compiled.initial_levels
    a = simulate(world, initial, schedule, demands)
    b = simulate(world, initial, schedule, demands)
    np.testing.assert_array_equal(a.states, b.states)
    np.testing.assert_array_equal(a.costs, b.costs)


@settings(max_examples=50, deadline=None)
@given(
    speeds=st.lists(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=2, max_size=2
    ),
    demand=st.floats(min_value=0.0, max_value=500.0, allow_nan=False),
    level=st.floats(min_value=1.0, max_value=7.0, allow_nan=False),
)
def test_step_matches_hand_balance(tiny_world, speeds, demand, level):
    """One step equals the hand-written balance for any valid inputs."""
    flow_1 = 400.0 * speeds[0]
    flow_2 = 200.0 * speeds[1]
    raw_1 = level + DT_HOURS * (flow_1 - flow_2 - demand) / 1000.0
    raw_2 = level + DT_HOURS * (flow_2 - demand) / 500.0
    expect = np.clip([raw_1, raw_2], 0.0, 8.0)
    energy = (200.0 * speeds[0] ** 3 + 80.0 * speeds[1] ** 3) * DT_HOURS

    traj = _last_step(tiny_world, [level, level], speeds, demand)
    np.testing.assert_allclose(traj.states[1], expect, atol=1e-9)
    assert traj.costs[0] == pytest.approx(energy * 0.2, abs=1e-9)

    result = _env_first_step(tiny_world, [level, level], speeds, demand)
    np.testing.assert_allclose(result.observation * 8.0, expect, atol=1e-9)
    assert result.info["step_cost"] == pytest.approx(energy * 0.1, abs=1e-9)


def _inside_the_rails(topology, traj):
    """No step clamped: a clamped level lands on 0 or on its tank's cap."""
    states = traj.states[1:]
    return bool(np.all((states > 0.0) & (states < topology.compiled.caps)))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_mass_conserved_over_full_day(world, seed):
    """Volume change equals net pumped volume minus delivered demand."""
    rng = np.random.default_rng(seed)
    schedule = rng.uniform(0.3, 0.7, (STEPS_PER_DAY, world.n_stations))
    from pumpsched import demands_from_rng

    demands = demands_from_rng(world, np.random.default_rng(seed))
    traj = simulate(world, world.compiled.initial_levels, schedule, demands)
    if not _inside_the_rails(world, traj):
        return  # clamping discards water by design; skip those draws
    areas = world.compiled.areas
    stored = float(((traj.states[-1] - traj.states[0]) * areas).sum())
    flows = world.compiled.max_flow * schedule
    external = 0.0
    for j, station in enumerate(world.stations):
        if station.draws_from is None:
            external += float(flows[:, j].sum()) * DT_HOURS
    delivered = float(demands.sum()) * DT_HOURS
    assert stored == pytest.approx(external - delivered, abs=1e-9 * max(1.0, abs(external)))


def _clamp_free_day(world):
    """A guaranteed in-band day: drive the hysteresis rule with exact margins."""
    from pumpsched import (
        RuleBasedController,
        demands_from_rng,
        margins_for,
        run_controlled_day,
    )

    margins = margins_for(world, 0.0, np.random.default_rng(0))
    controller = RuleBasedController(world, margins)
    demands = demands_from_rng(world, np.random.default_rng(2))
    traj = run_controlled_day(
        world, world.compiled.initial_levels, controller, demands
    )
    return traj.actions, demands


def test_shift_theorem_against_resimulation(world):
    """Flows do not depend on levels, so away from the clamp a day started
    ``delta`` higher stays ``delta`` higher at every step."""
    rng = np.random.default_rng(11)
    schedule, demands = _clamp_free_day(world)
    initial = world.compiled.initial_levels
    base = simulate(world, initial, schedule, demands)
    assert _inside_the_rails(world, base)

    delta = rng.uniform(-0.2, 0.2, world.n_tanks)
    resim = simulate(world, initial + delta, schedule, demands)
    assert _inside_the_rails(world, resim)
    np.testing.assert_allclose(resim.states, base.states + delta, atol=1e-9)
    np.testing.assert_array_equal(resim.costs, base.costs)


# -- properties of the day-rollout core ----------------------------------------

_DAYS = dict(
    seed=st.integers(min_value=0, max_value=10_000),
    imperfection=st.floats(min_value=0.0, max_value=1.0),
    start=st.floats(min_value=0.02, max_value=0.98),
)


def _controlled_day(world, seed, imperfection, start):
    from pumpsched import (
        RuleBasedController,
        demands_from_rng,
        margins_for,
        run_controlled_day,
    )

    rng = np.random.default_rng(seed)
    margins = margins_for(world, imperfection, rng)
    demands = demands_from_rng(world, np.random.default_rng(seed))
    initial = start * world.compiled.caps
    controller = RuleBasedController(world, margins)
    return run_controlled_day(world, initial, controller, demands), demands


@settings(max_examples=25, deadline=None)
@given(**_DAYS)
def test_controlled_day_replays_as_a_fixed_schedule(world, seed, imperfection, start):
    traj, demands = _controlled_day(world, seed, imperfection, start)
    replay = simulate(world, traj.states[0], traj.actions, demands)
    np.testing.assert_array_equal(replay.states, traj.states)
    np.testing.assert_array_equal(replay.costs, traj.costs)


_TRAJECTORY_FIELDS = ("states", "actions", "powers", "energies", "costs")


def test_a_day_record_holds_five_arrays():
    assert tuple(f.name for f in dataclasses.fields(Trajectory)) == _TRAJECTORY_FIELDS


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    e=st.integers(min_value=0, max_value=STEPS_PER_DAY),
    high=st.floats(min_value=0.3, max_value=1.0),
)
def test_rollout_from_a_mid_day_state_equals_the_tail(world, seed, e, high):
    from pumpsched import demands_from_rng

    schedule = np.random.default_rng(seed).uniform(0.0, high, (STEPS_PER_DAY, 6))
    demands = demands_from_rng(world, np.random.default_rng(seed))
    day = simulate(world, world.compiled.initial_levels, schedule, demands)
    tail = run_day(
        world,
        day.states[e],
        demands,
        lambda t, levels: schedule[t],
        t0=e,
    )
    assert tail.states.shape == (STEPS_PER_DAY + 1 - e, world.n_tanks)
    for name in _TRAJECTORY_FIELDS:
        np.testing.assert_array_equal(getattr(tail, name), getattr(day, name)[e:])


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    t0=st.integers(min_value=0, max_value=STEPS_PER_DAY),
    high=st.floats(min_value=0.3, max_value=1.0),
)
def test_every_resume_lane_equals_a_rollout_from_its_state(world, seed, t0, high):
    from pumpsched import demands_from_rng

    rng = np.random.default_rng(seed)
    schedule = rng.uniform(0.0, high, (STEPS_PER_DAY, 6))
    demands = demands_from_rng(world, np.random.default_rng(seed))
    # Lanes branch off a day run under another schedule, as an injection does.
    branch = simulate(
        world, world.compiled.initial_levels, rng.uniform(0.0, 1.0, (STEPS_PER_DAY, 6)),
        demands,
    ).states[t0:]  # fmt: skip
    lanes = resume_lanes(world, branch, schedule, demands, t0)
    assert lanes.shape == (STEPS_PER_DAY - t0, STEPS_PER_DAY + 1 - t0, world.n_tanks)
    for k, row in enumerate(lanes):
        exact = run_day(
            world,
            branch[k],
            demands,
            lambda t, levels: schedule[t],
            t0=t0 + k,
        )
        np.testing.assert_array_equal(row[k:], exact.states)
        np.testing.assert_array_equal(row[:k], branch[:k])


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    lanes=st.integers(min_value=1, max_value=6),
    t0=st.integers(min_value=0, max_value=STEPS_PER_DAY),
)
def test_every_day_lane_equals_the_day_rolled_alone(world, seed, lanes, t0):
    from pumpsched import demands_from_rng

    rng = np.random.default_rng(seed)
    schedules = rng.uniform(0.0, 1.0, (lanes, STEPS_PER_DAY, 6))
    levels = rng.uniform(0.0, 1.0, (lanes, world.n_tanks)) * world.compiled.caps
    rngs = [np.random.default_rng(seed + k) for k in range(lanes)]
    demands = np.array([demands_from_rng(world, rng) for rng in rngs])
    day = run_day(world, levels, demands, lambda t, lv: schedules[:, t], t0)
    for k in range(lanes):
        alone = run_day(world, levels[k], demands[k], lambda t, lv: schedules[k, t], t0)
        for name in _TRAJECTORY_FIELDS:
            lane = getattr(day, name)[:, k]
            assert lane.tobytes() == getattr(alone, name).tobytes(), name


def _all_in_one_step(c, levels, action, zone_values_t, tariff_t):
    """The kernel as it was when every record came out of each step: powers,
    energies and cost beside the level recursion, and where it clamped."""
    flows = c.max_flow * action
    powers = c.rated_power * action**3
    energies = powers * DT_HOURS
    cost = energies.sum(axis=-1) * tariff_t
    cols = flows[..., None]
    inflow = c.fill.T @ cols
    outflow = c.draw.T @ cols
    tank_demand = c.zone_to_tank @ zone_values_t[..., None]
    raw = levels + DT_HOURS * (inflow - outflow - tank_demand)[..., 0] / c.areas
    clamped = (raw < 0.0) | (raw > c.caps)
    levels = np.minimum(np.maximum(raw, 0.0), c.caps)
    return levels, powers, energies, cost, clamped


@pytest.mark.parametrize(
    "lanes, t0", [(None, 0), (None, 61), (1, 0), (4, 0), (3, 37), (5, 95)]
)
def test_day_records_equal_the_all_in_one_step(world, lanes, t0):
    # Levels from empty to full and speeds up to flat out clamp at both rails;
    # ``lanes`` None rolls one day without a lane axis.
    from pumpsched import demands_from_rng

    n = 1 if lanes is None else lanes
    rng = np.random.default_rng(n * 100 + t0)
    schedules = rng.uniform(0.0, 1.0, (STEPS_PER_DAY, n, world.n_stations))
    levels = rng.uniform(0.0, 1.0, (n, world.n_tanks)) * world.compiled.caps
    rngs = [np.random.default_rng(t0 + k) for k in range(n)]
    demands = np.array([demands_from_rng(world, rng) for rng in rngs])
    if lanes is None:
        schedules, levels, demands = schedules[:, 0], levels[0], demands[0]
    tariff = world.compiled.tariff
    day = run_day(world, levels, demands, lambda t, lv: schedules[t], t0)

    rows, current = [], levels
    for t in range(t0, STEPS_PER_DAY):
        rows.append(
            _all_in_one_step(
                world.compiled, current, schedules[t], demands[..., t], tariff[t]
            )
        )
        current = rows[-1][0]
    expected = {"states": np.array([levels] + [row[0] for row in rows])}
    for i, name in enumerate(("powers", "energies", "costs")):
        expected[name] = np.array([row[i + 1] for row in rows])
    for name, array in expected.items():
        assert getattr(day, name).tobytes() == array.tobytes(), name
    assert day.actions.tobytes() == schedules[t0:].tobytes()
    if t0 == 0:
        clamped = np.array([row[4] for row in rows])
        assert clamped.any() and not clamped.all()


def _episode_through_the_env(spec, params, seed, iteration, idx):
    """Episode ``idx`` of a collection, stepped alone through the env with
    one-row forwards, each action held for ``spec.frame_skip`` steps whose
    rewards add up in step order: observations, raw actions, log-probs,
    rewards, values and dones, one row per decision."""
    cfg_ss, act_ss = _seed_stream(seed, "train_episode", iteration, idx).spawn(2)
    episode = sample_episode(
        spec.topology, np.random.default_rng(cfg_ss), START_OVERHANG
    )
    act_rng = np.random.default_rng(act_ss)
    env = PumpSchedulingEnv(spec.topology, spec.agent_kind)
    obs = env.reset(*episode)
    rows = []
    for _ in range(spec.decisions_per_episode):
        mean = params.actor.forward(obs)[0][0]
        value = params.critic.forward(obs)[0][0, 0]
        noise = act_rng.standard_normal(mean.shape[0])
        raw = mean + np.exp(params.log_sigma) * noise
        logp = gaussian_logp(raw, mean, params.log_sigma)[0]
        reward = 0.0
        for _ in range(spec.frame_skip):
            result = env.step(np.clip(raw, 0.0, 1.0))
            reward += result.reward
        rows.append((obs, raw, logp, reward, value, float(result.done)))
        obs = result.observation
    return [np.array(column) for column in zip(*rows)]


_BATCH_FIELDS = ("observations", "actions", "log_probs", "rewards", "values")


def _noisy_policy(spec, seed):
    rng = np.random.default_rng(seed)
    params = init_policy(spec.obs_dim, spec.action_dim, rng)
    noise = rng.normal(0.0, 0.3, params.vector.size)
    return dataclasses.replace(params, vector=params.vector + noise)


@settings(max_examples=16, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    iteration=st.integers(min_value=0, max_value=50),
    kind=st.sampled_from(list(AgentKind)),
    window=st.sampled_from([1, 2, 8, 96]),
    episodes=st.integers(min_value=1, max_value=3),
)
def test_lockstep_collection_equals_episodes_stepped_alone(
    world, seed, iteration, kind, window, episodes
):
    spec = EnvSpec(topology=world, agent_kind=kind, frame_skip=window)
    params = _noisy_policy(spec, seed)
    n = spec.decisions_per_episode
    cfg = TrainConfig(total_env_steps=0, seed=seed, batch_size=episodes * n)
    batch = collect_rollouts(spec, params, cfg, iteration)
    assert batch.observations.shape == (episodes, n, spec.obs_dim)
    totals = batch.rewards.sum(axis=1)  # the reward curve's episode totals
    for k in range(episodes):
        expected = _episode_through_the_env(spec, params, seed, iteration, k)
        for name, column in zip(_BATCH_FIELDS, expected):
            got = getattr(batch, name)[k]
            assert got.tobytes() == column.tobytes(), name
        # The env ends the episode at the row's last decision, nowhere else.
        assert expected[5].tolist() == [0.0] * (n - 1) + [1.0]
        assert totals[k] == float(expected[3].sum())


@pytest.mark.parametrize("kind", list(AgentKind))
def test_episode_bytes_do_not_depend_on_lane_count(world, kind):
    spec = EnvSpec(topology=world, agent_kind=kind)
    params = _noisy_policy(spec, 3)
    cfg = TrainConfig(total_env_steps=0, seed=7)
    wide = _collect_lanes(spec, params, cfg, 2, range(10))
    for k in (0, 4, 9):
        alone = _collect_lanes(spec, params, cfg, 2, range(k, k + 1))
        for lane, single in zip(wide, alone):
            assert lane[k].tobytes() == single[0].tobytes()


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    high=st.floats(min_value=0.3, max_value=1.0),
    start=st.floats(min_value=0.0, max_value=1.0),
)
def test_levels_stay_in_caps_and_equal_the_clipped_recursion(world, seed, high, start):
    from pumpsched import demands_from_rng

    schedule = np.random.default_rng(seed).uniform(0.0, high, (STEPS_PER_DAY, 6))
    demands = demands_from_rng(world, np.random.default_rng(seed))
    caps = world.compiled.caps
    traj = simulate(world, start * caps, schedule, demands)
    assert np.all(traj.states >= 0.0) and np.all(traj.states <= caps)

    # The unclamped update, step by step, from the flows the schedule commands.
    flows = world.compiled.max_flow * schedule
    net_inflow = np.zeros((STEPS_PER_DAY, world.n_tanks))
    for j, station in enumerate(world.stations):
        for tank_id, frac in station.fills:
            net_inflow[:, world.tank_index(tank_id)] += frac * flows[:, j]
        if station.draws_from is not None:
            net_inflow[:, world.tank_index(station.draws_from)] -= flows[:, j]
    for k, zone in enumerate(world.zones):
        net_inflow[:, world.tank_index(zone.served_by)] -= demands[k]
    raw = traj.states[:-1] + DT_HOURS * net_inflow / world.compiled.areas
    np.testing.assert_allclose(traj.states[1:], np.clip(raw, 0.0, caps), atol=1e-9)

