import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pumpsched import (
    AgentKind,
    EnvSpec,
    EpisodeConfig,
    FrameSkipEnv,
    NumericError,
    PumpSchedulingEnv,
    TrainConfig,
    ValidationError,
    init_policy,
    sample_episode,
    simulate,
)
from pumpsched.network import DT_HOURS, STEPS_PER_DAY
from pumpsched.policy import gaussian_logp
from pumpsched.simulate import resume_lanes, run_day
from pumpsched.training import (
    START_OVERHANG,
    _collect_lanes,
    _episode_seed,
    collect_rollouts,
)

from conftest import flat_demands

FLAT_TARIFF = np.full(STEPS_PER_DAY, 0.1)


def _constant_act(speeds):
    action = np.asarray(speeds, dtype=float)
    return lambda t, levels: action


def _last_step(topology, levels, speeds, demand, tariff_t):
    """The day's final step alone: ``run_day`` from t0 = 95."""
    return run_day(
        topology,
        np.asarray(levels, dtype=float),
        np.full((topology.n_zones, STEPS_PER_DAY), float(demand)),
        np.full(STEPS_PER_DAY, tariff_t),
        _constant_act(speeds),
        t0=STEPS_PER_DAY - 1,
    )


def _env(topology, levels=(4.0, 4.0), demand=0.0):
    """A constraint-agent env reset to ``levels`` under a flat zone demand."""
    env = PumpSchedulingEnv(topology, AgentKind.CONSTRAINT)
    env.reset(
        EpisodeConfig(
            initial_levels=np.asarray(levels, dtype=float),
            demands=flat_demands(topology, demand),
        )
    )
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
    # Station 1 moves at most 400 m^3/h.
    for speed, flow in ((0.5, 200.0), (0.0, 0.0)):
        for traj in _station_1_day(tiny_world, speed):
            assert np.all(traj.flows[:, 0] == flow)
            assert np.all(traj.flows[:, 1] == 0.0)


# An inf speed overflows the step arithmetic before the day's check rejects it.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("speed", [-0.01, 1.01, float("nan"), float("inf")])
def test_pump_speed_rejected(tiny_world, zero_demands, speed):
    schedule = np.full((STEPS_PER_DAY, 2), 0.5)
    schedule[50, 0] = speed
    with pytest.raises(ValidationError, match="pump speed"):
        simulate(tiny_world, np.array([4.0, 4.0]), schedule, zero_demands)
    with pytest.raises(ValidationError, match="pump speed"):
        _last_step(tiny_world, [4.0, 4.0], [speed, 0.0], 0.0, 0.1)
    with pytest.raises(ValidationError, match="pump speed"):
        _env_first_step(tiny_world, [4.0, 4.0], [speed, 0.0], 0.0)


def test_single_step_mass_balance(tiny_world):
    # Station 1 pushes 400 m^3/h into tank 1 (area 1000 m^2) while its zone
    # draws 200 m^3/h: the level must rise exactly (400-200)*0.25/1000 = 0.05 m.
    traj = _last_step(tiny_world, [4.0, 4.0], [1.0, 0.0], 200.0, 0.1)
    assert traj.states.shape == (2, 2) and traj.costs.shape == (1,)
    assert traj.states[1, 0] == pytest.approx(4.05, abs=1e-12)
    # Tank 2 (area 500) only drains: -200*0.25/500 = -0.1 m.
    assert traj.states[1, 1] == pytest.approx(3.9, abs=1e-12)
    assert not traj.clamp_flags.any()
    assert traj.powers[0, 0] == pytest.approx(200.0)
    assert traj.costs[0] == pytest.approx(200.0 * DT_HOURS * 0.1)

    result = _env_first_step(tiny_world, [4.0, 4.0], [1.0, 0.0], 200.0)
    assert result.info["t"] == 1
    # The env's tiny-world tariff is 0.1 for the first half of the day.
    assert result.info["step_cost"] == traj.costs[0]
    np.testing.assert_array_equal(result.observation, traj.states[1] / 8.0)


def test_step_rejects_finished_day(tiny_world, zero_demands):
    def from_step(t0):
        return run_day(
            tiny_world, [4.0, 4.0], zero_demands.as_array(), FLAT_TARIFF,
            _constant_act([0.0, 0.0]), t0,
        )  # fmt: skip

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
    initial = np.array([4.0, 4.0])
    zeros = zero_demands.as_array()
    with pytest.raises(ValidationError):
        simulate(tiny_world, initial, np.zeros((STEPS_PER_DAY, 3)), zero_demands)
    for levels, zone_values, tariff, speeds in (
        (initial, zeros, FLAT_TARIFF, np.zeros(3)),
        (initial, np.zeros((5, STEPS_PER_DAY)), FLAT_TARIFF, np.zeros(2)),
        (initial, zeros, np.zeros(95), np.zeros(2)),
        (np.zeros(3), zeros, FLAT_TARIFF, np.zeros(2)),
    ):
        with pytest.raises(ValidationError):
            run_day(tiny_world, levels, zone_values, tariff, _constant_act(speeds))
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
            FLAT_TARIFF,
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
    expected = 200.0 * 0.25 * tiny_world.tariff.as_array().sum()
    assert expected == pytest.approx(720.0)
    assert traj.costs.sum() == pytest.approx(expected, abs=1e-9)
    assert traj.clamp_flags.any()
    assert traj.states[-1, 0] == pytest.approx(8.0)


def test_upper_clamp_freezes_level(tiny_world, zero_demands):
    schedule = np.zeros((STEPS_PER_DAY, 2))
    schedule[:, 0] = 1.0  # +0.1 m per step from 4.0 m, cap at 8.0 m
    traj = simulate(tiny_world, np.array([4.0, 4.0]), schedule, zero_demands)
    np.testing.assert_allclose(traj.states[40:, 0], 8.0, atol=1e-9)
    assert np.all(traj.states[41:, 0] == 8.0)
    assert traj.clamp_flags[40:, 0].all()
    assert not traj.clamp_flags[:40, 0].any()


def test_lower_clamp_floors_level(tiny_world):
    from pumpsched import DemandSet

    values = np.zeros((2, STEPS_PER_DAY))
    values[0, :] = 400.0  # -0.1 m per step on tank 1
    demands = DemandSet(tuple(z.id for z in tiny_world.zones), values)
    schedule = np.zeros((STEPS_PER_DAY, 2))
    traj = simulate(tiny_world, np.array([4.0, 4.0]), schedule, demands)
    assert traj.states[40, 0] == pytest.approx(0.0)
    assert np.all(traj.states[40:, 0] == 0.0)
    assert traj.clamp_flags[40:, 0].all()


def test_simulate_deterministic(world):
    rng = np.random.default_rng(7)
    schedule = rng.uniform(0.2, 0.8, (STEPS_PER_DAY, world.n_stations))
    from pumpsched import generate_demands

    demands = generate_demands(world, seed=5)
    initial = world.initial_levels_array()
    a = simulate(world, initial, schedule, demands)
    b = simulate(world, initial, schedule, demands)
    np.testing.assert_array_equal(a.states, b.states)
    np.testing.assert_array_equal(a.costs, b.costs)


def test_default_tariff_comes_from_topology(world):
    from pumpsched import generate_demands

    demands = generate_demands(world, seed=5)
    schedule = np.full((STEPS_PER_DAY, world.n_stations), 0.5)
    traj = simulate(world, world.initial_levels_array(), schedule, demands)
    np.testing.assert_array_equal(traj.tariff, world.tariff.as_array())


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

    traj = _last_step(tiny_world, [level, level], speeds, demand, 0.15)
    np.testing.assert_allclose(traj.states[1], expect, atol=1e-9)
    assert traj.costs[0] == pytest.approx(energy * 0.15, abs=1e-9)

    result = _env_first_step(tiny_world, [level, level], speeds, demand)
    np.testing.assert_allclose(result.observation * 8.0, expect, atol=1e-9)
    assert result.info["step_cost"] == pytest.approx(energy * 0.1, abs=1e-9)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_mass_conserved_over_full_day(world, seed):
    """Volume change equals net pumped volume minus delivered demand."""
    rng = np.random.default_rng(seed)
    schedule = rng.uniform(0.3, 0.7, (STEPS_PER_DAY, world.n_stations))
    from pumpsched import generate_demands

    demands = generate_demands(world, seed=seed)
    traj = simulate(world, world.initial_levels_array(), schedule, demands)
    if traj.clamp_flags.any():
        return  # clamping discards water by design; skip those draws
    areas = world.areas_array()
    stored = float(((traj.states[-1] - traj.states[0]) * areas).sum())
    external = 0.0
    for j, station in enumerate(world.stations):
        if station.draws_from is None:
            external += float(traj.flows[:, j].sum()) * DT_HOURS
    delivered = float(traj.zone_demands.sum()) * DT_HOURS
    assert stored == pytest.approx(external - delivered, abs=1e-9 * max(1.0, abs(external)))


def _clamp_free_day(world):
    """A guaranteed in-band day: drive the hysteresis rule with exact margins."""
    from pumpsched import (
        RuleBasedController,
        generate_demands,
        margins_for,
        run_controlled_day,
    )

    margins = margins_for(world, 0.0, np.random.default_rng(0))
    controller = RuleBasedController(world, margins)
    demands = generate_demands(world, seed=2)
    traj = run_controlled_day(
        world, world.initial_levels_array(), controller, demands
    )
    return traj.actions, demands


def test_shift_theorem_against_resimulation(world):
    """Flows do not depend on levels, so away from the clamp a day started
    ``delta`` higher stays ``delta`` higher at every step."""
    rng = np.random.default_rng(11)
    schedule, demands = _clamp_free_day(world)
    initial = world.initial_levels_array()
    base = simulate(world, initial, schedule, demands)
    assert not base.clamp_flags.any()

    delta = rng.uniform(-0.2, 0.2, world.n_tanks)
    resim = simulate(world, initial + delta, schedule, demands)
    assert not resim.clamp_flags.any()
    np.testing.assert_allclose(resim.states, base.states + delta, atol=1e-9)
    np.testing.assert_array_equal(resim.costs, base.costs)
    np.testing.assert_array_equal(resim.flows, base.flows)


# -- properties of the day-rollout core ----------------------------------------

_DAYS = dict(
    seed=st.integers(min_value=0, max_value=10_000),
    imperfection=st.floats(min_value=0.0, max_value=1.0),
    start=st.floats(min_value=0.02, max_value=0.98),
)


def _controlled_day(world, seed, imperfection, start):
    from pumpsched import (
        RuleBasedController,
        generate_demands,
        margins_for,
        run_controlled_day,
    )

    rng = np.random.default_rng(seed)
    margins = margins_for(world, imperfection, rng)
    demands = generate_demands(world, seed=seed)
    initial = start * world.caps_array()
    controller = RuleBasedController(world, margins)
    return run_controlled_day(world, initial, controller, demands), demands


@settings(max_examples=25, deadline=None)
@given(**_DAYS)
def test_controlled_day_replays_as_a_fixed_schedule(world, seed, imperfection, start):
    traj, demands = _controlled_day(world, seed, imperfection, start)
    replay = simulate(world, traj.states[0], traj.actions, demands)
    np.testing.assert_array_equal(replay.states, traj.states)
    np.testing.assert_array_equal(replay.costs, traj.costs)


_TRAJECTORY_FIELDS = (
    "states",
    "actions",
    "flows",
    "powers",
    "energies",
    "costs",
    "clamp_flags",
    "zone_demands",
    "tariff",
)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    e=st.integers(min_value=0, max_value=STEPS_PER_DAY),
    high=st.floats(min_value=0.3, max_value=1.0),
)
def test_rollout_from_a_mid_day_state_equals_the_tail(world, seed, e, high):
    from pumpsched import generate_demands

    schedule = np.random.default_rng(seed).uniform(0.0, high, (STEPS_PER_DAY, 6))
    demands = generate_demands(world, seed=seed)
    day = simulate(world, world.initial_levels_array(), schedule, demands)
    tail = run_day(
        world,
        day.states[e],
        demands.as_array(),
        day.tariff,
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
    from pumpsched import generate_demands

    rng = np.random.default_rng(seed)
    schedule = rng.uniform(0.0, high, (STEPS_PER_DAY, 6))
    demands = generate_demands(world, seed=seed)
    # Lanes branch off a day run under another schedule, as an injection does.
    branch = simulate(
        world, world.initial_levels_array(), rng.uniform(0.0, 1.0, (STEPS_PER_DAY, 6)),
        demands,
    ).states[t0:]  # fmt: skip
    tariff = world.tariff.as_array()
    lanes = resume_lanes(world, branch, schedule, demands.as_array(), tariff, t0)
    assert lanes.shape == (STEPS_PER_DAY - t0, STEPS_PER_DAY + 1 - t0, world.n_tanks)
    for k, row in enumerate(lanes):
        exact = run_day(
            world,
            branch[k],
            demands.as_array(),
            tariff,
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
    from pumpsched import generate_demands

    rng = np.random.default_rng(seed)
    schedules = rng.uniform(0.0, 1.0, (lanes, STEPS_PER_DAY, 6))
    levels = rng.uniform(0.0, 1.0, (lanes, world.n_tanks)) * world.caps_array()
    demands = np.array(
        [generate_demands(world, seed + k).as_array() for k in range(lanes)]
    )
    tariff = world.tariff.as_array()
    day = run_day(world, levels, demands, tariff, lambda t, lv: schedules[:, t], t0)
    for k in range(lanes):
        alone = run_day(
            world, levels[k], demands[k], tariff, lambda t, lv: schedules[k, t], t0
        )
        for name in _TRAJECTORY_FIELDS:
            lane = getattr(day, name) if name == "tariff" else getattr(day, name)[:, k]
            assert lane.tobytes() == getattr(alone, name).tobytes(), name


def _episode_through_the_env(spec, params, seed, iteration, idx):
    """Episode ``idx`` of a collection, stepped alone through the env with
    one-row forwards: observations, raw actions, log-probs, rewards, values
    and dones, one row per decision."""
    cfg_ss, act_ss = _episode_seed(seed, iteration, idx).spawn(2)
    config = sample_episode(
        spec.topology, np.random.default_rng(cfg_ss), START_OVERHANG
    )
    act_rng = np.random.default_rng(act_ss)
    env = FrameSkipEnv(
        PumpSchedulingEnv(spec.topology, spec.agent_kind), spec.frame_skip
    )
    obs = env.reset(config)
    rows = []
    for _ in range(spec.decisions_per_episode):
        mean = params.actor.forward(obs)[0][0]
        value = params.critic.forward(obs)[0][0, 0]
        noise = act_rng.standard_normal(mean.shape[0])
        raw = mean + np.exp(params.log_sigma) * noise
        logp = gaussian_logp(raw, mean, params.log_sigma)[0]
        result = env.step(np.clip(raw, 0.0, 1.0))
        rows.append((obs, raw, logp, result.reward, value, float(result.done)))
        obs = result.observation
    return [np.array(column) for column in zip(*rows)]


_BATCH_FIELDS = ("observations", "actions", "log_probs", "rewards", "values", "dones")


def _noisy_policy(spec, seed):
    rng = np.random.default_rng(seed)
    params = init_policy(spec.obs_dim, spec.action_dim, rng)
    return params.replace_arrays(
        [a + rng.normal(0.0, 0.3, a.shape) for a in params.arrays()]
    )


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
    assert len(batch) == episodes * n
    for k in range(episodes):
        expected = _episode_through_the_env(spec, params, seed, iteration, k)
        for name, column in zip(_BATCH_FIELDS, expected):
            got = getattr(batch, name)[k * n : (k + 1) * n]
            assert got.tobytes() == column.tobytes(), name
        assert batch.episode_rewards[k] == float(expected[3].sum())


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
def test_levels_stay_in_caps_and_clamp_flags_mark_every_clamp(world, seed, high, start):
    from pumpsched import generate_demands

    schedule = np.random.default_rng(seed).uniform(0.0, high, (STEPS_PER_DAY, 6))
    demands = generate_demands(world, seed=seed)
    caps = world.caps_array()
    traj = simulate(world, start * caps, schedule, demands)
    assert np.all(traj.states >= 0.0) and np.all(traj.states <= caps)

    # The unclamped update, step by step, from the recorded flows.
    net_inflow = np.zeros((STEPS_PER_DAY, world.n_tanks))
    for j, station in enumerate(world.stations):
        for tank_id, frac in station.fills:
            net_inflow[:, world.tank_index(tank_id)] += frac * traj.flows[:, j]
        if station.draws_from is not None:
            net_inflow[:, world.tank_index(station.draws_from)] -= traj.flows[:, j]
    for k, zone in enumerate(world.zones):
        net_inflow[:, world.tank_index(zone.served_by)] -= traj.zone_demands[:, k]
    raw = traj.states[:-1] + DT_HOURS * net_inflow / world.areas_array()
    np.testing.assert_allclose(traj.states[1:], np.clip(raw, 0.0, caps), atol=1e-9)
    clamped = (raw < -1e-9) | (raw > caps + 1e-9)
    inside = (raw > 1e-9) & (raw < caps - 1e-9)
    assert np.all(traj.clamp_flags[clamped])
    assert not np.any(traj.clamp_flags[inside])

