import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pumpsched import (
    ValidationError,
    shift_predict,
    shift_valid,
    simulate,
    step,
)
from pumpsched.network import DT_HOURS, STEPS_PER_DAY
from pumpsched.simulate import SystemState


def _station_1_step(topology, speed):
    """One step of the tiny world with station 1 at ``speed``, station 2 off."""
    state = SystemState(t=0, levels=np.array([4.0, 4.0]))
    return step(topology, state, np.array([speed, 0.0]), np.zeros(2), 0.1)


def test_pump_power_cubic(tiny_world):
    # Station 1 is rated at 200 kW.
    for speed, power in ((0.5, 25.0), (1.0, 200.0), (0.0, 0.0)):
        _, out = _station_1_step(tiny_world, speed)
        assert out.powers[0] == power


def test_pump_flow_linear(tiny_world):
    # Station 1 moves at most 400 m^3/h.
    for speed, flow in ((0.5, 200.0), (0.0, 0.0)):
        _, out = _station_1_step(tiny_world, speed)
        assert out.flows[0] == flow


@pytest.mark.parametrize("speed", [-0.01, 1.01, float("nan"), float("inf")])
def test_pump_speed_rejected(tiny_world, speed):
    with pytest.raises(ValidationError):
        _station_1_step(tiny_world, speed)


def test_single_step_mass_balance(tiny_world):
    # Station 1 pushes 400 m^3/h into tank 1 (area 1000 m^2) while its zone
    # draws 200 m^3/h: the level must rise exactly (400-200)*0.25/1000 = 0.05 m.
    state = SystemState(t=0, levels=np.array([4.0, 4.0]))
    next_state, out = step(
        tiny_world,
        state,
        np.array([1.0, 0.0]),
        np.array([200.0, 200.0]),
        0.1,
    )
    assert next_state.levels[0] == pytest.approx(4.05, abs=1e-12)
    # Tank 2 (area 500) only drains: -200*0.25/500 = -0.1 m.
    assert next_state.levels[1] == pytest.approx(3.9, abs=1e-12)
    assert next_state.t == 1
    assert not out.clamp_flags.any()
    assert out.powers[0] == pytest.approx(200.0)
    assert out.cost == pytest.approx(200.0 * DT_HOURS * 0.1)


def test_step_rejects_finished_day(tiny_world):
    state = SystemState(t=STEPS_PER_DAY, levels=np.array([4.0, 4.0]))
    with pytest.raises(ValidationError, match="finished"):
        step(tiny_world, state, np.zeros(2), np.zeros(2), 0.1)


def test_step_rejects_bad_shapes(tiny_world):
    state = SystemState(t=0, levels=np.array([4.0, 4.0]))
    with pytest.raises(ValidationError):
        step(tiny_world, state, np.zeros(3), np.zeros(2), 0.1)
    with pytest.raises(ValidationError):
        step(tiny_world, state, np.zeros(2), np.zeros(5), 0.1)


def test_full_day_cost_oracle(tiny_world, zero_demands):
    # Cost depends on the schedule alone: 200 kW * 0.25 h * 96 steps * 0.1 = 480,
    # even though tank 1 hits its physical cap partway through the day.
    schedule = np.zeros((STEPS_PER_DAY, 2))
    schedule[:, 0] = 1.0
    flat = np.full(STEPS_PER_DAY, 0.1)
    traj = simulate(tiny_world, np.array([4.0, 4.0]), schedule, zero_demands, tariff=flat)
    assert traj.costs.sum() == pytest.approx(480.0, abs=1e-9)
    assert traj.any_clamped()
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
    state = SystemState(t=0, levels=np.array([level, level]))
    action = np.array(speeds)
    next_state, out = step(
        tiny_world, state, action, np.array([demand, demand]), 0.15
    )
    flow_1 = 400.0 * speeds[0]
    flow_2 = 200.0 * speeds[1]
    raw_1 = level + DT_HOURS * (flow_1 - flow_2 - demand) / 1000.0
    raw_2 = level + DT_HOURS * (flow_2 - demand) / 500.0
    expect = np.clip([raw_1, raw_2], 0.0, 8.0)
    np.testing.assert_allclose(next_state.levels, expect, atol=1e-9)
    assert out.cost == pytest.approx(
        (200.0 * speeds[0] ** 3 + 80.0 * speeds[1] ** 3) * DT_HOURS * 0.15,
        abs=1e-9,
    )


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_mass_conserved_over_full_day(world, seed):
    """Volume change equals net pumped volume minus delivered demand."""
    rng = np.random.default_rng(seed)
    schedule = rng.uniform(0.3, 0.7, (STEPS_PER_DAY, world.n_stations))
    from pumpsched import generate_demands

    demands = generate_demands(world, seed=seed)
    traj = simulate(world, world.initial_levels_array(), schedule, demands)
    if traj.any_clamped():
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
    rng = np.random.default_rng(11)
    schedule, demands = _clamp_free_day(world)
    initial = world.initial_levels_array()
    base = simulate(world, initial, schedule, demands)
    assert not base.any_clamped()

    delta = rng.uniform(-0.2, 0.2, world.n_tanks)
    assert shift_valid(base, delta)
    predicted = shift_predict(base, delta)
    resim = simulate(world, initial + delta, schedule, demands)
    np.testing.assert_allclose(predicted.states, resim.states, atol=1e-9)
    np.testing.assert_array_equal(predicted.costs, resim.costs)
    np.testing.assert_array_equal(predicted.flows, resim.flows)


def test_shift_invalid_when_clamped(tiny_world, zero_demands):
    schedule = np.zeros((STEPS_PER_DAY, 2))
    schedule[:, 0] = 1.0
    traj = simulate(tiny_world, np.array([4.0, 4.0]), schedule, zero_demands)
    assert not shift_valid(traj, np.zeros(2))


def test_shift_invalid_when_moved_outside_caps(world):
    schedule, demands = _clamp_free_day(world)
    base = simulate(world, world.initial_levels_array(), schedule, demands)
    assert not base.any_clamped()
    huge = np.full(world.n_tanks, 100.0)
    assert not shift_valid(base, huge)
