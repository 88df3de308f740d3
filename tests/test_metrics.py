import csv
import json

import numpy as np
import pytest

from pumpsched import (
    PoolResult,
    ValidationError,
    area_outside_boundary,
    compare,
    episode_cost,
    simulate,
    violation_count,
)
from pumpsched.metrics import save_comparison_csv, save_comparison_json
from pumpsched.network import STEPS_PER_DAY
from pumpsched.simulate import Trajectory


def _traj_from_states(states: np.ndarray) -> Trajectory:
    """Wrap a bare level history in a trajectory; other fields are unused."""
    states = np.asarray(states, dtype=float)
    n_steps, n_tanks = states.shape[0] - 1, states.shape[1]
    return Trajectory(
        states=states,
        actions=np.zeros((n_steps, 1)),
        flows=np.zeros((n_steps, 1)),
        powers=np.zeros((n_steps, 1)),
        energies=np.zeros((n_steps, 1)),
        costs=np.zeros(n_steps),
        clamp_flags=np.zeros((n_steps, n_tanks), dtype=bool),
        zone_demands=np.zeros((n_steps, 1)),
        tariff=np.zeros(n_steps),
    )


def test_area_single_dip():
    # One tank 0.5 m below its lower bound for exactly one step: 0.5 * 0.25 h.
    states = np.full((STEPS_PER_DAY + 1, 1), 3.0)
    states[1, 0] = 2.0
    traj = _traj_from_states(states)
    bounds = (np.array([2.5]), np.array([4.0]))
    assert area_outside_boundary(traj, bounds) == pytest.approx(0.125, abs=1e-12)
    assert violation_count(traj, bounds) == 1


def test_area_three_tanks_one_step():
    states = np.full((STEPS_PER_DAY + 1, 3), 3.0)
    states[1] = [2.0, 3.5, 4.2]
    traj = _traj_from_states(states)
    bounds = (np.full(3, 2.5), np.full(3, 4.0))
    assert area_outside_boundary(traj, bounds) == pytest.approx(0.175, abs=1e-12)
    assert violation_count(traj, bounds) == 2


def test_boundary_levels_do_not_count():
    states = np.full((STEPS_PER_DAY + 1, 1), 2.5)
    states[2, 0] = 4.0
    traj = _traj_from_states(states)
    bounds = (np.array([2.5]), np.array([4.0]))
    assert area_outside_boundary(traj, bounds) == 0.0
    assert violation_count(traj, bounds) == 0


def test_initial_state_never_counts():
    states = np.full((STEPS_PER_DAY + 1, 1), 3.0)
    states[0, 0] = 0.0  # given, not controlled
    traj = _traj_from_states(states)
    bounds = (np.array([2.5]), np.array([4.0]))
    assert area_outside_boundary(traj, bounds) == 0.0


def test_episode_cost_flat_tariff(tiny_world, zero_demands):
    # Station 1 at full speed all day: 200 kW * 0.25 h at every step's tariff.
    schedule = np.zeros((STEPS_PER_DAY, 2))
    schedule[:, 0] = 1.0
    traj = simulate(tiny_world, np.array([4.0, 4.0]), schedule, zero_demands)
    expected = 200.0 * 0.25 * tiny_world.tariff.as_array().sum()
    assert episode_cost(traj) == pytest.approx(expected, abs=1e-9)


def _pool(label, area, count, cost):
    return PoolResult(
        label=label,
        episode_seeds=(0,),
        areas=np.array([area]),
        counts=np.array([count]),
        costs=np.array([cost]),
    )


def test_compare_reproduces_headline_percentages():
    reference = _pool("baseline", 51475.0, 1185.0, 100.0)
    agent = _pool("agent", 5314.0, 239.0, 101.0)
    rows = compare(reference, [agent])
    assert rows[0].label == "baseline"
    assert rows[0].area_improvement_pct == 0.0
    assert rows[1].area_improvement_pct == pytest.approx(89.7, abs=0.05)
    assert rows[1].count_improvement_pct == pytest.approx(79.8, abs=0.05)
    assert rows[1].cost_delta_pct == pytest.approx(1.0, abs=1e-9)


def test_compare_zero_reference_yields_none():
    reference = _pool("clean", 0.0, 0.0, 0.0)
    other = _pool("agent", 1.0, 1.0, 1.0)
    rows = compare(reference, [other])
    assert rows[1].area_improvement_pct is None
    assert rows[1].count_improvement_pct is None
    assert rows[1].cost_delta_pct is None


def test_compare_rejects_pool_mismatch():
    reference = _pool("baseline", 1.0, 1.0, 1.0)
    other = PoolResult(
        label="agent",
        episode_seeds=(0, 1),
        areas=np.array([1.0, 2.0]),
        counts=np.array([0.0, 0.0]),
        costs=np.array([1.0, 1.0]),
    )
    with pytest.raises(ValidationError, match="agent"):
        compare(reference, [other])


def test_pool_result_validates_lengths():
    with pytest.raises(ValidationError):
        PoolResult(
            label="bad",
            episode_seeds=(0, 1),
            areas=np.array([1.0]),
            counts=np.array([0.0, 0.0]),
            costs=np.array([1.0, 1.0]),
        )


def test_comparison_files_round_trip(tmp_path):
    reference = _pool("baseline", 51475.0, 1185.0, 100.0)
    agent = _pool("agent", 5314.0, 239.0, 101.0)
    rows = compare(reference, [agent])

    csv_path = tmp_path / "comparison.csv"
    save_comparison_csv(rows, csv_path)
    with open(csv_path, newline="") as fh:
        read = list(csv.DictReader(fh))
    assert [r["label"] for r in read] == ["baseline", "agent"]
    assert float(read[1]["mean_area"]) == 5314.0
    assert float(read[1]["area_improvement_pct"]) == pytest.approx(
        rows[1].area_improvement_pct
    )

    json_path = tmp_path / "comparison.json"
    save_comparison_json(rows, json_path)
    data = json.loads(json_path.read_text())
    assert data[1]["mean_count"] == 239.0
    assert data[0]["cost_delta_pct"] == 0.0
