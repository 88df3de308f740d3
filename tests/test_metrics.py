import csv
import json

import numpy as np
import pytest

from pumpsched import (
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
    n_steps = states.shape[0] - 1
    return Trajectory(
        states=states,
        actions=np.zeros((n_steps, 1)),
        powers=np.zeros((n_steps, 1)),
        energies=np.zeros((n_steps, 1)),
        costs=np.zeros(n_steps),
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
    expected = 200.0 * 0.25 * sum(tiny_world.tariff.values)
    assert episode_cost(traj) == pytest.approx(expected, abs=1e-9)


def _scores(*rows):
    """One episode per label: its (3, 1) area, count and cost rows."""
    return {label: np.array(values)[:, None] for label, *values in rows}


def test_compare_reproduces_headline_percentages():
    # One rule for every column: (value - reference) / reference, so an agent
    # with 89.7% less area than the baseline reads -89.7%, and 1% dearer +1.0%.
    rows = compare(
        _scores(("baseline", 51475.0, 1185.0, 100.0), ("agent", 5314.0, 239.0, 101.0))
    )
    assert rows[0].label == "baseline"
    assert rows[0].area_delta_pct == 0.0
    assert rows[1].area_delta_pct == pytest.approx(-89.7, abs=0.05)
    assert rows[1].count_delta_pct == pytest.approx(-79.8, abs=0.05)
    assert rows[1].cost_delta_pct == pytest.approx(1.0, abs=1e-9)


def test_compare_zero_reference_yields_none():
    # Against a reference mean of 0 every row's percentage is None, the
    # reference's own row included.
    rows = compare(_scores(("clean", 0.0, 0.0, 0.0), ("agent", 1.0, 1.0, 1.0)))
    for row in rows:
        assert row.area_delta_pct is None
        assert row.count_delta_pct is None
        assert row.cost_delta_pct is None


def test_compare_averages_each_label_over_its_episodes():
    scores = {
        "reference": np.array([[1.0, 3.0], [2.0, 4.0], [10.0, 30.0]]),
        "policy": np.array([[0.0, 1.0], [1.0, 0.0], [30.0, 30.0]]),
        "random": np.array([[4.0, 6.0], [5.0, 7.0], [20.0, 20.0]]),
    }
    rows = compare(scores)
    assert [row.label for row in rows] == ["reference", "policy", "random"]
    assert [(r.mean_area, r.mean_count, r.mean_cost) for r in rows] == [
        (2.0, 3.0, 20.0), (0.5, 0.5, 30.0), (5.0, 6.0, 20.0),
    ]  # fmt: skip
    assert rows[1].area_delta_pct == -75.0
    assert rows[2].area_delta_pct == 150.0
    assert rows[1].cost_delta_pct == 50.0
    assert rows[2].cost_delta_pct == 0.0


def test_comparison_files_round_trip(tmp_path):
    rows = compare(
        _scores(("baseline", 51475.0, 1185.0, 100.0), ("agent", 5314.0, 239.0, 101.0))
    )

    csv_path = tmp_path / "comparison.csv"
    save_comparison_csv(rows, csv_path)
    with open(csv_path, newline="") as fh:
        read = list(csv.DictReader(fh))
    assert [r["label"] for r in read] == ["baseline", "agent"]
    assert float(read[1]["mean_area"]) == 5314.0
    assert float(read[1]["area_delta_pct"]) == pytest.approx(rows[1].area_delta_pct)

    json_path = tmp_path / "comparison.json"
    save_comparison_json(rows, json_path)
    data = json.loads(json_path.read_text())
    assert data[1]["mean_count"] == 239.0
    assert data[0]["cost_delta_pct"] == 0.0
