import csv
import dataclasses
import json

import numpy as np
import pytest

from pumpsched import (
    HybridCase,
    InjectionPlan,
    ValidationError,
    ViolationWindow,
    build_case_pool,
    build_index,
    detect_violations,
    evaluate_strategies,
    generate_history,
    inject,
    simulate,
)
from pumpsched.hybrid import (
    STRATEGY_NAMES,
    predict_resume,
    strategy_targeted,
    trajectory_suffix,
    _state_area,
)
from pumpsched.metrics import area_outside_boundary
from pumpsched.network import STEPS_PER_DAY
from pumpsched.simulate import Trajectory, run_day


def _traj_from_states(states: np.ndarray) -> Trajectory:
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
        level_caps=np.full(n_tanks, 8.0),
    )


def _mid_band_act_fn(world):
    """Pure proportional push toward mid-band; pure in the observation."""
    caps = world.caps_array()
    lb, ub = world.bounds_arrays()
    primary = np.array(
        [world.tank_index(s.primary_tank()) for s in world.stations]
    )
    mid = ((lb + ub) / 2.0)[primary]
    band = (ub - lb)[primary]

    def act(obs):
        levels = np.asarray(obs[:6]) * caps
        gap = (mid - levels[primary]) / band
        return np.clip(0.45 + 1.5 * gap, 0.0, 1.0)

    return act


@pytest.fixture(scope="module")
def case_pool(world):
    archive = generate_history(world, days=40, seed=42)
    index = build_index(world, archive)
    return build_case_pool(world, index, n_cases=4, seed=7)


@pytest.fixture(scope="module")
def report(world, case_pool):
    return evaluate_strategies(world, case_pool, _mid_band_act_fn(world))


# -- violation detection ------------------------------------------------------


def test_detect_violations_merges_runs():
    states = np.full((STEPS_PER_DAY + 1, 2), 3.0)
    states[10:30, 0] = 1.0  # states 10..29 below a lower bound of 2
    states[50:55, 1] = 5.0  # states 50..54 above an upper bound of 4
    traj = _traj_from_states(states)
    windows = detect_violations(traj, (np.full(2, 2.0), np.full(2, 4.0)))
    assert len(windows) == 2
    assert (windows[0].start, windows[0].end) == (10, 30)
    assert windows[0].tanks == (0,)
    assert (windows[1].start, windows[1].end) == (50, 55)
    assert windows[1].tanks == (1,)


def test_detect_violations_ignores_initial_state():
    states = np.full((STEPS_PER_DAY + 1, 1), 3.0)
    states[0, 0] = 0.0
    traj = _traj_from_states(states)
    assert detect_violations(traj, (np.array([2.0]), np.array([4.0]))) == ()


def test_detect_violations_unions_tanks_in_one_run():
    states = np.full((STEPS_PER_DAY + 1, 2), 3.0)
    states[20:25, 0] = 1.0
    states[23:28, 1] = 5.0  # overlaps, so one merged window
    traj = _traj_from_states(states)
    windows = detect_violations(traj, (np.full(2, 2.0), np.full(2, 4.0)))
    assert len(windows) == 1
    assert (windows[0].start, windows[0].end) == (20, 28)
    assert windows[0].tanks == (0, 1)


def test_injection_plan_validation():
    InjectionPlan(start=0, end=96).validate()
    with pytest.raises(ValidationError):
        InjectionPlan(start=5, end=5).validate()
    with pytest.raises(ValidationError):
        InjectionPlan(start=-1, end=10).validate()
    with pytest.raises(ValidationError):
        InjectionPlan(start=0, end=97).validate()


# -- injection mechanics ------------------------------------------------------


def test_inject_preserves_schedule_outside_plan(world, case_pool):
    case = case_pool[0]
    act = _mid_band_act_fn(world)
    plan = InjectionPlan(start=20, end=40)
    schedule, traj = inject(
        world, case.config, case.baseline_schedule, plan, act
    )
    np.testing.assert_array_equal(schedule[:20], case.baseline_schedule[:20])
    np.testing.assert_array_equal(schedule[40:], case.baseline_schedule[40:])
    assert not np.array_equal(schedule[20:40], case.baseline_schedule[20:40])
    # The blended schedule replayed open-loop reproduces the same day.
    replay = simulate(
        world, case.config.initial_levels, schedule, case.config.demands
    )
    np.testing.assert_allclose(traj.states, replay.states, atol=1e-12)


def test_inject_closed_loop_sees_its_own_states(world, case_pool):
    # A pure act_fn injected over the whole day equals closed-loop control.
    case = case_pool[0]
    act = _mid_band_act_fn(world)
    plan = InjectionPlan(start=0, end=STEPS_PER_DAY)
    schedule, traj = inject(
        world, case.config, case.baseline_schedule, plan, act
    )
    caps = world.caps_array()
    for t in [0, 17, 63]:
        np.testing.assert_allclose(
            schedule[t], act(traj.states[t] / caps), atol=1e-12
        )


# -- region bookkeeping ---------------------------------------------------------


def test_regions_partition_the_day(world, case_pool):
    case = case_pool[0]
    outcome = strategy_targeted(world, case, _mid_band_act_fn(world))
    hs, he = case.hull
    area = _state_area(case.baseline_traj.states, case.bounds)
    pre = float(area[1:hs + 1].sum())
    during = outcome.baseline_during_area
    post = outcome.baseline_post_area
    total = area_outside_boundary(case.baseline_traj, case.bounds)
    assert pre + during + post == pytest.approx(total, abs=1e-9)


def test_case_pool_is_violating_and_deterministic(world, case_pool):
    archive = generate_history(world, days=40, seed=42)
    index = build_index(world, archive)
    again = build_case_pool(world, index, n_cases=4, seed=7)
    assert len(case_pool) == 4
    for a, b in zip(case_pool, again):
        assert a.case_id == b.case_id
        assert a.matched_day == b.matched_day
        np.testing.assert_array_equal(a.config.initial_levels, b.config.initial_levels)
        assert a.windows == b.windows
        assert len(a.windows) >= 1
        hs, he = a.hull
        assert 1 <= hs < he <= STEPS_PER_DAY


def test_case_pool_exhaustion_error(world):
    archive = generate_history(world, days=12, seed=3, imperfection=0.0)
    index = build_index(world, archive)
    with pytest.raises(ValidationError, match="violating cases"):
        build_case_pool(world, index, n_cases=8, max_attempts=6, seed=0)


# -- strategy dominance ---------------------------------------------------------


def test_all_strategies_cover_every_case(report, case_pool):
    assert set(report.outcomes) == set(STRATEGY_NAMES)
    for name in STRATEGY_NAMES:
        assert len(report.outcomes[name]) == len(case_pool)


def test_targeted_plan_covers_the_hull(world, case_pool, report):
    for case, outcome in zip(case_pool, report.outcomes["targeted"]):
        assert outcome.plan.start == case.hull[0]
        assert outcome.plan.end == case.hull[1]
        assert outcome.during_states == (case.hull[0] + 1, case.hull[1])


def test_final_state_only_violation_injects_last_action(world, case_pool):
    # Only action 95 can move state 96, so the hull starts there.
    case = dataclasses.replace(
        case_pool[0],
        windows=(
            ViolationWindow(start=STEPS_PER_DAY, end=STEPS_PER_DAY + 1, tanks=(0,)),
        ),
    )
    assert case.hull == (STEPS_PER_DAY - 1, STEPS_PER_DAY)
    report = evaluate_strategies(world, [case], _mid_band_act_fn(world))
    for name in ("targeted", "dynamic_end"):
        (outcome,) = report.outcomes[name]
        assert (outcome.plan.start, outcome.plan.end) == case.hull
        assert outcome.during_states == (STEPS_PER_DAY, STEPS_PER_DAY)
        assert outcome.post_states is None


def test_dynamic_end_never_worse_during(report):
    for tgt, de in zip(report.outcomes["targeted"], report.outcomes["dynamic_end"]):
        assert de.hybrid_during_area <= tgt.hybrid_during_area + 1e-12


def test_dynamic_end_never_worse_post(report):
    for tgt, de in zip(report.outcomes["targeted"], report.outcomes["dynamic_end"]):
        assert de.hybrid_post_area <= tgt.hybrid_post_area + 1e-12


def test_dynamic_start_end_never_worse_during(report):
    for de, dse in zip(
        report.outcomes["dynamic_end"], report.outcomes["dynamic_start_end"]
    ):
        assert dse.hybrid_during_area <= de.hybrid_during_area + 1e-12


def test_during_regions_identical_across_strategies(report, case_pool):
    # Every strategy measures the same fixed region, so baselines agree.
    for name in ("targeted", "dynamic_end", "dynamic_start_end"):
        for case, outcome in zip(case_pool, report.outcomes[name]):
            assert outcome.during_states == (case.hull[0] + 1, case.hull[1])
            assert outcome.baseline_during_area == pytest.approx(
                report.outcomes["targeted"][outcome.case_id].baseline_during_area
            )


def test_untargeted_windows_fixed(report):
    for outcome in report.outcomes["untargeted_0_2"]:
        assert (outcome.plan.start, outcome.plan.end) == (0, 8)
        assert outcome.during_states == (1, 8)
    for outcome in report.outcomes["untargeted_12_14"]:
        assert (outcome.plan.start, outcome.plan.end) == (48, 56)
        assert outcome.during_states == (49, 56)


def test_zero_baseline_region_reports_none(report):
    # Untargeted early-morning windows often contain no baseline violation;
    # percent change is undefined there and must surface as None, never 0.
    for outcome in report.outcomes["untargeted_0_2"]:
        if outcome.baseline_during_area == 0.0:
            assert outcome.during_pct is None
        else:
            assert outcome.during_pct is not None


def test_evaluate_strategies_rejects_empty_pool(world):
    with pytest.raises(ValidationError):
        evaluate_strategies(world, [], lambda obs: np.zeros(6))


# -- resume-suffix prediction ---------------------------------------------------


def test_trajectory_suffix_shapes(world, case_pool):
    traj = case_pool[0].baseline_traj
    suffix = trajectory_suffix(traj, 40)
    assert suffix.states.shape == (STEPS_PER_DAY - 40 + 1, 6)
    assert suffix.actions.shape == (STEPS_PER_DAY - 40, 6)
    with pytest.raises(ValidationError):
        trajectory_suffix(traj, 97)


def test_predict_resume_matches_resimulation(world, case_pool):
    case = case_pool[0]
    act = _mid_band_act_fn(world)
    plan = InjectionPlan(start=case.hull[0], end=STEPS_PER_DAY)
    _, full = inject(world, case.config, case.baseline_schedule, plan, act)
    for e in (case.hull[1], min(case.hull[1] + 10, STEPS_PER_DAY), STEPS_PER_DAY):
        predicted, _ = predict_resume(world, case, full.states, e)
        if e == STEPS_PER_DAY:
            np.testing.assert_array_equal(predicted, full.states[e:])
            continue
        exact = run_day(
            world,
            full.states[e],
            case.config.demands.as_array(),
            case.baseline_traj.tariff,
            lambda t, levels: case.baseline_schedule[t],
            t0=e,
        ).states
        np.testing.assert_allclose(predicted, exact, atol=1e-9)


# -- report serialization -------------------------------------------------------


def test_report_json_layout(tmp_path, report):
    from pumpsched.hybrid import save_strategy_report_json

    path = tmp_path / "strategy_report.json"
    save_strategy_report_json(report, path)
    data = json.loads(path.read_text())
    assert [entry["strategy"] for entry in data] == list(STRATEGY_NAMES)
    for entry in data:
        assert entry["n_cases"] == report.n_cases
        assert len(entry["cases"]) == report.n_cases
        if entry["n_during_pct_defined"] == 0:
            assert entry["mean_during_pct"] is None


def test_report_csv_layout(tmp_path, report):
    from pumpsched.hybrid import save_strategy_report_csv

    path = tmp_path / "strategy_report.csv"
    save_strategy_report_csv(report, path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(STRATEGY_NAMES) * report.n_cases
    assert {row["strategy"] for row in rows} == set(STRATEGY_NAMES)
    for row in rows:
        assert float(row["hybrid_during_area"]) >= 0.0
