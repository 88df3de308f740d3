import csv
import dataclasses
import functools
import json
import re

import numpy as np
import pytest

from pumpsched import (
    AgentKind,
    HybridCase,
    ValidationError,
    build_case_pool,
    build_index,
    detect_violations,
    evaluate_strategies,
    generate_history,
    inject,
    simulate,
)
from pumpsched import hybrid
from pumpsched.hybrid import (
    STRATEGY_NAMES,
    UNTARGETED_EARLY,
    UNTARGETED_MIDDAY,
    StrategyReport,
    _best_end,
    _bounds,
    _range_area,
    _region_outcome,
    _state_area,
    strategy_targeted,
    strategy_untargeted,
)
from pumpsched.metrics import _exceedance, area_outside_boundary
from pumpsched.network import DT_HOURS, STEPS_PER_DAY
from pumpsched.env import closed_loop
from pumpsched.simulate import resume_lanes, run_day


def _mid_band_act_fn(world):
    """Pure proportional push toward mid-band; pure in the observation rows."""
    caps = world.compiled.caps
    lb, ub = world.compiled.lower, world.compiled.upper
    primary = np.array(
        [world.tank_index(s.primary_tank()) for s in world.stations]
    )
    mid = ((lb + ub) / 2.0)[primary]
    band = (ub - lb)[primary]

    def act(obs):
        levels = np.asarray(obs)[..., :6] * caps
        gap = (mid - levels[..., primary]) / band
        return np.clip(0.45 + 1.5 * gap, 0.0, 1.0)

    return act


def _flat_out(obs):
    """Every pump at full speed, which drives levels into the clamp."""
    return np.ones((len(obs), 6))


@pytest.fixture(scope="module")
def case_pool(world):
    archive = generate_history(world, days=40, seed=42)
    index = build_index(world, archive)
    return build_case_pool(world, index, n_cases=4, seed=7)


@pytest.fixture(scope="module")
def report(world, case_pool):
    return evaluate_strategies(world, case_pool, _mid_band_act_fn(world))


# -- violation detection ------------------------------------------------------


TWO_TANK_BOUNDS = (np.full(2, 2.0), np.full(2, 4.0))


def test_detect_violations_merges_runs():
    states = np.full((STEPS_PER_DAY + 1, 2), 3.0)
    states[10:30, 0] = 1.0  # states 10..29 below a lower bound of 2
    states[50:55, 1] = 5.0  # states 50..54 above an upper bound of 4
    assert detect_violations(states, TWO_TANK_BOUNDS) == (10, 55)


def test_detect_violations_ignores_initial_state():
    states = np.full((STEPS_PER_DAY + 1, 1), 3.0)
    states[0, 0] = 0.0
    assert detect_violations(states, (np.array([2.0]), np.array([4.0]))) is None


def test_detect_violations_unions_tanks_in_one_run():
    states = np.full((STEPS_PER_DAY + 1, 2), 3.0)
    states[20:25, 0] = 1.0
    states[23:28, 1] = 5.0  # overlaps the run of tank 0
    assert detect_violations(states, TWO_TANK_BOUNDS) == (20, 28)


def test_detect_violations_at_the_final_state_only_starts_at_the_last_action():
    # Only action 95 can move state 96, and there is no action 96.
    states = np.full((STEPS_PER_DAY + 1, 2), 3.0)
    states[STEPS_PER_DAY, 1] = 5.0
    hull = detect_violations(states, TWO_TANK_BOUNDS)
    assert hull == (STEPS_PER_DAY - 1, STEPS_PER_DAY)


def test_injection_plan_validation(world, case_pool):
    act, case = _mid_band_act_fn(world), case_pool[0]
    assert inject(world, case, [(0, 96)], act).shape[1] == 1
    for plan in ((5, 5), (-1, 10), (0, 97)):
        message = re.escape(f"injection plan [{plan[0]}, {plan[1]}) out of range")
        with pytest.raises(ValidationError, match=message):
            inject(world, case, [(0, 96), plan], act)


# -- injection mechanics ------------------------------------------------------


def test_inject_preserves_schedule_outside_plan(world, case_pool):
    case = case_pool[0]
    act = _mid_band_act_fn(world)
    states = inject(world, case, [(20, 40)], act)
    assert states.shape == (STEPS_PER_DAY + 1, 1, world.n_tanks)
    states = states[:, 0]
    np.testing.assert_array_equal(states[:21], case.baseline_states[:21])
    assert not np.array_equal(states[21:41], case.baseline_states[21:41])
    # The baseline with the policy's actions on these states blended in,
    # replayed open-loop, reproduces the same day.
    schedule = case.baseline_schedule.copy()
    schedule[20:40] = act(states[20:40] / world.compiled.caps)
    replay = simulate(world, case.baseline_states[0], schedule, case.demands)
    np.testing.assert_array_equal(states, replay.states)


def test_inject_closed_loop_sees_its_own_states(world, case_pool):
    # A pure act_fn injected over the whole day equals closed-loop control.
    case = case_pool[0]
    act = _mid_band_act_fn(world)
    plan = (0, STEPS_PER_DAY)
    states = inject(world, case, [plan], act)[:, 0]
    day = _whole_day(world, case, closed_loop(world, AgentKind.DUAL, act))
    np.testing.assert_array_equal(states, day)


def _whole_day(world, case, act):
    """States of the case's day rolled from step 0 under ``act(t, levels)``."""
    return run_day(world, case.baseline_states[0], case.demands, act).states


def _rolled_alone(world, case, plan, act_fn):
    """The day under ``plan`` rolled on its own from step 0, one row a step."""
    policy = closed_loop(world, AgentKind.DUAL, act_fn)
    start, end = plan

    def act(t, levels):
        if start <= t < end:
            return policy(t, levels[None])[0]
        return case.baseline_schedule[t]

    return _whole_day(world, case, act)


@pytest.mark.parametrize("lanes", [1, 17])
def test_every_inject_lane_equals_its_plan_injected_alone(world, case_pool, lanes):
    # 17 plans, starts 0 and 95 among them, injected in groups of ``lanes``:
    # lane k equals inject([plan k]) and the day rolled alone from step 0.
    rng = np.random.default_rng(0)
    starts = [0, STEPS_PER_DAY - 1, *rng.integers(0, STEPS_PER_DAY, 15).tolist()]
    ends = [int(rng.integers(s + 1, STEPS_PER_DAY + 1)) for s in starts]
    plans = list(zip(starts, ends))
    caps, clamped = world.compiled.caps, []
    for case in case_pool[:2]:
        for act_fn in (_mid_band_act_fn(world), _flat_out):
            for first in range(0, len(plans), lanes):
                group = plans[first : first + lanes]
                states = inject(world, case, group, act_fn)
                assert states.shape == (STEPS_PER_DAY + 1, len(group), world.n_tanks)
                for k, plan in enumerate(group):
                    alone = inject(world, case, [plan], act_fn)[:, 0]
                    rolled = _rolled_alone(world, case, plan, act_fn)
                    assert states[:, k].tobytes() == alone.tobytes() == rolled.tobytes()
                clamped.append(bool(((states == 0.0) | (states == caps)).any()))
    assert any(clamped) and not all(clamped)


# -- region bookkeeping ---------------------------------------------------------


def test_regions_partition_the_day(world, case_pool):
    case = case_pool[0]
    plan = case.hull
    states = {plan: inject(world, case, [plan], _mid_band_act_fn(world))[:, 0]}
    outcome = strategy_targeted(world, case, states)
    hs, he = case.hull
    area = _state_area(case.baseline_states, _bounds(world))
    pre = float(area[1:hs + 1].sum())
    during = outcome.baseline_during_area
    post = outcome.baseline_post_area
    baseline = simulate(
        world, case.baseline_states[0], case.baseline_schedule, case.demands
    )
    np.testing.assert_array_equal(baseline.states, case.baseline_states)
    total = area_outside_boundary(baseline, _bounds(world))
    assert pre + during + post == pytest.approx(total, abs=1e-9)


def test_case_pool_is_violating_and_deterministic(world, case_pool):
    archive = generate_history(world, days=40, seed=42)
    index = build_index(world, archive)
    again = build_case_pool(world, index, n_cases=4, seed=7)
    assert len(case_pool) == 4
    for a, b in zip(case_pool, again):
        assert a.case_id == b.case_id
        assert a.matched_day == b.matched_day
        np.testing.assert_array_equal(a.baseline_states[0], b.baseline_states[0])
        np.testing.assert_array_equal(a.demands, b.demands)
        assert a.hull == b.hull
        hs, he = a.hull
        assert 1 <= hs < he <= STEPS_PER_DAY


def test_case_pool_exhaustion_error(world):
    # Bands spanning each whole tank: levels are clamped to it, so no day violates.
    wide = dataclasses.replace(
        world,
        tanks=tuple(
            dataclasses.replace(t, lower_bound=0.0, upper_bound=t.level_max_physical)
            for t in world.tanks
        ),
    )
    archive = generate_history(wide, days=12, seed=3, imperfection=0.0)
    index = build_index(wide, archive)
    with pytest.raises(ValidationError, match="0 of 1 violating cases found in 240"):
        build_case_pool(wide, index, n_cases=1, seed=0)


# -- strategy dominance ---------------------------------------------------------


def test_all_strategies_cover_every_case(report, case_pool):
    assert set(report.outcomes) == set(STRATEGY_NAMES)
    for name in STRATEGY_NAMES:
        assert len(report.outcomes[name]) == len(case_pool)


def test_targeted_plan_covers_the_hull(world, case_pool, report):
    for case, outcome in zip(case_pool, report.outcomes["targeted"]):
        assert outcome.injection_start == case.hull[0]
        assert outcome.injection_end == case.hull[1]
        assert outcome.during_states == (case.hull[0] + 1, case.hull[1])


def test_final_state_only_violation_injects_last_action(world, case_pool):
    # The hull of a violation at state 96 alone: only action 95 can move it.
    case = dataclasses.replace(case_pool[0], hull=(STEPS_PER_DAY - 1, STEPS_PER_DAY))
    report = evaluate_strategies(world, [case], _mid_band_act_fn(world))
    for name in ("targeted", "dynamic_end"):
        (outcome,) = report.outcomes[name]
        assert (outcome.injection_start, outcome.injection_end) == case.hull
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
        if dse.hybrid_during_area == de.hybrid_during_area:
            # the latest start wins ties
            assert dse.injection_start == de.injection_start


def test_during_regions_identical_across_strategies(report, case_pool):
    # Every strategy measures the same fixed region, so baselines agree.
    for name in ("targeted", "dynamic_end", "dynamic_start_end"):
        for case, outcome in zip(case_pool, report.outcomes[name]):
            assert outcome.during_states == (case.hull[0] + 1, case.hull[1])
            assert outcome.baseline_during_area == pytest.approx(
                report.outcomes["targeted"][outcome.case_id].baseline_during_area
            )


def _injected_from_first_start(world, case, plans, act_fn):
    """States (97, lanes, n_tanks) of ``plans`` rolled as lanes from the
    earliest plan start, from the baseline's state there, behind the
    baseline's earlier states."""
    t0, lanes = min(start for start, _ in plans), len(plans)
    policy = closed_loop(world, AgentKind.DUAL, act_fn)

    def act(t, levels):
        action = np.repeat(case.baseline_schedule[t][None], lanes, axis=0)
        inside = np.array([start <= t < end for start, end in plans])
        if inside.any():
            action[inside] = policy(t, levels[inside])
        return action

    day = run_day(
        world,
        np.repeat(case.baseline_states[t0][None], lanes, axis=0),
        np.repeat(case.demands[None], lanes, axis=0),
        act,
        t0,
    )
    prefix = np.repeat(case.baseline_states[:t0, None], lanes, axis=1)
    return np.concatenate([prefix, day.states])


def _rolled_per_strategy(world, case, act_fn):
    """The five strategies each rolling their own plans from the earliest of
    them, as the oracle of one roll per case."""
    inject = functools.partial(_injected_from_first_start, world, case)
    outcome = functools.partial(_region_outcome, world, case)
    hs, he = case.hull
    outcomes = []
    for window, name in (
        (UNTARGETED_EARLY, "untargeted_0_2"),
        (UNTARGETED_MIDDAY, "untargeted_12_14"),
    ):
        states = inject([window], act_fn)[:, 0]
        during = (max(window[0] + 1, 1), window[1])
        outcomes.append(outcome(name, window, states, during))
    states = inject([(hs, he)], act_fn)[:, 0]
    outcomes.append(outcome("targeted", (hs, he), states, (hs + 1, he)))
    full = inject([(hs, STEPS_PER_DAY)], act_fn)[:, 0]
    e_star, states = _best_end(world, case, full, hs, he)
    outcomes.append(outcome("dynamic_end", (hs, e_star), states, (hs + 1, he)))
    starts = range(max(0, hs - 16), hs + 1)
    lanes = inject([(s, STEPS_PER_DAY) for s in starts], act_fn)
    during = [
        _range_area(_state_area(lanes[:, k], _bounds(world)), hs + 1, he)
        for k in range(len(starts))
    ]
    k = min(range(len(starts)), key=lambda k: (during[k], -starts[k]))
    e_star, states = _best_end(world, case, lanes[:, k], hs, he)
    plan = (starts[k], e_star)
    outcomes.append(outcome("dynamic_start_end", plan, states, (hs + 1, he)))
    return outcomes


def test_one_roll_per_case_equals_a_roll_per_strategy(world, case_pool, monkeypatch):
    # Hulls starting before the lookback (hs < 16, the candidate starts clip
    # at 0 and one of them is untargeted_0_2's start), reaching the end of
    # the day (he == 96, the targeted plan is dynamic_end's) and equal to
    # untargeted_12_14's window (one plan key for both) among the cases.
    pool = [*case_pool]
    for hull in ((5, 12), (70, STEPS_PER_DAY), (5, STEPS_PER_DAY), (48, 56)):
        pool.append(dataclasses.replace(case_pool[1], case_id=len(pool), hull=hull))
    hulls = [case.hull for case in pool]
    assert any(hs < 16 for hs, _ in hulls)
    assert any(he == STEPS_PER_DAY for _, he in hulls)
    assert UNTARGETED_MIDDAY in hulls
    rolled = []  # the plans of each inject call, which rolls no plan twice

    def recorded(topology, case, plans, act_fn):
        rolled.append(plans)
        return inject(topology, case, plans, act_fn)

    monkeypatch.setattr(hybrid, "inject", recorded)
    for act_fn in (_mid_band_act_fn(world), _flat_out):
        report = evaluate_strategies(world, pool, act_fn)
        assert len(rolled) == len(pool)
        assert [len(set(plans)) for plans in rolled] == [len(p) for p in rolled]
        rolled.clear()
        for case in pool:
            for expected in _rolled_per_strategy(world, case, act_fn):
                got = report.outcomes[expected.strategy][case.case_id]
                for field in dataclasses.fields(expected):
                    name = field.name
                    assert getattr(got, name) == getattr(expected, name), name


def test_untargeted_windows_fixed(report):
    for outcome in report.outcomes["untargeted_0_2"]:
        assert (outcome.injection_start, outcome.injection_end) == (0, 8)
        assert outcome.during_states == (1, 8)
    for outcome in report.outcomes["untargeted_12_14"]:
        assert (outcome.injection_start, outcome.injection_end) == (48, 56)
        assert outcome.during_states == (49, 56)


def test_untargeted_names_its_window_and_rejects_any_other(world, case_pool):
    act = _mid_band_act_fn(world)
    case = case_pool[0]
    plans = [UNTARGETED_EARLY, UNTARGETED_MIDDAY]
    lanes = inject(world, case, plans, act)
    states = {plan: lanes[:, k].copy() for k, plan in enumerate(plans)}
    for window, name in (
        (UNTARGETED_EARLY, "untargeted_0_2"),
        (UNTARGETED_MIDDAY, "untargeted_12_14"),
    ):
        assert strategy_untargeted(world, case, states, window).strategy == name
    for window in ((20, 30), (0, 9), (48, 55)):
        with pytest.raises(ValidationError, match="untargeted window"):
            strategy_untargeted(world, case, states, window)


def test_zero_baseline_region_reports_none(report):
    # Untargeted early-morning windows often contain no baseline violation;
    # percent change is undefined there and must surface as None, never 0,
    # also in the pooled percentage of a strategy of that one case.
    for outcome in report.outcomes["untargeted_0_2"]:
        alone = StrategyReport(1, {"untargeted_0_2": [outcome]})
        pct = alone.strategy_summary("untargeted_0_2")["pooled_during_pct"]
        if outcome.baseline_during_area == 0.0:
            assert pct is None
        else:
            assert pct is not None


def test_evaluate_strategies_rejects_empty_pool(world):
    with pytest.raises(ValidationError):
        evaluate_strategies(world, [], lambda obs: np.zeros((len(obs), 6)))


# -- resume search --------------------------------------------------------------


def _full_injection(world, case, start=None, act=None):
    """The case's day with ``act`` (the mid-band push) injected from ``start``
    (the hull start) to the end of the day."""
    plan = (case.hull[0] if start is None else start, STEPS_PER_DAY)
    act = _mid_band_act_fn(world) if act is None else act
    return inject(world, case, [plan], act)[:, 0]


def _tails(world, case, states, e):
    """Every resume from step e on of the day ``states``, as ``_best_end``
    scores them."""
    return resume_lanes(
        world,
        states[e:],
        case.baseline_schedule,
        case.demands,
        e,
    )


def _resimulated(world, case, states, e):
    """States e..96 with the baseline re-simulated from ``states[e]``."""
    return run_day(
        world,
        states[e],
        case.demands,
        lambda t, levels: case.baseline_schedule[t],
        t0=e,
    ).states


def test_predict_resume_matches_resimulation(world, case_pool):
    case = case_pool[0]
    full = _full_injection(world, case)
    for e in (case.hull[1], min(case.hull[1] + 10, STEPS_PER_DAY), STEPS_PER_DAY):
        tails = _tails(world, case, full, e)
        if e == STEPS_PER_DAY:
            # Resuming at 96 leaves the injected day as it is: no lanes.
            assert tails.shape == (0, 1, world.n_tanks)
            continue
        exact = _resimulated(world, case, full, e)
        np.testing.assert_array_equal(tails[0], exact)


def _reference_best_end(world, case, full, hs, he):
    """The per-end search as one loop, each resume re-simulated on its own."""
    full_area = _state_area(full, _bounds(world))
    best_e, best_total = he, np.inf
    for e in range(he, STEPS_PER_DAY + 1):
        tail = 0.0
        if e < STEPS_PER_DAY:
            states = _resimulated(world, case, full, e)
            area = _exceedance(states[1:], _bounds(world)).sum(axis=1) * DT_HOURS
            tail = float(area.sum())
        total = float(full_area[hs + 1 : e + 1].sum()) + tail
        if total < best_total:
            best_e, best_total = e, total
    return best_e


def test_best_end_tails_equal_a_reference_loop(world, case_pool):
    # The states ``_best_end`` returns are those of its end injected afresh,
    # so no strategy has to roll its winning plan again.
    caps, clamped = world.compiled.caps, []
    for case in case_pool:
        hs, he = case.hull
        # Pumping flat out drives levels into the clamp as well.
        for start, act in ((hs, _mid_band_act_fn(world)), (max(0, hs - 8), _flat_out)):
            full = _full_injection(world, case, start, act)
            for end in sorted({hs + 1, he, (he + STEPS_PER_DAY) // 2, STEPS_PER_DAY}):
                tails = _tails(world, case, full, end)
                assert tails.shape == (
                    STEPS_PER_DAY - end, STEPS_PER_DAY + 1 - end, world.n_tanks
                )
                for k, row in enumerate(tails):
                    e = end + k
                    np.testing.assert_array_equal(row[:k], full[end:e])
                    expected = _resimulated(world, case, full, e)
                    np.testing.assert_array_equal(row[k:], expected)
                    at_limit = (expected == 0.0) | (expected == caps)
                    clamped.append(bool(at_limit.any()))
                e_star, states = _best_end(world, case, full, hs, end)
                assert e_star == _reference_best_end(world, case, full, hs, end)
                fresh = inject(world, case, [(start, e_star)], act)
                assert states.tobytes() == fresh[:, 0].tobytes()
        # No end is left to search once the hull reaches the end of the day.
        e_star, states = _best_end(world, case, full, hs, STEPS_PER_DAY)
        assert e_star == STEPS_PER_DAY and states is full
    assert any(clamped) and not all(clamped)


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
        if entry["mean_during_area_baseline"] == 0.0:
            assert entry["pooled_during_pct"] is None


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


def test_report_keys_are_the_case_outcome_fields(tmp_path, report):
    """A JSON case holds every ``CaseOutcome`` field but the strategy, in
    order; the CSV header is the strategy, then those fields but the two
    region bounds."""
    from pumpsched.hybrid import (
        CaseOutcome,
        save_strategy_report_csv,
        save_strategy_report_json,
    )

    names = [f.name for f in dataclasses.fields(CaseOutcome)]
    names.remove("strategy")
    save_strategy_report_json(report, tmp_path / "report.json")
    for entry in json.loads((tmp_path / "report.json").read_text()):
        assert [list(case) for case in entry["cases"]] == [names] * report.n_cases
    save_strategy_report_csv(report, tmp_path / "report.csv")
    with open(tmp_path / "report.csv", newline="") as fh:
        header = next(csv.reader(fh))
    assert header == [
        "strategy", "case_id", "injection_start", "injection_end",
        "baseline_during_area", "hybrid_during_area", "baseline_post_area",
        "hybrid_post_area",
    ]  # fmt: skip
    assert header[1:] == [n for n in names if n not in ("during_states", "post_states")]
