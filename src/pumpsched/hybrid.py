"""Hybrid scheduling: inject a trained policy into a recommended schedule.

A case is a day whose retrieved schedule violates tank boundaries somewhere.
Four injection strategies repair it: fixed early/midday windows (untargeted),
the violation hull (targeted), a searched resume time (dynamic end), and a
searched lead-in plus resume time (dynamic start/end). ``inject`` rolls any
number of plans as lanes of one day, and act functions get one observation
row per lane. ``evaluate_strategies`` rolls the union of a case's plans, both
untargeted windows, the hull and every candidate start, in one ``inject``
pass, and each strategy reads the lanes of its plans. No plan is rolled
twice, nor any start's end searched twice: every candidate resume step is
scored on the exact day it produces, all of them re-simulated in one
``resume_lanes`` pass whose winning lane is the result.

Metric regions are fixed per case so strategies stay comparable: for the
violation hull [hs, he), the during-region is states hs+1..he (what injected
actions can influence), the post-region is states he+1..96, and the pre-region
is everything earlier. Untargeted strategies use their own fixed window the
same way. A strategy's percentages are ``metrics._delta`` of its areas pooled
over the cases: (hybrid - baseline) / baseline * 100, negative meaning less
violation area, None when the pooled baseline area is 0.

A ``CaseOutcome`` row states the report's format: its fields but the strategy
are the keys of a JSON case, and those but the two region bounds are the
columns of the CSV after the strategy.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .env import AgentKind, closed_loop, sample_episode
from .errors import ValidationError
from .metrics import Bounds, _delta, _exceedance, _save_csv
from .network import DT_HOURS, STEPS_PER_DAY, NetworkTopology, _seed_stream
from .query import QueryIndex, recommend
from .simulate import resume_lanes, run_day, simulate

UNTARGETED_EARLY = (0, 8)  # 00:00-02:00
UNTARGETED_MIDDAY = (48, 56)  # 12:00-14:00
_UNTARGETED_NAMES = {
    UNTARGETED_EARLY: "untargeted_0_2",
    UNTARGETED_MIDDAY: "untargeted_12_14",
}

STRATEGY_NAMES = (
    "untargeted_0_2",
    "untargeted_12_14",
    "targeted",
    "dynamic_end",
    "dynamic_start_end",
)

_START_LOOKBACK = 16  # steps of earlier start explored by dynamic_start_end

# Observation rows (lanes, obs_dim) to pump speed rows (lanes, n_stations).
ActFn = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class InjectionPlan:
    """Policy controls action steps start..end-1."""

    start: int
    end: int

    def validate(self) -> None:
        if not (0 <= self.start < self.end <= STEPS_PER_DAY):
            raise ValidationError(
                f"injection plan [{self.start}, {self.end}) out of range"
            )


@dataclass
class HybridCase:
    """A violating retrieved schedule plus everything needed to repair it: the
    day's zone demands (n_zones, 96), and its start levels as
    ``baseline_states[0]``."""

    case_id: int
    demands: np.ndarray
    baseline_schedule: np.ndarray
    baseline_states: np.ndarray  # (97, n_tanks) under the baseline schedule
    hull: tuple[int, int]  # detect_violations of baseline_states
    bounds: Bounds
    matched_day: int

    @property
    def starts(self) -> range:
        """The starts dynamic_start_end tries: the hull's, ``_START_LOOKBACK``
        before it and every step between."""
        return range(max(0, self.hull[0] - _START_LOOKBACK), self.hull[0] + 1)


_REGION = {"region": True}  # a state range: a JSON case key, not a CSV column


@dataclass
class CaseOutcome:
    """One strategy applied to one case, measured on the case's regions; the
    policy controlled action steps injection_start..injection_end-1."""

    case_id: int
    strategy: str
    injection_start: int
    injection_end: int
    during_states: tuple[int, int] = field(metadata=_REGION)  # inclusive range
    post_states: tuple[int, int] | None = field(metadata=_REGION)
    baseline_during_area: float
    hybrid_during_area: float
    baseline_post_area: float
    hybrid_post_area: float


def detect_violations(states: np.ndarray, bounds: Bounds) -> tuple[int, int] | None:
    """The action window [hs, he) spanning every violating state of 1..96,
    any tank counting, or None for a day without one. The initial state is
    given, not controlled, so it never counts.

    Both ends clip into the day's actions 0..95. The end, one past the last
    violating state, clips to 96: there is no action 96 to inject, and the
    during-region states hs+1..he stays inside the day. A hull starting at
    state 96 clips its start to 95, because action 95 is the only one that
    moves state 96.
    """
    bad = np.flatnonzero((_exceedance(states[1:], bounds) > 0.0).any(axis=1)) + 1
    if not bad.size:
        return None
    return min(int(bad[0]), STEPS_PER_DAY - 1), min(int(bad[-1]) + 1, STEPS_PER_DAY)


def inject(
    topology: NetworkTopology,
    case: HybridCase,
    plans: Sequence[InjectionPlan],
    act_fn: ActFn,
) -> np.ndarray:
    """The case's day under each plan, as lanes: states (97, lanes, n_tanks).

    Lane k runs the policy closed loop inside ``plans[k]``, on the observations
    a dual agent would see live, and the baseline schedule everywhere else;
    ``act_fn`` gets the rows of the lanes inside their plan. Every lane rolls
    from step 0, so before its plan it replays the baseline states exactly;
    each lane equals its day rolled alone.
    """
    if not plans:
        raise ValidationError("inject needs at least one plan")
    for plan in plans:
        plan.validate()
    starts = np.array([plan.start for plan in plans])
    ends = np.array([plan.end for plan in plans])
    lanes = len(plans)
    schedule = case.baseline_schedule
    policy = closed_loop(topology, AgentKind.DUAL, act_fn)

    def act(t: int, levels: np.ndarray) -> np.ndarray:
        action = np.repeat(schedule[t][None], lanes, axis=0)
        inside = (starts <= t) & (t < ends)
        if inside.any():
            action[inside] = policy(t, levels[inside])
        return action

    return run_day(
        topology,
        np.repeat(case.baseline_states[0][None], lanes, axis=0),
        np.repeat(case.demands[None], lanes, axis=0),
        act,
    ).states


# ----------------------------------------------------------------------------
# Region bookkeeping


def _state_area(states: np.ndarray, bounds: Bounds) -> np.ndarray:
    """Per-state violation area (m*h) indexed like the states array."""
    return _exceedance(states, bounds).sum(axis=1) * DT_HOURS


def _range_area(state_area: np.ndarray, first: int, last: int) -> float:
    """Sum over the inclusive state range, empty ranges counting zero."""
    if first > last:
        return 0.0
    return float(state_area[first : last + 1].sum())


def _region_outcome(
    case: HybridCase,
    strategy: str,
    plan: InjectionPlan,
    hybrid_states: np.ndarray,
    during: tuple[int, int],
) -> CaseOutcome:
    base_area = _state_area(case.baseline_states, case.bounds)
    hyb_area = _state_area(hybrid_states, case.bounds)
    d_first, d_last = during
    post = (d_last + 1, STEPS_PER_DAY) if d_last < STEPS_PER_DAY else None
    return CaseOutcome(
        case_id=case.case_id,
        strategy=strategy,
        injection_start=plan.start,
        injection_end=plan.end,
        during_states=during,
        post_states=post,
        baseline_during_area=_range_area(base_area, d_first, d_last),
        hybrid_during_area=_range_area(hyb_area, d_first, d_last),
        baseline_post_area=_range_area(base_area, d_last + 1, STEPS_PER_DAY),
        hybrid_post_area=_range_area(hyb_area, d_last + 1, STEPS_PER_DAY),
    )


# ----------------------------------------------------------------------------
# Strategies


class PlanStates(dict):
    """The states (97, n_tanks) of a case's day under each of its plans, and
    the end search of each start run on them."""

    def __init__(self, *args):
        super().__init__(*args)
        self._ends: dict[int, tuple[int, np.ndarray]] = {}

    def best_end(
        self, topology: NetworkTopology, case: HybridCase, start: int
    ) -> tuple[int, np.ndarray]:
        """``_best_end`` of the day injected from ``start`` to the end, run
        once per start, so strategies that share a start share its search."""
        if start not in self._ends:
            full = self[InjectionPlan(start, STEPS_PER_DAY)]
            self._ends[start] = _best_end(topology, case, full, *case.hull)
        return self._ends[start]


def strategy_untargeted(
    topology: NetworkTopology,
    case: HybridCase,
    states: PlanStates,
    window: tuple[int, int],
) -> CaseOutcome:
    """Inject over a fixed clock window regardless of where violations sit.

    ``window`` is ``UNTARGETED_EARLY`` or ``UNTARGETED_MIDDAY``, the two
    windows the report names.
    """
    name = _UNTARGETED_NAMES.get(tuple(window))
    if name is None:
        raise ValidationError(
            f"untargeted window {window} is neither {UNTARGETED_EARLY} "
            f"nor {UNTARGETED_MIDDAY}"
        )
    plan = InjectionPlan(start=window[0], end=window[1])
    during = (max(plan.start + 1, 1), plan.end)
    return _region_outcome(case, name, plan, states[plan], during)


def strategy_targeted(
    topology: NetworkTopology, case: HybridCase, states: PlanStates
) -> CaseOutcome:
    """Inject over the hull of all violations."""
    hs, he = case.hull
    plan = InjectionPlan(start=hs, end=he)
    return _region_outcome(case, "targeted", plan, states[plan], (hs + 1, he))


def strategy_dynamic_end(
    topology: NetworkTopology, case: HybridCase, states: PlanStates
) -> CaseOutcome:
    """Search the resume step minimizing total during+post area.

    Candidate ends run from the hull end to end-of-day, each scored on the
    exact day it produces; that day of the winner is the result.
    """
    hs, he = case.hull
    e_star, day = states.best_end(topology, case, hs)
    plan = InjectionPlan(start=hs, end=e_star)
    return _region_outcome(case, "dynamic_end", plan, day, (hs + 1, he))


def _best_end(
    topology: NetworkTopology, case: HybridCase, full: np.ndarray, hs: int, he: int
) -> tuple[int, np.ndarray]:
    """Argmin e* over candidate ends of the during+post area, earliest on ties,
    and the states (97, n_tanks) of the day that ending at e* produces.

    ``full`` is the day injected from hs to the end. Ending at e scores the
    injected states hs+1..e plus the states after e with the baseline resumed
    at step e. One ``resume_lanes`` pass re-simulates every resume e >= he
    exactly, so the day of e* is ``full`` up to state he joined to its lane;
    ending at 96 resumes nothing and keeps ``full``.
    """
    full_area = _state_area(full, case.bounds)
    tails = resume_lanes(topology, full[he:], case.baseline_schedule, case.demands, he)
    tail_area = _exceedance(tails, case.bounds).sum(axis=2) * DT_HOURS
    post = [float(row[k + 1 :].sum()) for k, row in enumerate(tail_area)] + [0.0]
    totals = [
        _range_area(full_area, hs + 1, e) + area
        for e, area in zip(range(he, STEPS_PER_DAY + 1), post)
    ]
    e_star = he + int(np.argmin(totals))
    if e_star == STEPS_PER_DAY:
        return e_star, full
    return e_star, np.concatenate([full[:he], tails[e_star - he]])


def strategy_dynamic_start_end(
    topology: NetworkTopology, case: HybridCase, states: PlanStates
) -> CaseOutcome:
    """Search earlier starts too, minimizing the during-region area.

    Every candidate start re-runs the policy closed loop (its observations
    change), each its own lane; the latest start wins ties, so the search
    degrades to dynamic_end when an earlier start does not strictly help.
    States up to the hull end do not depend on the end, so only the winning
    start's end is searched, and start hs is a candidate, so the chosen
    during-area never exceeds dynamic_end's; when hs wins, dynamic_end's
    search is read, not run again.
    """
    hs, he = case.hull
    starts = case.starts
    lanes = [states[InjectionPlan(s, STEPS_PER_DAY)] for s in starts]
    during = [_range_area(_state_area(x, case.bounds), hs + 1, he) for x in lanes]
    k = min(range(len(starts)), key=lambda k: (during[k], -starts[k]))
    e_star, day = states.best_end(topology, case, starts[k])
    plan = InjectionPlan(start=starts[k], end=e_star)
    return _region_outcome(case, "dynamic_start_end", plan, day, (hs + 1, he))


# ----------------------------------------------------------------------------
# Case pools and reports


def build_case_pool(
    topology: NetworkTopology,
    index: QueryIndex,
    n_cases: int,
    seed: int,
) -> list[HybridCase]:
    """Sample episodes whose retrieved schedule violates the boundaries.

    Raises a validation error when the attempt budget, ``max(60 * n_cases,
    240)`` sampled episodes, runs out before enough violating cases appear.
    """
    if n_cases < 1:
        raise ValidationError("n_cases must be >= 1")
    attempts = max(60 * n_cases, 240)
    bounds = topology.compiled.lower, topology.compiled.upper
    cases: list[HybridCase] = []
    for attempt in range(attempts):
        rng = np.random.default_rng(_seed_stream(seed, "hybrid_attempt", attempt))
        levels, demands = sample_episode(topology, rng)
        result = recommend(index, levels, demands)
        states = simulate(topology, levels, result.schedule, demands).states
        hull = detect_violations(states, bounds)
        if hull is None:
            continue
        cases.append(
            HybridCase(
                case_id=len(cases),
                demands=demands,
                baseline_schedule=result.schedule,
                baseline_states=states,
                hull=hull,
                bounds=bounds,
                matched_day=result.day,
            )
        )
        if len(cases) == n_cases:
            return cases
    raise ValidationError(
        f"only {len(cases)} of {n_cases} violating cases found in {attempts} "
        "attempts; regenerate the archive with a higher imperfection or more days"
    )


@dataclass
class StrategyReport:
    """Aggregated outcomes for every strategy over a shared case pool."""

    n_cases: int
    outcomes: dict[str, list[CaseOutcome]]

    def strategy_summary(self, name: str) -> dict:
        """The strategy's cases, their mean region areas and the pooled
        percent change of each region's area from the baseline's."""
        rows = self.outcomes[name]
        b_during = float(np.sum([r.baseline_during_area for r in rows]))
        h_during = float(np.sum([r.hybrid_during_area for r in rows]))
        b_post = float(np.sum([r.baseline_post_area for r in rows]))
        h_post = float(np.sum([r.hybrid_post_area for r in rows]))
        return {
            "strategy": name,
            "n_cases": len(rows),
            "mean_during_area_baseline": b_during / max(len(rows), 1),
            "mean_during_area_hybrid": h_during / max(len(rows), 1),
            "mean_post_area_baseline": b_post / max(len(rows), 1),
            "mean_post_area_hybrid": h_post / max(len(rows), 1),
            "pooled_during_pct": _delta(b_during, h_during),
            "pooled_post_pct": _delta(b_post, h_post),
            "cases": [
                {k: v for k, v in asdict(r).items() if k != "strategy"} for r in rows
            ],
        }

    def to_json_obj(self) -> list[dict]:
        return [self.strategy_summary(name) for name in STRATEGY_NAMES]


def evaluate_strategies(
    topology: NetworkTopology, cases: list[HybridCase], act_fn: ActFn
) -> StrategyReport:
    """Apply all five strategy variants to every case in the pool.

    Each case is rolled once, all of its plans as lanes of one ``inject``
    day; each strategy reads contiguous copies of its plans' lanes.
    """
    if not cases:
        raise ValidationError("strategy evaluation needs a non-empty case pool")
    outcomes: dict[str, list[CaseOutcome]] = {name: [] for name in STRATEGY_NAMES}
    for case in cases:
        # Every plan the strategies read, in order and without repeats: both
        # untargeted windows, the hull, each candidate start to the day's end.
        spans = [UNTARGETED_EARLY, UNTARGETED_MIDDAY, case.hull]
        spans += [(s, STEPS_PER_DAY) for s in case.starts]
        plans = list(dict.fromkeys(InjectionPlan(*span) for span in spans))
        lanes = inject(topology, case, plans, act_fn)
        states = PlanStates((plan, lanes[:, k].copy()) for k, plan in enumerate(plans))
        run = (topology, case, states)
        for outcome in (
            strategy_untargeted(*run, UNTARGETED_EARLY),
            strategy_untargeted(*run, UNTARGETED_MIDDAY),
            strategy_targeted(*run),
            strategy_dynamic_end(*run),
            strategy_dynamic_start_end(*run),
        ):
            outcomes[outcome.strategy].append(outcome)
    return StrategyReport(n_cases=len(cases), outcomes=outcomes)


def save_strategy_report_json(report: StrategyReport, path: str | Path) -> None:
    Path(path).write_text(json.dumps(report.to_json_obj(), indent=2) + "\n")


def save_strategy_report_csv(report: StrategyReport, path: str | Path) -> None:
    columns = ["strategy"] + [
        f.name
        for f in fields(CaseOutcome)
        if f.name != "strategy" and not f.metadata.get("region")
    ]
    rows = (r for name in STRATEGY_NAMES for r in report.outcomes[name])
    _save_csv(path, columns, ([getattr(r, k) for k in columns] for r in rows))
