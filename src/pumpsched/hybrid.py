"""Hybrid scheduling: inject a trained policy into a recommended schedule.

A case is a day whose retrieved schedule violates tank boundaries somewhere.
Four injection strategies repair it: fixed early/midday windows (untargeted),
the violation hull (targeted), a searched resume time (dynamic end), and a
searched lead-in plus resume time (dynamic start/end). ``inject`` rolls any
number of plans as lanes of one day, and act functions get one observation
row per lane. The searches read the states of those lanes and never roll a
plan twice: every candidate start is a lane of one ``inject`` pass, and every
candidate resume step is scored on the exact day it produces, all of them
re-simulated in one ``resume_lanes`` pass whose winning lane is the result.

Metric regions are fixed per case so strategies stay comparable: for the
violation hull [hs, he), the during-region is states hs+1..he (what injected
actions can influence), the post-region is states he+1..96, and the pre-region
is everything earlier. Untargeted strategies use their own fixed window the
same way. Percent changes are (hybrid - baseline) / baseline, so negative
means improvement; cells with zero baseline area are reported as n/a.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .env import AgentKind, EpisodeConfig, closed_loop, sample_episode
from .errors import ValidationError
from .metrics import Bounds, _csv_cell, _exceedance
from .network import DT_HOURS, STEPS_PER_DAY, NetworkTopology
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
class ViolationWindow:
    """Maximal run of consecutive violating states [start, end)."""

    start: int
    end: int
    tanks: tuple[int, ...]


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
    """A violating retrieved schedule plus everything needed to repair it."""

    case_id: int
    config: EpisodeConfig
    baseline_schedule: np.ndarray
    baseline_states: np.ndarray  # (97, n_tanks) under the baseline schedule
    windows: tuple[ViolationWindow, ...]
    bounds: Bounds
    matched_day: int

    @property
    def hull(self) -> tuple[int, int]:
        """Action window spanning all violations.

        Both ends clip into the day's actions 0..95. A window ending at state
        96 clips its end to 96: there is no action 96 to inject, and the
        during-region states hs+1..he stays inside the day. A window starting
        at state 96 clips its start to 95, because action 95 is the only one
        that moves state 96.
        """
        start = min(self.windows[0].start, STEPS_PER_DAY - 1)
        return start, min(self.windows[-1].end, STEPS_PER_DAY)


@dataclass
class CaseOutcome:
    """One strategy applied to one case, measured on the case's regions."""

    case_id: int
    strategy: str
    plan: InjectionPlan
    during_states: tuple[int, int]  # inclusive state range
    post_states: tuple[int, int] | None
    baseline_during_area: float
    hybrid_during_area: float
    baseline_post_area: float
    hybrid_post_area: float
    during_pct: float | None
    post_pct: float | None


def detect_violations(states: np.ndarray, bounds: Bounds) -> tuple[ViolationWindow, ...]:
    """Merged violation windows over states 1..96, any tank counting."""
    exceed = _exceedance(states, bounds) > 0.0
    exceed[0, :] = False  # the initial state is given, not controlled
    any_bad = exceed.any(axis=1)
    windows: list[ViolationWindow] = []
    t = 1
    while t <= STEPS_PER_DAY:
        if any_bad[t]:
            start = t
            while t <= STEPS_PER_DAY and any_bad[t]:
                t += 1
            tanks = tuple(np.flatnonzero(exceed[start:t].any(axis=0)).tolist())
            windows.append(ViolationWindow(start=start, end=t, tanks=tanks))
        else:
            t += 1
    return tuple(windows)


def inject(
    topology: NetworkTopology,
    case: HybridCase,
    plans: Sequence[InjectionPlan],
    act_fn: ActFn,
) -> np.ndarray:
    """The case's day under each plan, as lanes: states (97, lanes, n_tanks).

    Lane k runs the policy closed loop inside ``plans[k]``, on the observations
    a dual agent would see live, and the baseline schedule everywhere else;
    ``act_fn`` gets the rows of the lanes inside their plan. The day starts at the
    earliest plan start from the baseline's state there, and the baseline
    prefix is put back in front. Both are exact: a day rolled from a mid-day
    state equals its tail, and each lane equals its day rolled alone.
    """
    if not plans:
        raise ValidationError("inject needs at least one plan")
    for plan in plans:
        plan.validate()
    starts = np.array([plan.start for plan in plans])
    ends = np.array([plan.end for plan in plans])
    lanes, t0 = len(plans), int(starts.min())
    schedule = case.baseline_schedule
    policy = closed_loop(topology, AgentKind.DUAL, act_fn)

    def act(t: int, levels: np.ndarray) -> np.ndarray:
        action = np.repeat(schedule[t][None], lanes, axis=0)
        inside = (starts <= t) & (t < ends)
        if inside.any():
            action[inside] = policy(t, levels[inside])
        return action

    day = run_day(
        topology,
        np.repeat(case.baseline_states[t0][None], lanes, axis=0),
        np.repeat(case.config.demands.as_array()[None], lanes, axis=0),
        topology.tariff.as_array(),
        act,
        t0,
    )
    prefix = np.repeat(case.baseline_states[:t0, None], lanes, axis=1)
    return np.concatenate([prefix, day.states])


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
    b_during = _range_area(base_area, d_first, d_last)
    h_during = _range_area(hyb_area, d_first, d_last)
    b_post = _range_area(base_area, d_last + 1, STEPS_PER_DAY)  # 0.0 if empty
    h_post = _range_area(hyb_area, d_last + 1, STEPS_PER_DAY)
    return CaseOutcome(
        case_id=case.case_id,
        strategy=strategy,
        plan=plan,
        during_states=during,
        post_states=post,
        baseline_during_area=b_during,
        hybrid_during_area=h_during,
        baseline_post_area=b_post,
        hybrid_post_area=h_post,
        during_pct=_pct(b_during, h_during),
        post_pct=_pct(b_post, h_post),
    )


def _pct(baseline: float, hybrid: float) -> float | None:
    if baseline <= 0.0:
        return None
    return (hybrid - baseline) / baseline * 100.0


# ----------------------------------------------------------------------------
# Strategies


def strategy_untargeted(
    topology: NetworkTopology,
    case: HybridCase,
    act_fn: ActFn,
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
    if not case.windows:
        raise ValidationError("untargeted strategy needs a violating case")
    plan = InjectionPlan(start=window[0], end=window[1])
    states = inject(topology, case, [plan], act_fn)[:, 0]
    during = (max(plan.start + 1, 1), plan.end)
    return _region_outcome(case, name, plan, states, during)


def strategy_targeted(
    topology: NetworkTopology, case: HybridCase, act_fn: ActFn
) -> CaseOutcome:
    """Inject over the hull of all violation windows."""
    hs, he = case.hull
    plan = InjectionPlan(start=hs, end=he)
    states = inject(topology, case, [plan], act_fn)[:, 0]
    return _region_outcome(case, "targeted", plan, states, (hs + 1, he))


def strategy_dynamic_end(
    topology: NetworkTopology, case: HybridCase, act_fn: ActFn
) -> CaseOutcome:
    """Search the resume step minimizing total during+post area.

    Candidate ends run from the hull end to end-of-day, each scored on the
    exact day it produces; that day of the winner is the result.
    """
    hs, he = case.hull
    full = inject(topology, case, [InjectionPlan(hs, STEPS_PER_DAY)], act_fn)[:, 0]
    e_star, states = _best_end(topology, case, full, hs, he)
    plan = InjectionPlan(start=hs, end=e_star)
    return _region_outcome(case, "dynamic_end", plan, states, (hs + 1, he))


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
    tails = resume_lanes(
        topology,
        full[he:],
        case.baseline_schedule,
        case.config.demands.as_array(),
        topology.tariff.as_array(),
        he,
    )
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
    topology: NetworkTopology, case: HybridCase, act_fn: ActFn
) -> CaseOutcome:
    """Search earlier starts too, minimizing the during-region area.

    Every candidate start re-runs the policy closed loop (its observations
    change), all of them as lanes of one ``inject`` pass; the latest start
    wins ties, so the search degrades to dynamic_end when an earlier start
    does not strictly help. States up to the hull end do not depend on the
    end, so only the winning start's end is searched, and start hs is a
    candidate, so the chosen during-area never exceeds dynamic_end's.
    """
    hs, he = case.hull
    starts = range(max(0, hs - _START_LOOKBACK), hs + 1)
    plans = [InjectionPlan(start=s, end=STEPS_PER_DAY) for s in starts]
    lanes = inject(topology, case, plans, act_fn)
    during = [
        _range_area(_state_area(lanes[:, k], case.bounds), hs + 1, he)
        for k in range(len(starts))
    ]
    k = min(range(len(starts)), key=lambda k: (during[k], -starts[k]))
    e_star, states = _best_end(topology, case, lanes[:, k], hs, he)
    plan = InjectionPlan(start=starts[k], end=e_star)
    return _region_outcome(case, "dynamic_start_end", plan, states, (hs + 1, he))


# ----------------------------------------------------------------------------
# Case pools and reports


def build_case_pool(
    topology: NetworkTopology,
    index: QueryIndex,
    n_cases: int,
    seed: int,
    max_attempts: int | None = None,
) -> list[HybridCase]:
    """Sample episodes whose retrieved schedule violates the boundaries.

    Raises a validation error when the attempt budget runs out before enough
    violating cases appear (archives generated with imperfection 0 rarely
    yield any; raise the knob or enlarge the archive).
    """
    if n_cases < 1:
        raise ValidationError("n_cases must be >= 1")
    attempts = max_attempts if max_attempts is not None else max(60 * n_cases, 240)
    bounds = topology.bounds_arrays()
    cases: list[HybridCase] = []
    for attempt in range(attempts):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(4, attempt))
        )
        config = sample_episode(topology, rng)
        result = recommend(index, config.initial_levels, config.demands)
        states = simulate(
            topology, config.initial_levels, result.schedule, config.demands
        ).states
        windows = detect_violations(states, bounds)
        if not windows:
            continue
        cases.append(
            HybridCase(
                case_id=len(cases),
                config=config,
                baseline_schedule=result.schedule,
                baseline_states=states,
                windows=windows,
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
        rows = self.outcomes[name]
        during = [r.during_pct for r in rows if r.during_pct is not None]
        post = [r.post_pct for r in rows if r.post_pct is not None]
        b_during = float(np.sum([r.baseline_during_area for r in rows]))
        h_during = float(np.sum([r.hybrid_during_area for r in rows]))
        b_post = float(np.sum([r.baseline_post_area for r in rows]))
        h_post = float(np.sum([r.hybrid_post_area for r in rows]))
        return {
            "strategy": name,
            "n_cases": len(rows),
            "mean_during_pct": float(np.mean(during)) if during else None,
            "n_during_pct_defined": len(during),
            "mean_post_pct": float(np.mean(post)) if post else None,
            "n_post_pct_defined": len(post),
            "mean_during_area_baseline": b_during / max(len(rows), 1),
            "mean_during_area_hybrid": h_during / max(len(rows), 1),
            "mean_post_area_baseline": b_post / max(len(rows), 1),
            "mean_post_area_hybrid": h_post / max(len(rows), 1),
            "pooled_during_pct": _pct(b_during, h_during),
            "pooled_post_pct": _pct(b_post, h_post),
            "cases": [_case_dict(r) for r in rows],
        }

    def to_json_obj(self) -> list[dict]:
        return [self.strategy_summary(name) for name in STRATEGY_NAMES]


def _case_dict(r: CaseOutcome) -> dict:
    return {
        "case_id": r.case_id,
        "injection_start": r.plan.start,
        "injection_end": r.plan.end,
        "during_states": list(r.during_states),
        "post_states": list(r.post_states) if r.post_states else None,
        "baseline_during_area": r.baseline_during_area,
        "hybrid_during_area": r.hybrid_during_area,
        "baseline_post_area": r.baseline_post_area,
        "hybrid_post_area": r.hybrid_post_area,
        "during_pct": r.during_pct,
        "post_pct": r.post_pct,
    }


def evaluate_strategies(
    topology: NetworkTopology, cases: list[HybridCase], act_fn: ActFn
) -> StrategyReport:
    """Apply all five strategy variants to every case in the pool."""
    if not cases:
        raise ValidationError("strategy evaluation needs a non-empty case pool")
    outcomes: dict[str, list[CaseOutcome]] = {name: [] for name in STRATEGY_NAMES}
    for case in cases:
        run = (topology, case, act_fn)
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


_CSV_FIELDS = (  # the case fields of the JSON report but the region bounds
    "case_id", "injection_start", "injection_end", "baseline_during_area",
    "hybrid_during_area", "baseline_post_area", "hybrid_post_area",
    "during_pct", "post_pct",
)  # fmt: skip


def save_strategy_report_csv(report: StrategyReport, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["strategy", *_CSV_FIELDS])
        for name in STRATEGY_NAMES:
            for r in report.outcomes[name]:
                case = _case_dict(r)
                writer.writerow([name] + [_csv_cell(case[k]) for k in _CSV_FIELDS])
