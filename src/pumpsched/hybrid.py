"""Hybrid scheduling: inject a trained policy into a recommended schedule.

A case is a day whose retrieved schedule violates tank boundaries somewhere.
Four injection strategies repair it: fixed early/midday windows (untargeted),
the violation hull (targeted), a searched resume time (dynamic end), and a
searched lead-in plus resume time (dynamic start/end). The resume search
scores every candidate resume step on the exact day it produces, all of them
re-simulated in one ``resume_lanes`` pass.

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
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from .env import AgentKind, EpisodeConfig, closed_loop, sample_episode
from .errors import ValidationError
from .metrics import Bounds, _csv_cell, _exceedance
from .network import DT_HOURS, STEPS_PER_DAY, NetworkTopology
from .query import QueryIndex, recommend
from .simulate import Trajectory, resume_lanes, simulate

UNTARGETED_EARLY = (0, 8)  # 00:00-02:00
UNTARGETED_MIDDAY = (48, 56)  # 12:00-14:00

STRATEGY_NAMES = (
    "untargeted_0_2",
    "untargeted_12_14",
    "targeted",
    "dynamic_end",
    "dynamic_start_end",
)

_START_LOOKBACK = 16  # steps of earlier start explored by dynamic_start_end

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
    baseline_traj: Trajectory
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


def detect_violations(traj: Trajectory, bounds: Bounds) -> tuple[ViolationWindow, ...]:
    """Merged violation windows over states 1..96, any tank counting."""
    exceed = _exceedance(traj.states, bounds) > 0.0
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
    config: EpisodeConfig,
    baseline_schedule: np.ndarray,
    plan: InjectionPlan,
    act_fn: ActFn,
) -> Trajectory:
    """Run the day with policy actions inside the plan, baseline elsewhere.

    The policy acts closed-loop on the observations it would see live; the
    trajectory's ``actions`` is the baseline with its chosen actions blended in.
    """
    plan.validate()
    baseline_schedule = np.asarray(baseline_schedule, dtype=float)
    if baseline_schedule.shape != (STEPS_PER_DAY, topology.n_stations):
        raise ValidationError("baseline schedule shape does not match the day")
    policy = closed_loop(topology, config.agent_kind, act_fn)

    def act(t: int, levels: np.ndarray) -> np.ndarray:
        if plan.start <= t < plan.end:
            return policy(t, levels)
        return baseline_schedule[t]

    return config.roll_day(topology, act)


# ----------------------------------------------------------------------------
# Region bookkeeping


def _state_area(traj_states: np.ndarray, bounds: Bounds) -> np.ndarray:
    """Per-state violation area (m*h) indexed like the states array."""
    return _exceedance(traj_states, bounds).sum(axis=1) * DT_HOURS


def _range_area(state_area: np.ndarray, first: int, last: int) -> float:
    """Sum over the inclusive state range, empty ranges counting zero."""
    if first > last:
        return 0.0
    return float(state_area[first : last + 1].sum())


def _region_outcome(
    case: HybridCase,
    strategy: str,
    plan: InjectionPlan,
    hybrid_traj: Trajectory,
    during: tuple[int, int],
) -> CaseOutcome:
    base_area = _state_area(case.baseline_traj.states, case.bounds)
    hyb_area = _state_area(hybrid_traj.states, case.bounds)
    d_first, d_last = during
    post = (d_last + 1, STEPS_PER_DAY) if d_last < STEPS_PER_DAY else None
    b_during = _range_area(base_area, d_first, d_last)
    h_during = _range_area(hyb_area, d_first, d_last)
    if post is None:
        b_post = h_post = 0.0
    else:
        b_post = _range_area(base_area, post[0], post[1])
        h_post = _range_area(hyb_area, post[0], post[1])
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
    """Inject over a fixed clock window regardless of where violations sit."""
    if not case.windows:
        raise ValidationError("untargeted strategy needs a violating case")
    plan = InjectionPlan(start=window[0], end=window[1])
    name = "untargeted_0_2" if window == UNTARGETED_EARLY else "untargeted_12_14"
    traj = inject(topology, case.config, case.baseline_schedule, plan, act_fn)
    during = (max(plan.start + 1, 1), plan.end)
    return _region_outcome(case, name, plan, traj, during)


def strategy_targeted(
    topology: NetworkTopology, case: HybridCase, act_fn: ActFn
) -> CaseOutcome:
    """Inject over the hull of all violation windows."""
    hs, he = case.hull
    plan = InjectionPlan(start=hs, end=he)
    traj = inject(topology, case.config, case.baseline_schedule, plan, act_fn)
    return _region_outcome(case, "targeted", plan, traj, (hs + 1, he))


def strategy_dynamic_end(
    topology: NetworkTopology,
    case: HybridCase,
    act_fn: ActFn,
    targeted: CaseOutcome | None = None,
) -> CaseOutcome:
    """Search the resume step minimizing total during+post area.

    Candidate ends run from the hull end to end-of-day, each scored on the
    exact day it produces; when the hull end wins, ``targeted`` (the same
    plan) is reused instead of re-running it.
    """
    hs, he = case.hull
    full_plan = InjectionPlan(start=hs, end=STEPS_PER_DAY)
    full = inject(topology, case.config, case.baseline_schedule, full_plan, act_fn)
    e_star = _best_end(topology, case, full, hs, he)

    if e_star == he and targeted is not None:
        return replace(targeted, strategy="dynamic_end")
    plan = InjectionPlan(start=hs, end=e_star)
    traj = inject(topology, case.config, case.baseline_schedule, plan, act_fn)
    return _region_outcome(case, "dynamic_end", plan, traj, (hs + 1, he))


def _best_end(
    topology: NetworkTopology, case: HybridCase, full: Trajectory, hs: int, he: int
) -> int:
    """Argmin over candidate ends of the during+post area, earliest on ties.

    Ending at e scores the injected states hs+1..e plus the states after e with
    the baseline resumed at step e. One ``resume_lanes`` pass re-simulates
    every resume e >= he exactly; ending at 96 resumes nothing.
    """
    full_area = _state_area(full.states, case.bounds)
    tails = resume_lanes(
        topology,
        full.states[he:],
        case.baseline_schedule,
        case.config.demands.as_array(),
        case.baseline_traj.tariff,
        he,
    )
    tail_area = _exceedance(tails, case.bounds).sum(axis=2) * DT_HOURS
    post = [float(row[k + 1 :].sum()) for k, row in enumerate(tail_area)] + [0.0]
    totals = [
        _range_area(full_area, hs + 1, e) + area
        for e, area in zip(range(he, STEPS_PER_DAY + 1), post)
    ]
    return he + int(np.argmin(totals))


def strategy_dynamic_start_end(
    topology: NetworkTopology,
    case: HybridCase,
    act_fn: ActFn,
) -> CaseOutcome:
    """Search earlier starts too, minimizing the during-region area.

    Every candidate start re-runs the policy closed loop (its observations
    change); the latest start wins ties, so the search degrades to
    dynamic_end when an earlier start does not strictly help. States up to
    the hull end do not depend on the end, and start hs is a candidate, so
    the chosen during-area never exceeds dynamic_end's.
    """
    hs, he = case.hull
    best: tuple[float, int, int] | None = None  # (during_area, -s, e)
    for s in range(max(0, hs - _START_LOOKBACK), hs + 1):
        full_plan = InjectionPlan(start=s, end=STEPS_PER_DAY)
        full = inject(topology, case.config, case.baseline_schedule, full_plan, act_fn)
        during_area = _range_area(_state_area(full.states, case.bounds), hs + 1, he)
        e_star = _best_end(topology, case, full, hs, he)
        key = (during_area, -s)
        if best is None or key < (best[0], best[1]):
            best = (during_area, -s, e_star)
    s_star, e_star = -best[1], best[2]
    plan = InjectionPlan(start=s_star, end=e_star)
    traj = inject(topology, case.config, case.baseline_schedule, plan, act_fn)
    return _region_outcome(case, "dynamic_start_end", plan, traj, (hs + 1, he))


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
        config = sample_episode(topology, rng, agent_kind=AgentKind.DUAL)
        result = recommend(index, config.initial_levels, config.demands)
        traj = simulate(
            topology, config.initial_levels, result.schedule, config.demands
        )
        windows = detect_violations(traj, bounds)
        if not windows:
            continue
        cases.append(
            HybridCase(
                case_id=len(cases),
                config=config,
                baseline_schedule=result.schedule,
                baseline_traj=traj,
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
        outcomes["untargeted_0_2"].append(
            strategy_untargeted(topology, case, act_fn, UNTARGETED_EARLY)
        )
        outcomes["untargeted_12_14"].append(
            strategy_untargeted(topology, case, act_fn, UNTARGETED_MIDDAY)
        )
        targeted = strategy_targeted(topology, case, act_fn)
        outcomes["targeted"].append(targeted)
        outcomes["dynamic_end"].append(
            strategy_dynamic_end(topology, case, act_fn, targeted=targeted)
        )
        outcomes["dynamic_start_end"].append(
            strategy_dynamic_start_end(topology, case, act_fn)
        )
    return StrategyReport(n_cases=len(cases), outcomes=outcomes)


def save_strategy_report_json(report: StrategyReport, path: str | Path) -> None:
    Path(path).write_text(json.dumps(report.to_json_obj(), indent=2) + "\n")


def save_strategy_report_csv(report: StrategyReport, path: str | Path) -> None:
    fields = [
        "strategy",
        "case_id",
        "injection_start",
        "injection_end",
        "baseline_during_area",
        "hybrid_during_area",
        "baseline_post_area",
        "hybrid_post_area",
        "during_pct",
        "post_pct",
    ]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fields)
        for name in STRATEGY_NAMES:
            for r in report.outcomes[name]:
                cells = (
                    r.case_id,
                    r.plan.start,
                    r.plan.end,
                    r.baseline_during_area,
                    r.hybrid_during_area,
                    r.baseline_post_area,
                    r.hybrid_post_area,
                    r.during_pct,
                    r.post_pct,
                )
                writer.writerow([name] + [_csv_cell(v) for v in cells])
