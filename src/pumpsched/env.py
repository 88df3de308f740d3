"""MDP wrapper around the simulator: observations, rewards, frame skipping.

Two agent framings share the dynamics. The constraint agent sees only
normalized tank levels and earns +/-1 per tank inside/outside its band. The
dual agent additionally sees the day clock and the full normalized tariff, and
earns a weighted blend of the normalized constraint reward and an energy-cost
term.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import NumericError, ValidationError
from .network import (
    DT_HOURS,
    STEPS_PER_DAY,
    DemandSet,
    NetworkTopology,
    demands_from_rng,
)
from .simulate import Trajectory, _check_speeds, _Rollout


class AgentKind(enum.Enum):
    CONSTRAINT = "constraint"  # levels only, +/-1 per tank
    DUAL = "dual"  # levels + clock + tariff, blended reward


CONSTRAINT_WEIGHT = 0.7  # dual reward: share of the normalized constraint term
ENERGY_WEIGHT = 0.3  # dual reward: share of the energy-cost term


def _energy_max(topology: NetworkTopology) -> np.ndarray:
    """Each station's per-step energy at full speed, rated power * dt: the
    span [0, energy_max] the dual reward normalizes station energy by."""
    rated = np.array([s.rated_power for s in topology.stations], dtype=float)
    if np.any(rated <= 0):
        raise ValidationError(
            "dual reward needs strictly positive rated power on every station"
        )
    return rated * DT_HOURS


def reward_constraint_step(
    levels: np.ndarray, lower: np.ndarray, upper: np.ndarray
) -> float | np.ndarray:
    """+1 per tank inside its band (last axis), -1 per tank outside."""
    levels = np.asarray(levels, dtype=float)
    inside = (levels >= lower) & (levels <= upper)
    return np.where(inside, 1.0, -1.0).sum(axis=-1)


def reward_dual(
    levels: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    energies: np.ndarray,
    tariff_norm_t: float | np.ndarray,
    energy_max: np.ndarray,
) -> float | np.ndarray:
    """Blend of normalized constraint reward and an energy-cost term, in [0, 1].

    The energy term rewards pumping when energy is cheap: it is one minus the
    mean of per-station energy over ``energy_max`` times the normalized
    tariff. Tanks and stations lie along the last axes; ``tariff_norm_t``
    broadcasts.
    """
    n_tanks = np.shape(levels)[-1]
    raw = reward_constraint_step(levels, lower, upper)
    constraint_part = (raw + n_tanks) / (2 * n_tanks)

    energy_norm = np.asarray(energies, dtype=float) / energy_max
    tariff_part = np.expand_dims(tariff_norm_t, -1)
    energy_part = 1.0 - np.mean(energy_norm * tariff_part, axis=-1)

    return CONSTRAINT_WEIGHT * constraint_part + ENERGY_WEIGHT * energy_part


def normalize_tariff(tariff: np.ndarray) -> np.ndarray:
    """Min-max normalize one day's tariff into [0, 1]."""
    arr = np.asarray(tariff, dtype=float)
    lo, hi = arr.min(), arr.max()
    if not hi > lo:
        raise ValidationError("tariff must have min strictly below max")
    return (arr - lo) / (hi - lo)


@dataclass
class EpisodeConfig:
    """Everything that varies between episodes on a fixed topology."""

    initial_levels: np.ndarray
    demands: DemandSet


@dataclass
class StepResult:
    observation: np.ndarray
    reward: float
    done: bool
    info: dict = field(default_factory=dict)


def _observation(
    kind: AgentKind,
    levels: np.ndarray,
    t: int,
    tariff_norm: np.ndarray,
    caps: np.ndarray,
) -> np.ndarray:
    """Before step ``t``: levels / caps (dual: + clock, tariff), a row per lane."""
    levels_norm = levels / caps
    if kind == AgentKind.CONSTRAINT:
        return levels_norm
    n_t = levels.shape[-1]
    obs = np.empty((*levels.shape[:-1], n_t + 1 + STEPS_PER_DAY))
    obs[..., :n_t] = levels_norm
    obs[..., n_t] = t / STEPS_PER_DAY
    obs[..., n_t + 1 :] = tariff_norm
    return obs


class PumpSchedulingEnv:
    """One-day episodic environment over the tank simulator, framed for the
    ``kind`` agent: its observations and its reward."""

    def __init__(self, topology: NetworkTopology, kind: AgentKind):
        self.topology = topology
        self.kind = kind
        self._day: _Rollout | None = None

    # -- episode plumbing ----------------------------------------------------

    def reset(self, config: EpisodeConfig) -> np.ndarray:
        day = _Rollout(
            self.topology,
            config.initial_levels,
            config.demands.as_array(),
            self.topology.tariff.as_array(),
        )
        if self.kind == AgentKind.DUAL:
            self._energy_max = _energy_max(self.topology)

        self._day = day
        self._tariff_norm = normalize_tariff(day.tariff)
        self._caps = self.topology.caps_array()
        self._lb, self._ub = self.topology.bounds_arrays()
        return self._observe()

    def step(self, action: np.ndarray) -> StepResult:
        day = self._day
        if day is None:
            raise ValidationError("reset the environment before stepping")
        if day.t >= STEPS_PER_DAY:
            raise ValidationError("episode finished; reset before stepping again")
        t = day.t
        action = np.asarray(action, dtype=float)
        _check_speeds(action)
        day.advance(action)
        levels = day.levels
        if not np.all(np.isfinite(levels)):
            raise NumericError("non-finite level update")

        if self.kind == AgentKind.CONSTRAINT:
            reward = reward_constraint_step(levels, self._lb, self._ub)
        else:
            reward = reward_dual(
                levels,
                self._lb,
                self._ub,
                day.energies[t],
                float(self._tariff_norm[t]),
                self._energy_max,
            )
        inside = (levels >= self._lb) & (levels <= self._ub)
        return StepResult(
            observation=self._observe(),
            reward=reward,
            done=day.t >= STEPS_PER_DAY,
            info={
                "in_bounds": inside,
                "step_cost": float(day.costs[t]),
                "step_energy": float(day.energies[t].sum()),
                "t": day.t,
            },
        )

    # -- views ----------------------------------------------------------------

    def _observe(self) -> np.ndarray:
        day = self._day
        return _observation(self.kind, day.levels, day.t, self._tariff_norm, self._caps)

    def trajectory(self) -> Trajectory:
        """Full-day trajectory; only valid after the episode finished."""
        if self._day is None or self._day.t < STEPS_PER_DAY:
            raise ValidationError("episode has not finished")
        return self._day.trajectory()


def day_rewards(topology: NetworkTopology, kind: AgentKind, day: Trajectory):
    """The env's reward for every step and lane of days rolled as lanes."""
    lb, ub = topology.bounds_arrays()
    if kind == AgentKind.CONSTRAINT:
        return reward_constraint_step(day.states[1:], lb, ub)
    tariff_norm = normalize_tariff(day.tariff)[:, None]
    return reward_dual(
        day.states[1:], lb, ub, day.energies, tariff_norm, _energy_max(topology)
    )


def _check_window(window: int) -> None:
    if window < 1 or STEPS_PER_DAY % window != 0:
        raise ValidationError(
            f"frame-skip window must divide {STEPS_PER_DAY}, got {window}"
        )


class FrameSkipEnv:
    """Hold each commanded action for a fixed window of inner steps.

    The wrapped reward is the sum of the inner rewards; the observation is the
    one after the last inner step. A window of W yields 96/W decisions per day.
    """

    def __init__(self, env: PumpSchedulingEnv, window: int):
        _check_window(window)
        self.env = env
        self.window = window

    def reset(self, config: EpisodeConfig) -> np.ndarray:
        return self.env.reset(config)

    def step(self, action: np.ndarray) -> StepResult:
        total = 0.0
        result: StepResult | None = None
        for _ in range(self.window):
            result = self.env.step(action)
            total += result.reward
        return StepResult(
            observation=result.observation,
            reward=total,
            done=result.done,
            info=result.info,
        )

    def trajectory(self) -> Trajectory:
        return self.env.trajectory()


_START_CAP_CLEARANCE = 0.02  # keep starts off the physical rails
BURN_DAYS = 8  # hysteresis days run before an evaluation day


def sample_episode(
    topology: NetworkTopology,
    rng: np.random.Generator,
    start_overhang: float = 0.0,
) -> EpisodeConfig:
    """Draw an episode: diverse start levels within the band, fresh demands.

    ``start_overhang`` stretches the start-level range past each boundary by
    that fraction of the band. Evaluation keeps it at 0 (operations start
    inside the band); training widens it so policies learn to recover.
    """
    if start_overhang < 0:
        raise ValidationError("start_overhang must be >= 0")
    lb, ub = topology.bounds_arrays()
    caps = topology.caps_array()
    band = ub - lb
    lo = np.maximum(lb - start_overhang * band, _START_CAP_CLEARANCE * caps)
    hi = np.minimum(ub + start_overhang * band, (1 - _START_CAP_CLEARANCE) * caps)
    initial = rng.uniform(lo, hi)
    demands = demands_from_rng(topology, rng)
    return EpisodeConfig(initial, demands)


def sample_operational_episode(
    topology: NetworkTopology,
    rng: np.random.Generator,
    imperfection: float | None = None,
):
    """Draw an evaluation day from the operating distribution the archive records.

    Runs ``BURN_DAYS`` of hysteresis operation with fresh demands and margins
    each day, levels carrying over between days, then returns the day that
    follows: the carried-over levels, a fresh demand draw, and the margins the
    operator would use that day. Comparing a policy against the hysteresis
    controller under those margins on this exact day reproduces the
    agent-versus-recorded-practice setting, including the slow drift that
    makes a realistic share of operating days violate their bounds.

    Returns ``(config, margins)``.
    """
    from .history import (
        DEFAULT_IMPERFECTION,
        RuleBasedController,
        margins_for,
        run_controlled_day,
    )

    if imperfection is None:
        imperfection = DEFAULT_IMPERFECTION
    levels = topology.initial_levels_array()
    for _ in range(BURN_DAYS):
        demands = demands_from_rng(topology, rng)
        margins = margins_for(topology, imperfection, rng)
        controller = RuleBasedController(topology, margins)
        traj = run_controlled_day(topology, levels, controller, demands)
        levels = traj.states[-1]
    demands = demands_from_rng(topology, rng)
    margins = margins_for(topology, imperfection, rng)
    return EpisodeConfig(levels, demands), margins


def closed_loop(
    topology: NetworkTopology,
    kind: AgentKind,
    act_fn: Callable[[np.ndarray], np.ndarray],
    window: int = 1,
) -> Callable[[int, np.ndarray], np.ndarray]:
    """An ``act(t, levels)`` callback for ``run_day`` driven by ``act_fn``.

    ``act_fn`` sees the observation a ``kind`` agent would get from the env
    before step ``t``, one row per lane when ``run_day`` rolls lanes, and, as
    under ``FrameSkipEnv``, its action is held for ``window`` steps.
    """
    _check_window(window)
    tariff_norm = normalize_tariff(topology.tariff.as_array())
    caps = topology.caps_array()
    held = None

    def act(t: int, levels: np.ndarray) -> np.ndarray:
        nonlocal held
        if t % window == 0:
            held = act_fn(_observation(kind, levels, t, tariff_norm, caps))
        return held

    return act
