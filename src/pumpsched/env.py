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
from .simulate import Trajectory, _check_speeds, _Rollout, run_day


class AgentKind(enum.Enum):
    CONSTRAINT = "constraint"  # levels only, +/-1 per tank
    DUAL = "dual"  # levels + clock + tariff, blended reward


@dataclass(frozen=True)
class RewardConfig:
    """Weights and per-station energy normalization for the dual reward."""

    constraint_weight: float = 0.7
    energy_weight: float = 0.3
    reward_multiplier: float = 1.0
    energy_min: np.ndarray | None = None
    energy_max: np.ndarray | None = None

    def validate(self, n_stations: int) -> None:
        if not np.isclose(self.constraint_weight + self.energy_weight, 1.0):
            raise ValidationError("reward weights must sum to 1")
        if self.constraint_weight < 0 or self.energy_weight < 0:
            raise ValidationError("reward weights must be >= 0")
        if self.reward_multiplier <= 0:
            raise ValidationError("reward_multiplier must be > 0")
        if self.energy_min is None or self.energy_max is None:
            raise ValidationError("energy normalization bounds are required")
        emin = np.asarray(self.energy_min, dtype=float)
        emax = np.asarray(self.energy_max, dtype=float)
        if emin.shape != (n_stations,) or emax.shape != (n_stations,):
            raise ValidationError("energy bounds must have one entry per station")
        if np.any(emax <= emin):
            raise ValidationError("energy_max must exceed energy_min per station")


def reward_config_for(topology: NetworkTopology) -> RewardConfig:
    """Default dual-reward config: per-step energy spans [0, rated * dt]."""
    rated = np.array([s.rated_power for s in topology.stations], dtype=float)
    if np.any(rated <= 0):
        raise ValidationError(
            "dual reward needs strictly positive rated power on every station"
        )
    return RewardConfig(
        energy_min=np.zeros(topology.n_stations),
        energy_max=rated * DT_HOURS,
    )


def reward_constraint_step(
    levels: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    multiplier: float = 1.0,
) -> float:
    """+multiplier per tank inside its band, -multiplier per tank outside."""
    levels = np.asarray(levels, dtype=float)
    inside = (levels >= lower) & (levels <= upper)
    return float(multiplier * (inside.sum() - (~inside).sum()))


def reward_dual(
    levels: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    energies: np.ndarray,
    tariff_norm_t: float,
    config: RewardConfig,
) -> float:
    """Blend of normalized constraint reward and an energy-cost term, in [0, 1].

    The energy term rewards pumping when energy is cheap: it is one minus the
    mean of normalized per-station energy times the normalized tariff.
    """
    n_tanks = len(np.asarray(levels, dtype=float))
    raw = reward_constraint_step(levels, lower, upper, config.reward_multiplier)
    reward_max = n_tanks * config.reward_multiplier
    reward_min = -reward_max
    constraint_part = (raw - reward_min) / (reward_max - reward_min)

    emin = np.asarray(config.energy_min, dtype=float)
    emax = np.asarray(config.energy_max, dtype=float)
    energy_norm = (np.asarray(energies, dtype=float) - emin) / (emax - emin)
    energy_part = 1.0 - float(np.mean(energy_norm * tariff_norm_t))

    return float(
        config.constraint_weight * constraint_part
        + config.energy_weight * energy_part
    )


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
    agent_kind: AgentKind = AgentKind.CONSTRAINT
    tariff: np.ndarray | None = None  # defaults to the topology tariff
    frame_skip: int | None = None  # decision window; None means every step

    def day_tariff(self, topology: NetworkTopology) -> np.ndarray:
        return topology.tariff.as_array() if self.tariff is None else self.tariff

    def roll_day(
        self, topology: NetworkTopology, act: Callable[[int, np.ndarray], np.ndarray]
    ) -> Trajectory:
        """This episode's whole day through ``run_day`` under ``act(t, levels)``."""
        return run_day(
            topology,
            self.initial_levels,
            self.demands.as_array(),
            self.day_tariff(topology),
            act,
        )


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
    """What the agent sees before step ``t``: levels / caps (dual: + clock, tariff)."""
    levels_norm = levels / caps
    if kind == AgentKind.CONSTRAINT:
        return levels_norm
    return np.concatenate([levels_norm, [t / STEPS_PER_DAY], tariff_norm])


class PumpSchedulingEnv:
    """One-day episodic environment over the tank simulator."""

    def __init__(self, topology: NetworkTopology, reward_config: RewardConfig | None = None):
        self.topology = topology
        self._reward_config = reward_config
        self._config: EpisodeConfig | None = None
        self._day: _Rollout | None = None

    # -- episode plumbing ----------------------------------------------------

    def reset(self, config: EpisodeConfig) -> np.ndarray:
        if config.frame_skip is not None and STEPS_PER_DAY % config.frame_skip != 0:
            raise ValidationError(
                f"frame_skip must divide {STEPS_PER_DAY}, got {config.frame_skip}"
            )
        day = _Rollout(
            self.topology,
            config.initial_levels,
            config.demands.as_array(),
            config.day_tariff(self.topology),
        )
        if config.agent_kind == AgentKind.DUAL:
            cfg = self._reward_config or reward_config_for(self.topology)
            cfg.validate(self.topology.n_stations)
            self._dual_config = cfg
        else:
            self._dual_config = None

        self._config = config
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

        if self._config.agent_kind == AgentKind.CONSTRAINT:
            reward = reward_constraint_step(levels, self._lb, self._ub)
        else:
            reward = reward_dual(
                levels,
                self._lb,
                self._ub,
                day.energies[t],
                float(self._tariff_norm[t]),
                self._dual_config,
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
        return _observation(
            self._config.agent_kind, day.levels, day.t, self._tariff_norm, self._caps
        )

    def trajectory(self) -> Trajectory:
        """Full-day trajectory; only valid after the episode finished."""
        if self._day is None or self._day.t < STEPS_PER_DAY:
            raise ValidationError("episode has not finished")
        return self._day.trajectory()


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


def sample_episode(
    topology: NetworkTopology,
    rng: np.random.Generator,
    agent_kind: AgentKind = AgentKind.CONSTRAINT,
    frame_skip: int | None = None,
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
    return EpisodeConfig(
        initial_levels=initial,
        demands=demands,
        agent_kind=agent_kind,
        frame_skip=frame_skip,
    )


def sample_operational_episode(
    topology: NetworkTopology,
    rng: np.random.Generator,
    agent_kind: AgentKind = AgentKind.CONSTRAINT,
    frame_skip: int | None = None,
    imperfection: float | None = None,
    burn_days: int = 8,
):
    """Draw an evaluation day from the operating distribution the archive records.

    Runs ``burn_days`` of hysteresis operation with fresh demands and margins
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

    if burn_days < 0:
        raise ValidationError("burn_days must be >= 0")
    if imperfection is None:
        imperfection = DEFAULT_IMPERFECTION
    levels = topology.initial_levels_array()
    for _ in range(burn_days):
        demands = demands_from_rng(topology, rng)
        margins = margins_for(topology, imperfection, rng)
        controller = RuleBasedController(topology, margins)
        traj = run_controlled_day(topology, levels, controller, demands)
        levels = traj.states[-1]
    demands = demands_from_rng(topology, rng)
    margins = margins_for(topology, imperfection, rng)
    config = EpisodeConfig(
        initial_levels=levels,
        demands=demands,
        agent_kind=agent_kind,
        frame_skip=frame_skip,
    )
    return config, margins


def closed_loop(
    topology: NetworkTopology,
    config: EpisodeConfig,
    act_fn: Callable[[np.ndarray], np.ndarray],
    window: int = 1,
) -> Callable[[int, np.ndarray], np.ndarray]:
    """An ``act(t, levels)`` callback for ``run_day`` driven by ``act_fn``.

    ``act_fn`` sees the observation the env would show before step ``t``,
    and, as under ``FrameSkipEnv``, its action is held for ``window`` steps.
    """
    _check_window(window)
    tariff_norm = normalize_tariff(config.day_tariff(topology))
    caps = topology.caps_array()
    held = None

    def act(t: int, levels: np.ndarray) -> np.ndarray:
        nonlocal held
        if t % window == 0:
            held = act_fn(_observation(config.agent_kind, levels, t, tariff_norm, caps))
        return held

    return act
