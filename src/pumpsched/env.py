"""MDP wrapper around the simulator: observations, rewards, frame skipping.

Two agent framings share the dynamics. The constraint agent sees only
normalized tank levels and earns +/-1 per tank inside/outside its band. The
dual agent additionally sees the day clock and the current normalized price,
and earns a weighted blend of the normalized constraint reward and an
energy-cost term.

An episode is two arrays on a fixed topology: start levels (n_tanks,) and zone
demands (n_zones, 96), with a leading axis of B for B lanes. ``sample_episode``
draws the training ones; evaluation days, which burn in under the hysteresis
controller, come from ``history.sample_operational_episode``, beside that
controller, so the env loads no controller code. ``PumpSchedulingEnv`` steps
one day by hand; its ``step`` returns ``(observation, reward, done, info)``.
"""

from __future__ import annotations

import enum
from typing import Callable

import numpy as np

from .errors import NumericError, ValidationError
from .network import (
    STEPS_PER_DAY,
    CompiledTopology,
    NetworkTopology,
    demands_from_rng,
)
from .simulate import Trajectory, _check_speeds, _day_tail, _Rollout
from .simulate import step_costs, step_energies


class AgentKind(enum.Enum):
    CONSTRAINT = "constraint"  # levels only, +/-1 per tank
    DUAL = "dual"  # levels + clock + current price, blended reward

    def obs_dim(self, n_tanks: int) -> int:
        """Levels over caps; the dual agent adds the clock and current price."""
        return n_tanks if self is AgentKind.CONSTRAINT else n_tanks + 2


CONSTRAINT_WEIGHT = 0.7  # dual reward: share of the normalized constraint term
ENERGY_WEIGHT = 0.3  # dual reward: share of the energy-cost term


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
    energy_span: np.ndarray,
) -> float | np.ndarray:
    """Blend of normalized constraint reward and an energy-cost term, in [0, 1].

    The energy term rewards pumping when energy is cheap: it is one minus the
    mean of per-station energy over its span [0, ``energy_span``] times the
    normalized tariff. Tanks and stations lie along the last axes;
    ``tariff_norm_t`` broadcasts. A station with no span, rated power 0,
    raises ``ValidationError``.
    """
    if np.any(energy_span <= 0):
        raise ValidationError(
            "dual reward needs strictly positive rated power on every station"
        )
    n_tanks = np.shape(levels)[-1]
    raw = reward_constraint_step(levels, lower, upper)
    constraint_part = (raw + n_tanks) / (2 * n_tanks)

    energy_norm = np.asarray(energies, dtype=float) / energy_span
    tariff_part = np.expand_dims(tariff_norm_t, -1)
    energy_part = 1.0 - np.mean(energy_norm * tariff_part, axis=-1)

    return CONSTRAINT_WEIGHT * constraint_part + ENERGY_WEIGHT * energy_part


def _observation(
    kind: AgentKind,
    levels: np.ndarray,
    t: int,
    c: CompiledTopology,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Before step ``t``: levels / caps (dual: + clock ``t / 96``, price of step
    ``t``, the next day's first at t = 96), a row per lane, written into
    ``out`` when given; ``c`` is the topology's ``compiled``."""
    n_t = levels.shape[-1]
    if out is None:
        out = np.empty((*levels.shape[:-1], kind.obs_dim(n_t)))
    np.divide(levels, c.caps, out=out[..., :n_t])
    if kind == AgentKind.DUAL:
        out[..., n_t] = t / STEPS_PER_DAY
        out[..., n_t + 1] = c.tariff_norm[t % STEPS_PER_DAY]
    return out


class PumpSchedulingEnv:
    """One-day episodic environment over the tank simulator, framed for the
    ``kind`` agent: its observations and its reward."""

    def __init__(self, topology: NetworkTopology, kind: AgentKind):
        self.topology = topology
        self.kind = kind
        self._day: _Rollout | None = None

    def reset(self, initial_levels: np.ndarray, zone_values: np.ndarray) -> np.ndarray:
        self._day = day = _Rollout(self.topology, initial_levels, zone_values)
        return _observation(self.kind, day.levels, day.t, day.c)

    def step(self, action: np.ndarray) -> tuple[np.ndarray, float, bool, dict]:
        day = self._day
        if day is None:
            raise ValidationError("reset the environment before stepping")
        if day.t >= STEPS_PER_DAY:
            raise ValidationError("episode finished; reset before stepping again")
        t = day.t
        action = np.asarray(action, dtype=float)
        _check_speeds(action)
        day.advance(action)
        levels, c = day.levels, day.c
        if not np.all(np.isfinite(levels)):
            raise NumericError("non-finite level update")

        energies = step_energies(c, action)
        if self.kind == AgentKind.CONSTRAINT:
            reward = reward_constraint_step(levels, c.lower, c.upper)
        else:
            price = float(c.tariff_norm[t])
            reward = reward_dual(
                levels, c.lower, c.upper, energies, price, c.energy_span
            )
        inside = (levels >= c.lower) & (levels <= c.upper)
        info = {
            "in_bounds": inside,
            # the env's day starts at step 0; steps not yet advanced idle
            "step_cost": float(step_costs(c, day.actions)[t]),
            "step_energy": float(energies.sum()),
            "t": day.t,
        }
        observation = _observation(self.kind, levels, day.t, c)
        return observation, reward, day.t >= STEPS_PER_DAY, info

    def trajectory(self) -> Trajectory:
        """Full-day trajectory; only valid after the episode finished."""
        if self._day is None or self._day.t < STEPS_PER_DAY:
            raise ValidationError("episode has not finished")
        return Trajectory(self._day.states, self._day.actions)


def day_rewards(topology: NetworkTopology, kind: AgentKind, day: Trajectory):
    """The env's reward for every step and lane of a day rolled alone or as
    lanes, from step 96 - len(day.actions) on."""
    c = topology.compiled
    if kind == AgentKind.CONSTRAINT:
        return reward_constraint_step(day.states[1:], c.lower, c.upper)
    energies = step_energies(c, day.actions)
    tariff_norm = _day_tail(c.tariff_norm, day.actions)
    return reward_dual(
        day.states[1:], c.lower, c.upper, energies, tariff_norm, c.energy_span
    )


def _check_window(window: int) -> None:
    if window < 1 or STEPS_PER_DAY % window != 0:
        raise ValidationError(
            f"frame-skip window must divide {STEPS_PER_DAY}, got {window}"
        )


_START_CAP_CLEARANCE = 0.02  # keep starts off the physical rails


def sample_episode(
    topology: NetworkTopology,
    rng: np.random.Generator,
    start_overhang: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw an episode, ``(initial_levels, zone_values)``: diverse start levels
    within the band, fresh demands.

    ``start_overhang`` stretches the start-level range past each boundary by
    that fraction of the band. Evaluation keeps it at 0 (operations start
    inside the band); training widens it so policies learn to recover.
    """
    if start_overhang < 0:
        raise ValidationError("start_overhang must be >= 0")
    c = topology.compiled
    band = c.upper - c.lower
    lo = np.maximum(c.lower - start_overhang * band, _START_CAP_CLEARANCE * c.caps)
    hi = np.minimum(
        c.upper + start_overhang * band, (1 - _START_CAP_CLEARANCE) * c.caps
    )
    initial = rng.uniform(lo, hi)
    return initial, demands_from_rng(topology, rng)


def closed_loop(
    topology: NetworkTopology,
    kind: AgentKind,
    act_fn: Callable[[np.ndarray], np.ndarray],
    window: int = 1,
) -> Callable[[int, np.ndarray], np.ndarray]:
    """An ``act(t, levels)`` callback for ``run_day`` driven by ``act_fn``.

    ``act_fn`` sees the observation a ``kind`` agent would get from the env
    before step ``t``, one row per lane when ``run_day`` rolls lanes, and its
    action is held for ``window`` steps: a decision every ``window`` steps,
    96 / ``window`` a day. Each decision rewrites one observation array (anew
    if the lane count changed), valid only during its ``act_fn`` call.
    """
    _check_window(window)
    c = topology.compiled
    obs = held = None

    def act(t: int, levels: np.ndarray) -> np.ndarray:
        nonlocal obs, held
        if t % window == 0:
            fits = obs is not None and obs.shape[:-1] == levels.shape[:-1]
            obs = _observation(kind, levels, t, c, obs if fits else None)
            held = act_fn(obs)
        return held

    return act
