"""Deterministic tank mass-balance simulator with one day-rollout core.

``run_day`` is the only loop that advances tank levels: it rolls a day from
step ``t0`` to the end under an ``act(t, levels)`` callback, so a fixed
schedule, the hysteresis controller, and a policy injected into a schedule all
share it, and ``PumpSchedulingEnv`` advances the same preallocated record one
agent step at a time. Every step goes through the kernel ``step``. Inputs are
validated once per day at that boundary.

Pump flows depend only on commanded speeds (affinity laws), never on tank
levels, so level trajectories are linear in the initial levels wherever the
physical clamp at [0, level_max_physical] stays inactive. That property powers
the shift predictor used by the hybrid scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import NumericError, ValidationError
from .network import DT_HOURS, STEPS_PER_DAY, DemandSet, NetworkTopology


@dataclass
class Trajectory:
    """Record of one simulated day from step ``t0`` (0 for a whole day).

    ``states`` has ``97 - t0`` rows (levels before step t0 through after step
    95); all other step arrays have ``96 - t0`` rows, one per step.
    """

    states: np.ndarray  # (97 - t0, n_tanks)
    actions: np.ndarray  # (96 - t0, n_stations)
    flows: np.ndarray  # (96 - t0, n_stations)
    powers: np.ndarray  # (96 - t0, n_stations)
    energies: np.ndarray  # (96 - t0, n_stations)
    costs: np.ndarray  # (96 - t0,)
    clamp_flags: np.ndarray  # (96 - t0, n_tanks) bool
    zone_demands: np.ndarray  # (96 - t0, n_zones)
    tariff: np.ndarray  # (96 - t0,)
    level_caps: np.ndarray  # (n_tanks,)

    def __post_init__(self):
        for name in (
            "states",
            "actions",
            "flows",
            "powers",
            "energies",
            "costs",
            "clamp_flags",
            "zone_demands",
            "tariff",
            "level_caps",
        ):
            arr = np.asarray(getattr(self, name))
            arr.setflags(write=False)
            setattr(self, name, arr)

    def any_clamped(self) -> bool:
        return bool(self.clamp_flags.any())


class _Compiled:
    """Topology cross-references lowered to arrays for the hot loop."""

    def __init__(self, topology: NetworkTopology):
        n_t, n_s, n_z = topology.n_tanks, topology.n_stations, topology.n_zones
        self.fill = np.zeros((n_s, n_t))
        self.draw = np.zeros((n_s, n_t))
        for j, station in enumerate(topology.stations):
            for tank_id, frac in station.fills:
                self.fill[j, topology.tank_index(tank_id)] += frac
            if station.draws_from is not None:
                self.draw[j, topology.tank_index(station.draws_from)] = 1.0
        self.max_flow = np.array([s.max_flow for s in topology.stations])
        self.rated_power = np.array([s.rated_power for s in topology.stations])
        self.zone_to_tank = np.zeros((n_t, n_z))
        for k, zone in enumerate(topology.zones):
            self.zone_to_tank[topology.tank_index(zone.served_by), k] = 1.0
        self.areas = topology.areas_array()
        self.caps = topology.caps_array()


@lru_cache(maxsize=32)
def _compiled(topology: NetworkTopology) -> _Compiled:
    return _Compiled(topology)


def _check_speeds(speeds: np.ndarray) -> None:
    if not np.all(np.isfinite(speeds)):
        raise ValidationError("pump speed must be finite")
    if np.any(speeds < 0) or np.any(speeds > 1):
        raise ValidationError("pump speed must lie in [0, 1]")


def step(
    c: _Compiled,
    levels: np.ndarray,
    action: np.ndarray,
    zone_demands_t: np.ndarray,
    tariff_t: float,
):
    """One step of the mass balance under commanded pump speeds.

    ``c`` is the topology lowered by ``_compiled``; the inputs are not
    validated here, ``run_day`` and ``PumpSchedulingEnv.step`` do that.

    ``zone_demands_t`` is the per-zone demand during the step in m^3/h;
    ``tariff_t`` prices the step's energy. Returns the clamped next levels,
    the per-station flows, powers and energies, the step cost, and the
    per-tank clamp flags.
    """
    flows = c.max_flow * action
    powers = c.rated_power * action**3
    energies = powers * DT_HOURS
    cost = float(energies.sum() * tariff_t)

    inflow = c.fill.T @ flows
    outflow = c.draw.T @ flows
    tank_demand = c.zone_to_tank @ zone_demands_t
    raw = levels + DT_HOURS * (inflow - outflow - tank_demand) / c.areas
    clamp_flags = (raw < 0.0) | (raw > c.caps)
    return np.clip(raw, 0.0, c.caps), flows, powers, energies, cost, clamp_flags


class _Rollout:
    """Preallocated record of one day rolled from step ``t0``.

    The constructor validates the day's inputs; ``advance`` applies the
    action for step ``t`` to ``levels`` and records it; ``trajectory``
    returns the record.
    """

    def __init__(
        self,
        topology: NetworkTopology,
        initial_levels: np.ndarray,
        zone_values: np.ndarray,
        tariff: np.ndarray,
        t0: int = 0,
    ):
        c = _compiled(topology)
        if not 0 <= t0 <= STEPS_PER_DAY:
            raise ValidationError(f"cannot start a day at step {t0}")
        levels = np.array(initial_levels, dtype=float)
        if levels.shape != (topology.n_tanks,):
            raise ValidationError(
                f"initial levels shape {levels.shape} does not match tank count "
                f"{topology.n_tanks}"
            )
        if np.any(levels < 0) or np.any(levels > c.caps):
            raise ValidationError("initial levels must lie in [0, level_max_physical]")
        zone_values = np.asarray(zone_values, dtype=float)
        if zone_values.shape != (topology.n_zones, STEPS_PER_DAY):
            raise ValidationError(
                f"demand shape {zone_values.shape}, expected "
                f"({topology.n_zones}, {STEPS_PER_DAY})"
            )
        tariff = np.asarray(tariff, dtype=float)
        if tariff.shape != (STEPS_PER_DAY,):
            raise ValidationError("tariff must hold one value per step")
        if not (np.all(np.isfinite(levels)) and np.all(np.isfinite(zone_values))):
            raise NumericError("non-finite simulator input")

        n = STEPS_PER_DAY - t0
        n_t, n_s = topology.n_tanks, topology.n_stations
        self.c, self.zone_values, self.tariff = c, zone_values, tariff
        self.t0 = self.t = t0
        self.levels = levels
        self.states = np.empty((n + 1, n_t))
        self.states[0] = levels
        self.actions = np.empty((n, n_s))
        self.flows = np.empty((n, n_s))
        self.powers = np.empty((n, n_s))
        self.energies = np.empty((n, n_s))
        self.costs = np.empty(n)
        self.clamp_flags = np.empty((n, n_t), dtype=bool)

    def advance(self, action: np.ndarray) -> None:
        t = self.t
        i = t - self.t0
        if np.shape(action) != self.actions.shape[1:]:
            raise ValidationError(
                f"action shape {np.shape(action)} does not match station count "
                f"{self.actions.shape[1]}"
            )
        self.actions[i] = action
        (
            self.levels,
            self.flows[i],
            self.powers[i],
            self.energies[i],
            self.costs[i],
            self.clamp_flags[i],
        ) = step(
            self.c, self.levels, self.actions[i], self.zone_values[:, t], self.tariff[t]
        )
        self.states[i + 1] = self.levels
        self.t = t + 1

    def trajectory(self) -> Trajectory:
        return Trajectory(
            states=self.states,
            actions=self.actions,
            flows=self.flows,
            powers=self.powers,
            energies=self.energies,
            costs=self.costs,
            clamp_flags=self.clamp_flags,
            zone_demands=self.zone_values[:, self.t0 :].T.copy(),
            tariff=self.tariff[self.t0 :].copy(),
            level_caps=self.c.caps.copy(),
        )


def run_day(
    topology: NetworkTopology,
    initial_levels: np.ndarray,
    zone_values: np.ndarray,
    tariff: np.ndarray,
    act: Callable[[int, np.ndarray], np.ndarray],
    t0: int = 0,
) -> Trajectory:
    """Roll the day from step ``t0`` to its end under ``act``.

    ``zone_values`` is the (n_zones, 96) demand array and ``tariff`` the
    per-step price of the whole day. ``act(t, levels)`` returns the pump
    speeds for step ``t`` given the levels before it. Speeds outside [0, 1]
    or non-finite raise ``ValidationError`` and non-finite levels raise
    ``NumericError``, both checked once for the day.
    """
    day = _Rollout(topology, initial_levels, zone_values, tariff, t0)
    for t in range(t0, STEPS_PER_DAY):
        day.advance(act(t, day.levels))
    _check_speeds(day.actions)
    if not np.all(np.isfinite(day.states)):
        raise NumericError("non-finite level update")
    return day.trajectory()


def simulate(
    topology: NetworkTopology,
    initial_levels: np.ndarray,
    schedule: np.ndarray,
    demands: DemandSet,
    tariff: np.ndarray | None = None,
) -> Trajectory:
    """Run a full 96-step day under a fixed control schedule."""
    schedule = np.asarray(schedule, dtype=float)
    if schedule.shape != (STEPS_PER_DAY, topology.n_stations):
        raise ValidationError(
            f"schedule shape {schedule.shape}, expected "
            f"({STEPS_PER_DAY}, {topology.n_stations})"
        )
    if tariff is None:
        tariff = topology.tariff.as_array()
    return run_day(
        topology,
        initial_levels,
        demands.as_array(),
        tariff,
        lambda t, levels: schedule[t],
    )


def shift_predict(base: Trajectory, delta_levels: np.ndarray) -> Trajectory:
    """Offset every state by a constant per-tank delta; outputs are unchanged.

    Exact whenever the clamp never engages on either trajectory, because flows
    are level-independent.
    """
    delta = np.asarray(delta_levels, dtype=float)
    if delta.shape != (base.states.shape[1],):
        raise ValidationError("delta shape does not match tank count")
    return Trajectory(
        states=base.states + delta,
        actions=base.actions,
        flows=base.flows,
        powers=base.powers,
        energies=base.energies,
        costs=base.costs,
        clamp_flags=base.clamp_flags,
        zone_demands=base.zone_demands,
        tariff=base.tariff,
        level_caps=base.level_caps,
    )


def shift_valid(base: Trajectory, delta_levels: np.ndarray) -> bool:
    """True when the shifted trajectory provably equals a re-simulation.

    Requires a clamp-free base and shifted levels strictly inside
    (0, level_max_physical) at every step.
    """
    delta = np.asarray(delta_levels, dtype=float)
    if delta.shape != (base.states.shape[1],):
        raise ValidationError("delta shape does not match tank count")
    if base.any_clamped():
        return False
    shifted = base.states + delta
    return bool(np.all(shifted > 0.0) and np.all(shifted < base.level_caps))
