"""Deterministic tank mass-balance simulator.

Pump flows depend only on commanded speeds (affinity laws), never on tank
levels, so level trajectories are linear in the initial levels wherever the
physical clamp at [0, level_max_physical] stays inactive. That property powers
the shift predictor used by the hybrid scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NumericError, ValidationError
from .network import DT_HOURS, STEPS_PER_DAY, DemandSet, NetworkTopology


@dataclass(frozen=True)
class SystemState:
    """Step counter and tank levels at that step."""

    t: int
    levels: np.ndarray

    def __post_init__(self):
        levels = np.asarray(self.levels, dtype=float)
        object.__setattr__(self, "levels", levels)


@dataclass(frozen=True)
class StepOutputs:
    """Per-station flows/power/energy plus step cost and per-tank clamp flags."""

    flows: np.ndarray
    powers: np.ndarray
    energies: np.ndarray
    cost: float
    clamp_flags: np.ndarray


@dataclass
class Trajectory:
    """Full record of one simulated day.

    ``states`` has 97 rows (levels before step 0 through after step 95);
    all other arrays have 96 rows, one per step.
    """

    states: np.ndarray  # (97, n_tanks)
    actions: np.ndarray  # (96, n_stations)
    flows: np.ndarray  # (96, n_stations)
    powers: np.ndarray  # (96, n_stations)
    energies: np.ndarray  # (96, n_stations)
    costs: np.ndarray  # (96,)
    clamp_flags: np.ndarray  # (96, n_tanks) bool
    zone_demands: np.ndarray  # (96, n_zones)
    tariff: np.ndarray  # (96,)
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


def _check_speed(speed) -> None:
    arr = np.asarray(speed, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValidationError("pump speed must be finite")
    if np.any(arr < 0) or np.any(arr > 1):
        raise ValidationError("pump speed must lie in [0, 1]")


def step(
    topology: NetworkTopology,
    state: SystemState,
    action: np.ndarray,
    zone_demands_t: np.ndarray,
    tariff_t: float,
) -> tuple[SystemState, StepOutputs]:
    """Advance the network one step under commanded pump speeds.

    ``zone_demands_t`` is the per-zone demand during the step in m^3/h;
    ``tariff_t`` prices the step's energy.
    """
    c = _compiled(topology)
    if state.t >= STEPS_PER_DAY:
        raise ValidationError(f"cannot step a finished day (t={state.t})")
    action = np.asarray(action, dtype=float)
    if action.shape != (topology.n_stations,):
        raise ValidationError(
            f"action shape {action.shape} does not match station count "
            f"{topology.n_stations}"
        )
    _check_speed(action)
    demands = np.asarray(zone_demands_t, dtype=float)
    if demands.shape != (topology.n_zones,):
        raise ValidationError(
            f"demand shape {demands.shape} does not match zone count {topology.n_zones}"
        )
    levels = np.asarray(state.levels, dtype=float)
    if levels.shape != (topology.n_tanks,):
        raise ValidationError(
            f"state has {levels.shape} levels for {topology.n_tanks} tanks"
        )
    if not (np.all(np.isfinite(levels)) and np.all(np.isfinite(demands))):
        raise NumericError("non-finite simulator input")

    flows = c.max_flow * action
    powers = c.rated_power * action**3
    energies = powers * DT_HOURS
    cost = float(energies.sum() * tariff_t)

    inflow = c.fill.T @ flows
    outflow = c.draw.T @ flows
    tank_demand = c.zone_to_tank @ demands
    raw = levels + DT_HOURS * (inflow - outflow - tank_demand) / c.areas
    if not np.all(np.isfinite(raw)):
        raise NumericError("non-finite level update")
    clamped = np.clip(raw, 0.0, c.caps)
    clamp_flags = (raw < 0.0) | (raw > c.caps)

    next_state = SystemState(t=state.t + 1, levels=clamped)
    outputs = StepOutputs(
        flows=flows,
        powers=powers,
        energies=energies,
        cost=cost,
        clamp_flags=clamp_flags,
    )
    return next_state, outputs


def simulate(
    topology: NetworkTopology,
    initial_levels: np.ndarray,
    schedule: np.ndarray,
    demands: DemandSet,
    tariff: np.ndarray | None = None,
) -> Trajectory:
    """Run a full 96-step day under a fixed control schedule."""
    c = _compiled(topology)
    initial = np.asarray(initial_levels, dtype=float)
    if initial.shape != (topology.n_tanks,):
        raise ValidationError(
            f"initial levels shape {initial.shape} does not match tank count"
        )
    if np.any(initial < 0) or np.any(initial > c.caps):
        raise ValidationError("initial levels must lie in [0, level_max_physical]")
    schedule = np.asarray(schedule, dtype=float)
    if schedule.shape != (STEPS_PER_DAY, topology.n_stations):
        raise ValidationError(
            f"schedule shape {schedule.shape}, expected "
            f"({STEPS_PER_DAY}, {topology.n_stations})"
        )
    tariff_arr = (
        topology.tariff.as_array() if tariff is None else np.asarray(tariff, dtype=float)
    )
    if tariff_arr.shape != (STEPS_PER_DAY,):
        raise ValidationError("tariff must hold one value per step")
    zone_values = demands.as_array()  # (n_zones, 96)
    if zone_values.shape[0] != topology.n_zones:
        raise ValidationError("demand set zone count does not match topology")

    n_t, n_s, n_z = topology.n_tanks, topology.n_stations, topology.n_zones
    states = np.empty((STEPS_PER_DAY + 1, n_t))
    flows = np.empty((STEPS_PER_DAY, n_s))
    powers = np.empty((STEPS_PER_DAY, n_s))
    energies = np.empty((STEPS_PER_DAY, n_s))
    costs = np.empty(STEPS_PER_DAY)
    clamp_flags = np.empty((STEPS_PER_DAY, n_t), dtype=bool)

    state = SystemState(t=0, levels=initial)
    states[0] = state.levels
    for t in range(STEPS_PER_DAY):
        state, out = step(topology, state, schedule[t], zone_values[:, t], tariff_arr[t])
        states[t + 1] = state.levels
        flows[t] = out.flows
        powers[t] = out.powers
        energies[t] = out.energies
        costs[t] = out.cost
        clamp_flags[t] = out.clamp_flags

    return Trajectory(
        states=states,
        actions=schedule.copy(),
        flows=flows,
        powers=powers,
        energies=energies,
        costs=costs,
        clamp_flags=clamp_flags,
        zone_demands=zone_values.T.copy(),
        tariff=tariff_arr.copy(),
        level_caps=c.caps.copy(),
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
