"""Deterministic tank mass-balance simulator with one day-rollout core.

``run_day`` is the only loop that advances one day's tank levels: it rolls a
day from step ``t0`` to the end under an ``act(t, levels)`` callback, so a
fixed schedule, the hysteresis controller, a policy injected into a schedule
and PPO's lockstep episodes (lanes of one day) all share it, and
``PumpSchedulingEnv`` advances the same record one agent step at a time.
``resume_lanes`` advances many resumes of one fixed schedule as lanes of one
array; pump flows depend only on commanded speeds (affinity laws), never on
tank levels, so lanes that run the same action share one kernel call. Every
step goes through the kernel ``step``; inputs are validated once per day at the
boundary. A lane's bytes equal those of its day rolled alone.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import NumericError, ValidationError
from .network import DT_HOURS, STEPS_PER_DAY, DemandSet, NetworkTopology


@dataclass
class Trajectory:
    """Record of one simulated day from step ``t0`` (0 for a whole day).

    ``states`` has ``97 - t0`` rows (levels before step t0 through after step
    95), the other step arrays ``96 - t0``; lanes add an axis after the rows.
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

    def __post_init__(self):
        for f in fields(self):
            arr = np.asarray(getattr(self, f.name))
            arr.setflags(write=False)
            setattr(self, f.name, arr)


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
    per-tank clamp flags. Leading lane axes broadcast; the stacked mat-vecs
    run the one-lane BLAS product per lane, so every lane is exact.
    """
    flows = c.max_flow * action
    powers = c.rated_power * action**3
    energies = powers * DT_HOURS
    cost = energies.sum(axis=-1) * tariff_t

    cols = flows[..., None]
    inflow = c.fill.T @ cols
    outflow = c.draw.T @ cols
    tank_demand = c.zone_to_tank @ zone_demands_t[..., None]
    raw = levels + DT_HOURS * (inflow - outflow - tank_demand)[..., 0] / c.areas
    clamp_flags = (raw < 0.0) | (raw > c.caps)
    levels = np.minimum(np.maximum(raw, 0.0), c.caps)  # np.clip's bytes, faster
    return levels, flows, powers, energies, cost, clamp_flags


class _Rollout:
    """Preallocated record of one day (or of lanes of days) rolled from ``t0``.

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
        if levels.ndim not in (1, 2) or levels.shape[-1] != topology.n_tanks:
            raise ValidationError(
                f"initial levels shape {levels.shape} does not match tank count "
                f"{topology.n_tanks}"
            )
        if np.any(levels < 0) or np.any(levels > c.caps):
            raise ValidationError("initial levels must lie in [0, level_max_physical]")
        lanes = levels.shape[:-1]
        zone_values = np.asarray(zone_values, dtype=float)
        if zone_values.shape != (*lanes, topology.n_zones, STEPS_PER_DAY):
            raise ValidationError(
                f"demand shape {zone_values.shape}, expected "
                f"{(*lanes, topology.n_zones, STEPS_PER_DAY)}"
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
        self.states = np.empty((n + 1, *lanes, n_t))
        self.states[0] = levels
        self.actions = np.empty((n, *lanes, n_s))
        self.flows = np.empty((n, *lanes, n_s))
        self.powers = np.empty((n, *lanes, n_s))
        self.energies = np.empty((n, *lanes, n_s))
        self.costs = np.empty((n, *lanes))
        self.clamp_flags = np.empty((n, *lanes, n_t), dtype=bool)

    def advance(self, action: np.ndarray) -> None:
        t = self.t
        i = t - self.t0
        if np.shape(action) != self.actions.shape[1:]:
            raise ValidationError(
                f"action shape {np.shape(action)} does not match station count "
                f"{self.actions.shape[-1]}"
            )
        self.actions[i] = action
        zone_t = self.zone_values[..., t]
        (
            self.levels,
            self.flows[i],
            self.powers[i],
            self.energies[i],
            self.costs[i],
            self.clamp_flags[i],
        ) = step(self.c, self.levels, self.actions[i], zone_t, self.tariff[t])
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
            zone_demands=np.moveaxis(self.zone_values[..., self.t0 :], -1, 0).copy(),
            tariff=self.tariff[self.t0 :].copy(),
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
    ``NumericError``, both checked once for the day. Initial levels (B, n_tanks)
    with demands (B, n_zones, 96) roll B lanes; ``act`` gets a row per lane.
    """
    day = _Rollout(topology, initial_levels, zone_values, tariff, t0)
    for t in range(t0, STEPS_PER_DAY):
        day.advance(act(t, day.levels))
    _check_speeds(day.actions)
    if not np.all(np.isfinite(day.states)):
        raise NumericError("non-finite level update")
    return day.trajectory()


def resume_lanes(
    topology: NetworkTopology,
    branch_states: np.ndarray,
    schedule: np.ndarray,
    zone_values: np.ndarray,
    tariff: np.ndarray,
    t0: int,
) -> np.ndarray:
    """Resume ``schedule`` at every step from ``t0`` on, all lanes in one pass.

    Lane k takes over ``branch_states[k]``, the levels before step t0 + k, and
    runs ``schedule`` from there to the end of the day. Running lanes share
    ``schedule[t]`` and flows do not depend on levels, so one kernel call
    advances them all with the scalar arithmetic: row k from column k on equals
    ``run_day(..., branch_states[k], t0=t0 + k).states`` byte for byte, and its
    earlier columns hold ``branch_states[:k]``. Returns (96 - t0, 97 - t0,
    n_tanks). The inputs come from validated days and are not checked again.
    """
    c = _compiled(topology)
    n = STEPS_PER_DAY - t0
    states = np.empty((n, n + 1, topology.n_tanks))
    for j in range(n):
        t = t0 + j
        states[j:, j] = branch_states[j]
        states[: j + 1, j + 1] = step(
            c, states[: j + 1, j], schedule[t], zone_values[:, t], tariff[t]
        )[0]
    return states


def simulate(
    topology: NetworkTopology,
    initial_levels: np.ndarray,
    schedule: np.ndarray,
    demands: DemandSet,
) -> Trajectory:
    """Run a full 96-step day under a fixed control schedule, priced at the
    topology's tariff."""
    schedule = np.asarray(schedule, dtype=float)
    if schedule.shape != (STEPS_PER_DAY, topology.n_stations):
        raise ValidationError(
            f"schedule shape {schedule.shape}, expected "
            f"({STEPS_PER_DAY}, {topology.n_stations})"
        )
    return run_day(
        topology,
        initial_levels,
        demands.as_array(),
        topology.tariff.as_array(),
        lambda t, levels: schedule[t],
    )

