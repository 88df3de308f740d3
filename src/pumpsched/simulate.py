"""Deterministic tank mass-balance simulator with one day-rollout core.

``run_day`` is the only loop that advances one day's tank levels: it rolls a
day from step ``t0`` to the end under an ``act(t, levels)`` callback. A fixed
schedule, the archive's hysteresis days, and, as lanes of one day, eval's burn,
policy, rule-based and random days, a case's plans and PPO's episodes all
share it; ``PumpSchedulingEnv`` advances the same record one step at a time.
``resume_lanes`` advances many resumes of one fixed schedule as lanes of one
array; pump flows depend only on commanded speeds (affinity laws), never on
tank levels, so lanes that run the same action share one kernel call.

Every step goes through the kernel ``step``, which only advances levels: the
day's per-tank demand is worked out for every step up front, and the records
that do not feed back into levels (powers, energies, costs) are filled for
many steps at once, in the per-step order of arithmetic. Inputs are validated
once per day at the boundary. A lane's bytes equal those of its day rolled
alone.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .errors import NumericError, ValidationError
from .network import (
    DT_HOURS,
    STEPS_PER_DAY,
    CompiledTopology,
    NetworkTopology,
)


@dataclass
class Trajectory:
    """Record of one simulated day from step ``t0`` (0 for a whole day),
    priced at its topology's tariff.

    ``states`` has ``97 - t0`` rows (levels before step t0 through after step
    95), the other step arrays ``96 - t0``; lanes add an axis after the rows.
    """

    states: np.ndarray  # (97 - t0, n_tanks)
    actions: np.ndarray  # (96 - t0, n_stations)
    powers: np.ndarray  # (96 - t0, n_stations)
    energies: np.ndarray  # (96 - t0, n_stations)
    costs: np.ndarray  # (96 - t0,)

    def __post_init__(self):
        for f in fields(self):
            arr = np.asarray(getattr(self, f.name))
            arr.setflags(write=False)
            setattr(self, f.name, arr)

    def lane(self, k: int) -> Trajectory:
        """Lane ``k`` of days rolled as lanes, each record a contiguous copy
        (a sum over a strided view may round otherwise than the lane alone)."""
        records = {f.name: getattr(self, f.name)[:, k].copy() for f in fields(self)}
        return Trajectory(**records)


def _check_speeds(speeds: np.ndarray) -> None:
    if not np.all(np.isfinite(speeds)):
        raise ValidationError("pump speed must be finite")
    if np.any(speeds < 0) or np.any(speeds > 1):
        raise ValidationError("pump speed must lie in [0, 1]")


def step(
    c: CompiledTopology,
    levels: np.ndarray,
    flows: np.ndarray,
    tank_demand_t: np.ndarray,
) -> np.ndarray:
    """One step of the level recursion: the mass balance under the pump
    ``flows`` (m^3/h per station) and the step's demand column
    ``tank_demand_t`` (m^3/h per tank, trailing axis of 1).

    ``c`` is ``topology.compiled``; the inputs are not validated here,
    ``run_day`` and ``PumpSchedulingEnv.step`` do that. Returns the next
    levels, clamped to [0, cap]. Leading lane axes broadcast; the stacked
    mat-vecs run the one-lane BLAS product per lane, so every lane is exact.
    """
    cols = flows[..., None]
    inflow = c.fill.T @ cols
    outflow = c.draw.T @ cols
    raw = levels + DT_HOURS * (inflow - outflow - tank_demand_t)[..., 0] / c.areas
    return np.minimum(np.maximum(raw, 0.0), c.caps)  # np.clip's bytes, faster


def _tank_demand(c: CompiledTopology, zone_values: np.ndarray, t0: int) -> np.ndarray:
    """The demand column of every step from ``t0`` on, (96 - t0, *lanes,
    n_tanks, 1): one stacked mat-vec, the one-step product for each step."""
    return c.zone_to_tank @ np.moveaxis(zone_values[..., t0:], -1, 0)[..., None]


class _Rollout:
    """Preallocated record of one day (or of lanes of days) rolled from ``t0``.

    The constructor validates the day's inputs: start levels inside the tanks,
    and finite, non-negative zone demands (n_zones, 96) per lane; ``advance``
    applies the action for step ``t`` to ``levels`` and records both;
    ``record`` fills the other records of the steps advanced since its last
    call, pricing energy at the topology's tariff; ``trajectory`` returns the
    record.
    """

    def __init__(
        self,
        topology: NetworkTopology,
        initial_levels: np.ndarray,
        zone_values: np.ndarray,
        t0: int = 0,
    ):
        c = topology.compiled
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
        if not (np.all(np.isfinite(levels)) and np.all(np.isfinite(zone_values))):
            raise NumericError("non-finite simulator input")
        if np.any(zone_values < 0):
            raise ValidationError("zone demands must be >= 0")

        n = STEPS_PER_DAY - t0
        n_t, n_s = topology.n_tanks, topology.n_stations
        self.c = c
        self.tank_demand = _tank_demand(c, zone_values, t0)
        self.t0 = self.t = t0
        self._recorded = 0  # steps whose powers and costs are filled
        self.levels = levels
        self.states = np.empty((n + 1, *lanes, n_t))
        self.states[0] = levels
        self.actions, self.powers, self.energies = np.empty((3, n, *lanes, n_s))
        self.costs = np.empty((n, *lanes))

    def advance(self, action: np.ndarray) -> None:
        t = self.t
        i = t - self.t0
        if np.shape(action) != self.actions.shape[1:]:
            raise ValidationError(
                f"action shape {np.shape(action)} does not match station count "
                f"{self.actions.shape[-1]}"
            )
        self.actions[i] = action
        flows = self.c.max_flow * self.actions[i]
        self.levels = step(self.c, self.levels, flows, self.tank_demand[i])
        self.states[i + 1] = self.levels
        self.t = t + 1

    def record(self) -> None:
        c, lo, hi = self.c, self._recorded, self.t - self.t0
        self.powers[lo:hi] = c.rated_power * self.actions[lo:hi] ** 3
        self.energies[lo:hi] = self.powers[lo:hi] * DT_HOURS
        tariff = c.tariff[self.t0 + lo : self.t0 + hi]
        tariff = tariff.reshape(-1, *(1,) * (self.costs.ndim - 1))  # per lane
        self.costs[lo:hi] = self.energies[lo:hi].sum(axis=-1) * tariff
        self._recorded = hi

    def trajectory(self) -> Trajectory:
        self.record()
        return Trajectory(
            states=self.states,
            actions=self.actions,
            powers=self.powers,
            energies=self.energies,
            costs=self.costs,
        )


def run_day(
    topology: NetworkTopology,
    initial_levels: np.ndarray,
    zone_values: np.ndarray,
    act: Callable[[int, np.ndarray], np.ndarray],
    t0: int = 0,
) -> Trajectory:
    """Roll the day from step ``t0`` to its end under ``act``.

    ``zone_values`` is the (n_zones, 96) demand array; costs are priced at
    the topology's tariff. ``act(t, levels)`` returns the pump speeds for
    step ``t`` given the levels before it. Speeds outside [0, 1]
    or non-finite raise ``ValidationError`` and non-finite levels raise
    ``NumericError``, both checked once for the day. Initial levels (B, n_tanks)
    with demands (B, n_zones, 96) roll B lanes; ``act`` gets a row per lane.
    """
    day = _Rollout(topology, initial_levels, zone_values, t0)
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
    c = topology.compiled
    n = STEPS_PER_DAY - t0
    tank_demand = _tank_demand(c, zone_values, t0)
    states = np.empty((n, n + 1, topology.n_tanks))
    for j in range(n):
        flows = c.max_flow * schedule[t0 + j]
        states[j:, j] = branch_states[j]
        states[: j + 1, j + 1] = step(c, states[: j + 1, j], flows, tank_demand[j])
    return states


def simulate(
    topology: NetworkTopology,
    initial_levels: np.ndarray,
    schedule: np.ndarray,
    zone_values: np.ndarray,
) -> Trajectory:
    """Run a full 96-step day under a fixed control schedule (96, n_stations)
    on the (n_zones, 96) zone demands, priced at the topology's tariff."""
    schedule = np.asarray(schedule, dtype=float)
    if schedule.shape != (STEPS_PER_DAY, topology.n_stations):
        raise ValidationError(
            f"schedule shape {schedule.shape}, expected "
            f"({STEPS_PER_DAY}, {topology.n_stations})"
        )
    return run_day(topology, initial_levels, zone_values, lambda t, _: schedule[t])

