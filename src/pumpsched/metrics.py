"""Violation, cost, and comparison metrics.

All boundary metrics evaluate states t=1..96: the initial state is given, not
controlled, so it never counts against a schedule.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .network import DT_HOURS
from .simulate import Trajectory

Bounds = tuple[np.ndarray, np.ndarray]


def _exceedance(levels: np.ndarray, bounds: Bounds) -> np.ndarray:
    """Distance to the nearest permissible boundary, zero inside the band."""
    lb, ub = bounds
    return np.maximum(0.0, np.maximum(lb - levels, levels - ub))


def area_outside_boundary(traj: Trajectory, bounds: Bounds) -> float:
    """Integrated out-of-band level distance over the day, in metre-hours."""
    return float(_exceedance(traj.states[1:], bounds).sum() * DT_HOURS)


def violation_count(traj: Trajectory, bounds: Bounds) -> int:
    """Number of (tank, step) pairs out of bounds."""
    return int(np.count_nonzero(_exceedance(traj.states[1:], bounds) > 0.0))


def episode_cost(traj: Trajectory) -> float:
    """Total tariff-weighted energy cost of the day."""
    return float(traj.costs.sum())


@dataclass(frozen=True)
class PoolResult:
    """Per-episode metrics for one policy evaluated over an episode pool."""

    label: str
    episode_seeds: tuple[int, ...]
    areas: np.ndarray
    counts: np.ndarray
    costs: np.ndarray

    def __post_init__(self):
        n = len(self.episode_seeds)
        for name in ("areas", "counts", "costs"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (n,):
                raise ValidationError(
                    f"pool result {self.label}: {name} must have one entry per episode"
                )
            object.__setattr__(self, name, arr)

    @property
    def mean_area(self) -> float:
        return float(self.areas.mean())

    @property
    def mean_count(self) -> float:
        return float(self.counts.mean())

    @property
    def mean_cost(self) -> float:
        return float(self.costs.mean())


@dataclass(frozen=True)
class ComparisonRow:
    label: str
    mean_area: float
    mean_count: float
    mean_cost: float
    area_improvement_pct: float | None
    count_improvement_pct: float | None
    cost_delta_pct: float | None


def compare(reference: PoolResult, others: list[PoolResult]) -> list[ComparisonRow]:
    """Comparison table against a reference row (reference listed first).

    Improvements are (reference - value) / reference; the cost column is a
    signed delta where negative means cheaper than the reference.
    """
    rows = [
        ComparisonRow(
            label=reference.label,
            mean_area=reference.mean_area,
            mean_count=reference.mean_count,
            mean_cost=reference.mean_cost,
            area_improvement_pct=0.0,
            count_improvement_pct=0.0,
            cost_delta_pct=0.0,
        )
    ]
    for result in others:
        if result.episode_seeds != reference.episode_seeds:
            raise ValidationError(
                f"pool mismatch: {result.label} was evaluated on different episodes "
                f"than {reference.label}"
            )
        rows.append(
            ComparisonRow(
                label=result.label,
                mean_area=result.mean_area,
                mean_count=result.mean_count,
                mean_cost=result.mean_cost,
                area_improvement_pct=_improvement(reference.mean_area, result.mean_area),
                count_improvement_pct=_improvement(
                    reference.mean_count, result.mean_count
                ),
                cost_delta_pct=_delta(reference.mean_cost, result.mean_cost),
            )
        )
    return rows


def _improvement(ref: float, value: float) -> float | None:
    if ref == 0.0:
        return None
    return (ref - value) / ref * 100.0


def _delta(ref: float, value: float) -> float | None:
    if ref == 0.0:
        return None
    return (value - ref) / ref * 100.0


def _csv_cell(value) -> str:
    """A CSV cell that round-trips exactly: repr of the value, empty for None."""
    return "" if value is None else repr(value)


def save_comparison_csv(rows: list[ComparisonRow], path: str | Path) -> None:
    """One row per ``ComparisonRow``, its fields as the columns."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(f.name for f in fields(ComparisonRow))
        for row in rows:
            label, *values = asdict(row).values()
            writer.writerow([label] + [_csv_cell(v) for v in values])


def save_comparison_json(rows: list[ComparisonRow], path: str | Path) -> None:
    Path(path).write_text(json.dumps([asdict(row) for row in rows], indent=2) + "\n")
