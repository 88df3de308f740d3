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
class ComparisonRow:
    label: str
    mean_area: float
    mean_count: float
    mean_cost: float
    area_improvement_pct: float | None
    count_improvement_pct: float | None
    cost_delta_pct: float | None


def compare(scores: dict[str, np.ndarray]) -> list[ComparisonRow]:
    """Comparison table of labels scored on the same episodes: each label's
    (3, n) rows of per-episode area, violation count and cost. The first
    label is the reference, listed first with percentages of 0.0.

    Improvements are (reference - value) / reference; the cost column is a
    signed delta where negative means cheaper than the reference. Against a
    reference mean of 0 a percentage is None.
    """
    means = {label: [float(row.mean()) for row in s] for label, s in scores.items()}
    (reference, (area0, count0, cost0)), *others = means.items()
    rows = [ComparisonRow(reference, area0, count0, cost0, 0.0, 0.0, 0.0)]
    for label, (area, count, cost) in others:
        area_pct, count_pct = _improvement(area0, area), _improvement(count0, count)
        delta = _delta(cost0, cost)
        rows.append(ComparisonRow(label, area, count, cost, area_pct, count_pct, delta))
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
