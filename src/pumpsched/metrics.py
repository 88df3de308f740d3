"""Violation, cost, and comparison metrics, and the files of comparisons and
of the training reward curve.

All boundary metrics evaluate states t=1..96: the initial state is given, not
controlled, so it never counts against a schedule.

Every percentage the package reports follows one rule, ``_delta``:
(value - reference) / reference * 100, negative meaning less than the
reference, and None when the reference is 0.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .errors import SchemaError
from .network import DT_HOURS, NetworkTopology
from .simulate import Trajectory, step_costs

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


def episode_cost(traj: Trajectory, topology: NetworkTopology) -> float:
    """Total tariff-weighted energy cost of the day on ``topology``."""
    return float(step_costs(topology.compiled, traj.actions).sum())


@dataclass(frozen=True)
class ComparisonRow:
    label: str
    mean_area: float
    mean_count: float
    mean_cost: float
    area_delta_pct: float | None
    count_delta_pct: float | None
    cost_delta_pct: float | None


def compare(scores: dict[str, np.ndarray]) -> list[ComparisonRow]:
    """Comparison table of labels scored on the same episodes: each label's
    (3, n) rows of per-episode area, violation count and cost. The first
    label is the reference and is listed first.

    Each row's percentages are ``_delta`` of its mean area, count and cost
    against the reference's: (value - reference) / reference * 100, negative
    meaning less than the reference, None against a reference mean of 0.
    """
    means = {label: [float(row.mean()) for row in s] for label, s in scores.items()}
    reference = next(iter(means.values()))
    return [
        ComparisonRow(label, *values, *map(_delta, reference, values))
        for label, values in means.items()
    ]


def _delta(ref: float, value: float) -> float | None:
    """Percent change of ``value`` from ``ref``; None when ``ref`` is 0."""
    if ref == 0.0:
        return None
    return (value - ref) / ref * 100.0


def _save_csv(path: str | Path, header: list[str], rows) -> None:
    """A CSV whose cells round-trip exactly: a string as it is, the repr of
    any other value, empty for None."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                v if isinstance(v, str) else "" if v is None else repr(v) for v in row
            )


def save_reward_curve(curve: list[tuple[int, float]], path: str | Path) -> None:
    _save_csv(path, ["steps", "mean_reward"], curve)


def load_reward_curve(path: str | Path) -> list[tuple[int, float]]:
    """The curve ``save_reward_curve`` wrote; bad input fails in one line."""
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            rows = list(reader)
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not a text file ({exc})") from None
    except csv.Error as exc:
        raise SchemaError(f"{path} line {reader.line_num}: {exc}") from None
    if rows[:1] != [["steps", "mean_reward"]]:
        raise SchemaError(f"{path}: unexpected reward curve header")
    curve = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != 2:
            raise SchemaError(f"{path} row {lineno}: expected 2 columns")
        try:
            curve.append((int(row[0]), float(row[1])))
        except ValueError as exc:
            raise SchemaError(f"{path} row {lineno}: {exc}") from None
    return curve


def save_comparison_csv(rows: list[ComparisonRow], path: str | Path) -> None:
    """One row per ``ComparisonRow``, its fields as the columns."""
    header = [f.name for f in fields(ComparisonRow)]
    _save_csv(path, header, (asdict(row).values() for row in rows))


def save_comparison_json(rows: list[ComparisonRow], path: str | Path) -> None:
    Path(path).write_text(json.dumps([asdict(row) for row in rows], indent=2) + "\n")
