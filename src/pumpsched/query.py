"""Nearest-history retrieval: match today's conditions to an archived day.

Each archived day is summarized at its start by normalized tank levels, the
normalized stored network volume, and the normalized total demand ahead; the
recommendation is the recorded schedule of the closest archive day under plain
Euclidean distance. Ties go to the most recent day.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .history import HistoryArchive
from .network import DT_HOURS, STEPS_PER_DAY, NetworkTopology


@dataclass(frozen=True)
class QueryResult:
    day: int
    distance: float
    schedule: np.ndarray  # (96, n_stations) recorded actions of the matched day


@dataclass
class QueryIndex:
    """Archived day features with their normalization bounds and schedules."""

    mins: np.ndarray
    maxs: np.ndarray
    normalized: np.ndarray  # (n_days, n_features)
    days: tuple[int, ...]
    schedules: np.ndarray  # (n_days, 96, n_stations)
    surface_areas: np.ndarray
    per_zone_demand: bool

    @property
    def n_days(self) -> int:
        return len(self.days)


def _raw_features(
    levels: np.ndarray,
    demand_total: np.ndarray,
    surface_areas: np.ndarray,
) -> np.ndarray:
    """Features of (..., n_tanks) start levels and (..., k) demand volumes;
    leading axes (archive days) carry through. The stacked product runs the
    same dot product per row as ``np.dot`` of that row alone."""
    volume = levels[..., None, :] @ surface_areas[:, None]
    return np.concatenate([levels, volume[..., 0], demand_total], axis=-1)


def _demand_feature(day_demands: np.ndarray, per_zone: bool) -> np.ndarray:
    """Forecast volume ahead from (..., 96, n_zones) demands.

    One total by default, per-zone volumes when configured; leading axes
    (archive days) carry through.
    """
    per_zone_volume = day_demands.sum(axis=-2) * DT_HOURS
    if per_zone:
        return per_zone_volume
    return per_zone_volume.sum(axis=-1, keepdims=True)


def build_index(
    topology: NetworkTopology,
    archive: HistoryArchive,
    per_zone_demand: bool = False,
) -> QueryIndex:
    """Summarize every archived day at t=0 and min-max normalize the columns.

    Demand forecasts come from the archive's own recorded realizations.
    """
    if archive.n_days < 2:
        raise ValidationError("query index needs at least two archived days")
    counts = "{} tanks, {} stations and {} zones".format
    recorded = archive.levels, archive.actions, archive.demands
    got = counts(*(a.shape[2] for a in recorded))
    want = counts(topology.n_tanks, topology.n_stations, topology.n_zones)
    if got != want:
        raise ValidationError(f"archive has {got}, but the network has {want}")
    n_tanks = topology.n_tanks
    areas = topology.compiled.areas
    demand = _demand_feature(archive.demands, per_zone_demand)
    raw = _raw_features(archive.levels[:, 0], demand, areas)

    names = (
        tuple(f"level_{i + 1}" for i in range(n_tanks))
        + ("network_volume",)
        + (
            tuple(f"demand_zone_{k + 1}" for k in range(raw.shape[1] - n_tanks - 1))
            if per_zone_demand
            else ("demand_total",)
        )
    )
    mins = raw.min(axis=0)
    maxs = raw.max(axis=0)
    flat = maxs <= mins
    if np.any(flat):
        bad = names[int(np.argmax(flat))]
        raise ValidationError(
            f"feature {bad!r} is constant across the archive; "
            "distances would be undefined"
        )
    normalized = (raw - mins) / (maxs - mins)
    return QueryIndex(
        mins=mins,
        maxs=maxs,
        normalized=normalized,
        days=tuple(archive.days.tolist()),
        schedules=archive.actions,
        surface_areas=areas,
        per_zone_demand=per_zone_demand,
    )


def recommend(
    index: QueryIndex,
    levels: np.ndarray,
    demand_forecast: np.ndarray,
) -> QueryResult:
    """Nearest archived day for the given start levels and (n_zones, 96) zone
    demand forecast.

    Query features are normalized with the index bounds and clipped into
    [0, 1] before the linear scan; exact distance ties resolve to the most
    recent (latest) day.
    """
    levels = np.asarray(levels, dtype=float)
    if levels.shape != (len(index.surface_areas),):
        raise ValidationError("query levels shape does not match the index")
    if not np.all(np.isfinite(levels)):
        raise ValidationError("query levels must be finite")
    forecast = np.asarray(demand_forecast, dtype=float)
    if forecast.ndim != 2 or forecast.shape[1] != STEPS_PER_DAY:
        raise ValidationError(
            f"demand forecast shape {forecast.shape}, expected (n_zones, "
            f"{STEPS_PER_DAY})"
        )
    if not np.all(np.isfinite(forecast)):
        raise ValidationError("demand forecast must be finite")
    # (96, n_zones) rows laid out as the index's days, so that an archived
    # day's demands sum to its index feature to the last bit.
    day_demands = np.ascontiguousarray(forecast.T)
    demand = _demand_feature(day_demands, index.per_zone_demand)
    raw = _raw_features(levels, demand, index.surface_areas)
    if raw.shape != index.mins.shape:
        raise ValidationError("query feature width does not match the index")

    query = np.clip((raw - index.mins) / (index.maxs - index.mins), 0.0, 1.0)
    dists = np.sqrt(((index.normalized - query) ** 2).sum(axis=1))

    best = len(dists) - 1 - int(np.argmin(dists[::-1]))  # the last minimum
    return QueryResult(
        day=index.days[best],
        distance=float(dists[best]),
        schedule=index.schedules[best].copy(),
    )
