import dataclasses
import math

import numpy as np
import pytest

from pumpsched import (
    ValidationError,
    build_index,
    demands_from_rng,
    generate_history,
    recommend,
)
from pumpsched.history import HistoryArchive
from pumpsched.network import STEPS_PER_DAY


def _constant_archive(days):
    """Six-tank, six-station, 18-zone archive; each day holds its
    (levels, action, demand) constant over all 96 steps."""

    def per_day(values, width):
        return np.stack(
            [np.full((STEPS_PER_DAY, width), v, dtype=float) for v in values]
        )

    levels, actions, demands = zip(*days)
    archive = HistoryArchive(
        days=np.arange(len(days)),
        levels=per_day(levels, 6),
        actions=per_day(actions, 6),
        powers=per_day([0.0] * len(days), 6),
        demands=per_day(demands, 18),
        tariff=np.full((len(days), STEPS_PER_DAY), 0.1),
    )
    archive.validate()
    return archive


@pytest.fixture(scope="module")
def corner_archive(world):
    """Two days pinned to the feature-space corners: all-min and all-max."""
    return _constant_archive([(2.0, 0.0, 10.0), (6.0, 0.85, 20.0)])


@pytest.fixture(scope="module")
def corner_index(world, corner_archive):
    return build_index(world, corner_archive)


def _forecast(n_zones, per_step):
    return np.full((n_zones, STEPS_PER_DAY), per_step)


def test_corner_days_normalize_to_unit_cube_corners(corner_index):
    assert corner_index.n_days == 2
    assert corner_index.feature_names[-1] == "demand_total"
    assert len(corner_index.feature_names) == 8
    np.testing.assert_array_equal(corner_index.normalized[0], np.zeros(8))
    np.testing.assert_array_equal(corner_index.normalized[1], np.ones(8))


def test_query_near_origin_distance(corner_index):
    # All 8 normalized features land at 0.1: distance sqrt(8) * 0.1 to day 0.
    result = recommend(corner_index, np.full(6, 2.4), _forecast(18, 11.0))
    assert result.day == 0
    assert result.distance == pytest.approx(math.sqrt(8.0) * 0.1, abs=1e-12)
    assert result.distance == pytest.approx(0.2828, abs=1e-4)
    assert result.schedule.shape == (STEPS_PER_DAY, 6)
    np.testing.assert_array_equal(result.schedule, np.zeros((STEPS_PER_DAY, 6)))


def test_equidistant_tie_goes_to_later_day(corner_index):
    result = recommend(corner_index, np.full(6, 4.0), _forecast(18, 15.0))
    assert result.day == 1
    np.testing.assert_array_equal(
        result.schedule, np.full((STEPS_PER_DAY, 6), 0.85)
    )


def test_out_of_range_query_is_clipped(corner_index):
    # Far below every archive minimum: clips to the origin, exact day-0 match.
    result = recommend(corner_index, np.full(6, 0.5), _forecast(18, 5.0))
    assert result.day == 0
    assert result.distance == 0.0
    # Far above every maximum: clips to the all-ones corner.
    result = recommend(corner_index, np.full(6, 7.5), _forecast(18, 50.0))
    assert result.day == 1
    assert result.distance == 0.0


def test_self_retrieval_over_generated_history(world):
    # The index summarizes all days at once, a query one day at a time; the
    # features must agree exactly for a day to retrieve itself at distance 0.
    archive = generate_history(world, days=10, seed=21)
    for per_zone in (False, True):
        index = build_index(world, archive, per_zone_demand=per_zone)
        for pos in range(archive.n_days):
            forecast = archive.demands[pos].T
            result = recommend(index, archive.levels[pos, 0], forecast)
            assert result.day == archive.days[pos]
            assert result.distance == 0.0
            np.testing.assert_array_equal(result.schedule, archive.actions[pos])


def test_recommend_deterministic(world):
    archive = generate_history(world, days=6, seed=3)
    index = build_index(world, archive)
    levels = np.full(6, 4.2)
    forecast = _forecast(18, 42.0)
    a = recommend(index, levels, forecast)
    b = recommend(index, levels, forecast)
    assert a.day == b.day
    assert a.distance == b.distance


def test_constant_feature_rejected_by_name(world):
    # Tank 1's start level never moves between days; every other column does.
    archive = _constant_archive(
        [
            ([3.0, 2.0, 2.0, 2.0, 2.0, 2.0], 0.0, 10.0),
            ([3.0, 6.0, 6.0, 6.0, 6.0, 6.0], 0.0, 20.0),
        ]
    )
    with pytest.raises(ValidationError, match="level_1"):
        build_index(world, archive)


def test_index_needs_at_least_two_days(world):
    archive = _constant_archive([(2.0, 0.0, 10.0)])
    with pytest.raises(ValidationError, match="two"):
        build_index(world, archive)


@pytest.mark.parametrize(
    "part, counts", [("zones", "6 tanks, 6 stations and 17 zones"),
                     ("stations", "6 tanks, 5 stations and 18 zones")],
)  # fmt: skip
def test_index_rejects_an_archive_of_another_network(
    world, corner_archive, part, counts
):
    """An archive recorded on the 18-zone, six-station network does not index
    against that network less one zone or one station, with or without
    per-zone demand features, and the error names both counts."""
    topology = dataclasses.replace(world, **{part: getattr(world, part)[:-1]})
    for per_zone in (False, True):
        with pytest.raises(ValidationError) as err:
            build_index(topology, corner_archive, per_zone_demand=per_zone)
        assert str(err.value) == (
            "archive has 6 tanks, 6 stations and 18 zones, but the network has "
            + counts
        )


def test_per_zone_demand_features(world, corner_archive):
    index = build_index(world, corner_archive, per_zone_demand=True)
    assert len(index.feature_names) == 6 + 1 + 18
    assert "demand_zone_18" in index.feature_names
    result = recommend(index, np.full(6, 2.4), _forecast(18, 11.0))
    assert result.day == 0
    assert result.distance == pytest.approx(math.sqrt(25.0) * 0.1, abs=1e-12)


def test_recommend_validates_level_shape(corner_index):
    with pytest.raises(ValidationError):
        recommend(corner_index, np.full(5, 2.4), _forecast(18, 11.0))


def test_recommend_rejects_non_finite_levels(world):
    """NaN start levels make every distance NaN; they fail in one message
    rather than retrieving the last archived day at distance NaN."""
    index = build_index(world, generate_history(world, days=10, seed=1))
    demands = demands_from_rng(world, np.random.default_rng(0))
    with pytest.raises(ValidationError, match="query levels must be finite"):
        recommend(index, np.full(6, np.nan), demands)


@pytest.mark.parametrize(
    "forecast, message",
    [
        (np.full(18 * STEPS_PER_DAY, 11.0), r"shape \(1728,\), expected \(n_zones"),
        (np.full((18, STEPS_PER_DAY - 1), 11.0), r"shape \(18, 95\)"),
        (np.full((1, 18, STEPS_PER_DAY), 11.0), r"shape \(1, 18, 96\)"),
        (np.full((18, STEPS_PER_DAY), np.nan), "must be finite"),
    ],
)
def test_recommend_rejects_a_malformed_forecast(corner_index, forecast, message):
    """A forecast is a finite (n_zones, 96) array: a flat day, a short day, a
    stack of days or a NaN day fails in one message before any distance."""
    with pytest.raises(ValidationError, match="demand forecast " + message):
        recommend(corner_index, np.full(6, 2.4), forecast)
