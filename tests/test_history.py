import dataclasses
import hashlib
import io
import warnings
from pathlib import Path

import numpy as np
import pytest

from pumpsched import (
    DEFAULT_IMPERFECTION,
    NumericError,
    RuleBasedController,
    ValidationError,
    demands_from_rng,
    generate_history,
    load_history,
    margins_for,
    run_controlled_day,
    save_history,
    simulate,
)
from pumpsched import history
from pumpsched.errors import SchemaError
from pumpsched.history import DUTY_SPEED, HistoryArchive
from pumpsched.metrics import area_outside_boundary, violation_count
from pumpsched.network import STEPS_PER_DAY
from pumpsched.simulate import step_costs

ARCHIVE_ARRAYS = tuple(f.name for f in dataclasses.fields(HistoryArchive))


def _assert_same_archive(a: HistoryArchive, b: HistoryArchive) -> None:
    for name in ARCHIVE_ARRAYS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype, name
        np.testing.assert_array_equal(x, y, err_msg=name)


def test_perfect_margins_sit_inside_band(world):
    triggers, releases = margins_for(world, 0.0, np.random.default_rng(0))
    for j, station in enumerate(world.stations):
        tank = world.tanks[world.tank_index(station.primary_tank())]
        band = tank.upper_bound - tank.lower_bound
        assert triggers[j] == pytest.approx(tank.lower_bound + 0.3 * band)
        assert releases[j] == pytest.approx(tank.upper_bound - 0.3 * band)


def test_margins_keep_release_above_trigger(world):
    rng = np.random.default_rng(0)
    for _ in range(200):
        triggers, releases = margins_for(world, 1.0, rng)
        for j, station in enumerate(world.stations):
            tank = world.tanks[world.tank_index(station.primary_tank())]
            band = tank.upper_bound - tank.lower_bound
            assert releases[j] >= triggers[j] + 0.05 * band - 1e-12


class _FixedDraws:
    """A generator stand-in whose uniform draws are the given rows in turn."""

    def __init__(self, *values):
        self._values = values

    def uniform(self, low, high, size):
        return np.array(self._values)[:, None].repeat(size[-1], axis=1)


@pytest.mark.parametrize("trigger_draw", [-1.0, 1.0])
@pytest.mark.parametrize("release_draw", [-1.0, 1.0])
def test_margins_leave_a_tenth_of_the_band_at_the_extreme_draws(
    world, trigger_draw, release_draw
):
    """At the largest imperfection and either end of both draws, the release
    still sits a tenth of the band above the trigger, so margins need no
    clamp keeping them apart."""
    triggers, releases = margins_for(
        world, 1.0, _FixedDraws(trigger_draw, release_draw)
    )
    band = world.compiled.primary_upper - world.compiled.primary_lower
    # Exactly a tenth in real arithmetic at the ceiling, so allow rounding.
    assert np.all(releases - triggers >= 0.1 * band - 1e-12)


@pytest.mark.parametrize("imperfection", [0.0, DEFAULT_IMPERFECTION, 1.0])
def test_margins_equal_the_per_station_loop(world, imperfection):
    """The band arithmetic written out one station at a time, as the oracle."""
    rng, oracle_rng = np.random.default_rng(3), np.random.default_rng(3)
    for _ in range(50):
        triggers, releases = margins_for(world, imperfection, rng)
        offsets = np.full((2, world.n_stations), 0.30)
        if imperfection:
            for row in offsets:
                swing = imperfection * 0.55 * oracle_rng.uniform(-1, 1, len(row))
                row[:] = np.clip(0.30 + swing, -0.08, 0.45)
        for j, station in enumerate(world.stations):
            tank = world.tanks[world.tank_index(station.primary_tank())]
            band = tank.upper_bound - tank.lower_bound
            trigger = tank.lower_bound + band * offsets[0, j]
            release = tank.upper_bound - band * offsets[1, j]
            if release < trigger + 0.05 * band:
                release = trigger + 0.05 * band
            assert triggers[j].tobytes() == trigger.tobytes()
            assert releases[j].tobytes() == release.tobytes()
    assert rng.uniform() == oracle_rng.uniform()


def test_margins_imperfection_validated(world):
    with pytest.raises(ValidationError):
        margins_for(world, 1.5, np.random.default_rng(0))
    with pytest.raises(ValidationError):
        margins_for(world, -0.1, np.random.default_rng(0))


def _tank_levels_for_watched(world, watched: np.ndarray) -> np.ndarray:
    """Place per-station watched values at each station's primary tank index."""
    levels = np.full(world.n_tanks, np.nan)
    for j, station in enumerate(world.stations):
        levels[world.tank_index(station.primary_tank())] = watched[j]
    assert not np.any(np.isnan(levels))  # every tank is some station's primary
    return levels


def test_controller_hysteresis(world):
    margins = margins_for(world, 0.0, np.random.default_rng(0))
    controller = RuleBasedController(world, margins)
    triggers, releases = margins
    low = _tank_levels_for_watched(world, triggers - 0.1)
    controller.reset(low)
    action = controller.act(low)
    np.testing.assert_array_equal(action, np.full(6, DUTY_SPEED))

    # Between trigger and release the previous command holds.
    mid = _tank_levels_for_watched(world, (triggers + releases) / 2.0)
    action = controller.act(mid)
    np.testing.assert_array_equal(action, np.full(6, DUTY_SPEED))

    # Above release everything coasts, and stays off back in the middle.
    action = controller.act(_tank_levels_for_watched(world, releases + 0.1))
    np.testing.assert_array_equal(action, np.zeros(6))
    action = controller.act(mid)
    np.testing.assert_array_equal(action, np.zeros(6))


def _nested_where_act(on, watched, margins):
    """The hysteresis step as nested ``np.where``, as ``act`` once computed
    it: the new on-state and the speeds."""
    triggers, releases = margins
    on = np.where(watched < triggers, True, np.where(watched > releases, False, on))
    return on, np.where(on, DUTY_SPEED, 0.0)


@pytest.mark.parametrize("lanes", [None, 1, 3])
def test_controller_act_equals_the_nested_where(world, lanes):
    # Levels land below, exactly at, between, exactly at and above trigger and
    # release, in random order, so every branch runs from either state.
    shape = () if lanes is None else (lanes,)
    rng = np.random.default_rng(21)
    drawn = [margins_for(world, DEFAULT_IMPERFECTION, rng) for _ in range(lanes or 1)]
    margins = np.stack(drawn, axis=1).reshape(2, *shape, -1)
    tr, rel = margins
    primary = world.compiled.primary
    candidates = np.stack([tr - 0.1, tr, (tr + rel) / 2, rel, rel + 0.1])

    def levels_for(watched):
        levels = np.full((*shape, world.n_tanks), np.nan)
        levels[..., primary] = watched
        assert not np.isnan(levels).any()  # every tank is some station's primary
        return levels

    watched = candidates[2]
    controller = RuleBasedController(world, margins)
    controller.reset(levels_for(watched))
    on = watched < (tr + rel) / 2.0
    for _ in range(200):
        pick = rng.integers(0, len(candidates), watched.shape)
        watched = np.take_along_axis(candidates, pick[None], axis=0)[0]
        on, expected = _nested_where_act(on, watched, margins)
        action = controller.act(levels_for(watched))
        assert action.shape == expected.shape
        assert action.tobytes() == expected.tobytes()
    assert on.any() and not on.all()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf flows
def test_a_nan_level_ends_a_controlled_day_in_a_numeric_error(overflowing_world):
    # Every pump starts on, tank_1's level turns to nan at the first step, the
    # controller then watches a NaN level, and the day fails as before.
    world = overflowing_world
    margins = margins_for(world, 0.0, np.random.default_rng(0))
    demands = demands_from_rng(world, np.random.default_rng(0))
    start = np.full(world.n_tanks, 0.01) * world.compiled.caps  # every pump on
    with pytest.raises(NumericError, match="non-finite level"):
        run_controlled_day(world, start, RuleBasedController(world, margins), demands)


def test_controlled_day_lanes_equal_days_alone(world):
    """A B=4 lane day equals four single-lane days byte for byte."""
    days = []
    for k in range(4):
        rng = np.random.default_rng(40 + k)
        demands = demands_from_rng(world, np.random.default_rng(40 + k))
        margins = margins_for(world, DEFAULT_IMPERFECTION, rng)
        levels = rng.uniform(0.5, 7.5, world.n_tanks)
        days.append((levels, demands, margins))
    lanes = run_controlled_day(
        world,
        np.array([levels for levels, _, _ in days]),
        RuleBasedController(world, np.stack([m for _, _, m in days], axis=1)),
        np.array([demands for _, demands, _ in days]),
    )
    assert lanes.states.shape == (STEPS_PER_DAY + 1, 4, world.n_tanks)
    for k, (levels, demands, margins) in enumerate(days):
        alone = run_controlled_day(
            world, levels, RuleBasedController(world, margins), demands
        )
        lane = lanes.lane(k)
        for name in ("states", "actions"):
            assert getattr(lane, name).tobytes() == getattr(alone, name).tobytes()
        costs = step_costs(world.compiled, lane.actions)
        assert costs.tobytes() == step_costs(world.compiled, alone.actions).tobytes()


def test_perfect_margins_keep_day_in_band(world):
    margins = margins_for(world, 0.0, np.random.default_rng(0))
    controller = RuleBasedController(world, margins)
    demands = demands_from_rng(world, np.random.default_rng(4))
    traj = run_controlled_day(world, world.compiled.initial_levels, controller, demands)
    bounds = world.compiled.lower, world.compiled.upper
    assert violation_count(traj, bounds) == 0
    assert area_outside_boundary(traj, bounds) == 0.0
    assert np.all((traj.states > 0.0) & (traj.states < world.compiled.caps))


def test_generate_history_shape_and_carry_over(world):
    archive = generate_history(world, days=3, seed=6)
    assert archive.n_days == 3
    assert archive.days.tolist() == [0, 1, 2]
    assert archive.levels.shape == (3, STEPS_PER_DAY, world.n_tanks)
    assert archive.actions.shape == (3, STEPS_PER_DAY, world.n_stations)
    assert archive.demands.shape == (3, STEPS_PER_DAY, world.n_zones)
    # Levels carry across midnight: day n+1 starts one step after day n's
    # recorded end, so replaying day n from its first level must land on
    # day n+1's first level.
    for pos in range(2):
        traj = simulate(
            world,
            archive.levels[pos, 0],
            archive.actions[pos],
            archive.demands[pos].T,
        )
        np.testing.assert_allclose(
            traj.states[-1], archive.levels[pos + 1, 0], atol=1e-9
        )


def test_generate_history_deterministic(world):
    a = generate_history(world, days=2, seed=9)
    b = generate_history(world, days=2, seed=9)
    _assert_same_archive(a, b)


def test_perfect_history_has_no_violations(world):
    archive = generate_history(world, days=5, seed=2, imperfection=0.0)
    lb, ub = world.compiled.lower, world.compiled.upper
    assert np.all(archive.levels >= lb - 1e-12)
    assert np.all(archive.levels <= ub + 1e-12)


def test_default_imperfection_produces_violating_days(world):
    archive = generate_history(world, days=20, seed=42)
    lb, ub = world.compiled.lower, world.compiled.upper
    outside = (archive.levels < lb) | (archive.levels > ub)
    violating = int(outside.any(axis=(1, 2)).sum())
    assert 0 < violating < archive.n_days
    assert DEFAULT_IMPERFECTION == pytest.approx(0.57)


def test_replaying_recorded_actions_reproduces_levels(world):
    archive = generate_history(world, days=4, seed=13)
    for pos in range(archive.n_days):
        traj = simulate(
            world,
            archive.levels[pos, 0],
            archive.actions[pos],
            archive.demands[pos].T,
        )
        np.testing.assert_allclose(traj.states[:-1], archive.levels[pos], atol=1e-9)


def test_history_csv_round_trip(tmp_path, world):
    archive = generate_history(world, days=2, seed=5)
    path = tmp_path / "history.csv"
    save_history(archive, path)
    again = load_history(path)
    _assert_same_archive(again, archive)
    save_history(again, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()

    header = path.read_text().splitlines()[0].split(",")
    assert header[:2] == ["day", "t"]
    assert "level_6" in header
    assert "action_6" in header
    assert header[-1] == "demand_18"
    assert not [name for name in header if name.startswith(("power", "tariff"))]


def test_partial_day_rejected():
    with pytest.raises(ValidationError, match="whole"):
        HistoryArchive(
            days=np.array([0]),
            levels=np.full((1, 40, 1), 4.0),
            actions=np.full((1, 40, 1), 0.5),
            demands=np.full((1, 40, 1), 5.0),
        )


def test_misordered_archive_rejected(world):
    archive = generate_history(world, days=2, seed=5)
    with pytest.raises(ValidationError, match="ordering"):
        HistoryArchive(
            **{name: getattr(archive, name)[::-1] for name in ARCHIVE_ARRAYS}
        )


def test_load_history_reads_crlf_and_quoted_cells_identically(tmp_path, world):
    archive = generate_history(world, days=1, seed=5)
    path = tmp_path / "history.csv"
    save_history(archive, path)
    lines = path.read_text().splitlines()
    quoted = [lines[0]]
    for i, line in enumerate(lines[1:]):
        cells = [c if (i + j) % 3 else f'"{c}"' for j, c in enumerate(line.split(","))]
        quoted.append(",".join(cells))
    for text in ("\r\n".join(lines) + "\r\n", "\n".join(quoted) + "\n"):
        variant = tmp_path / "variant.csv"
        variant.write_bytes(text.encode())
        loaded = load_history(variant)
        for name in ARCHIVE_ARRAYS:
            assert getattr(loaded, name).tobytes() == getattr(archive, name).tobytes()


def test_load_history_rejects_blank_lines_and_reads_an_empty_body(tmp_path, world):
    archive = generate_history(world, days=1, seed=5)
    path = tmp_path / "history.csv"
    save_history(archive, path)
    lines = path.read_text().splitlines()
    for blank, lineno in (("", 6), ("   ", 6), ("", len(lines) + 1)):
        bad = tmp_path / "blank.csv"
        body = lines[: lineno - 1] + [blank] + lines[lineno - 1 :]
        bad.write_text("\n".join(body) + "\n")
        with pytest.raises(SchemaError, match=f"row {lineno}: wrong column count"):
            load_history(bad)

    header_only = tmp_path / "header_only.csv"
    header_only.write_text(lines[0] + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert load_history(header_only).n_days == 0


def test_load_history_rejects_bad_rows(tmp_path, world):
    archive = generate_history(world, days=1, seed=5)
    path = tmp_path / "history.csv"
    save_history(archive, path)
    lines = path.read_text().splitlines()

    bad = tmp_path / "bad_action.csv"
    row = lines[1].split(",")
    row[2 + 6] = "1.5"  # first action column
    bad.write_text("\n".join([lines[0], ",".join(row)] + lines[2:]) + "\n")
    with pytest.raises(ValidationError, match=r"action outside \[0, 1\]"):
        load_history(bad)

    bad = tmp_path / "bad_header.csv"
    bad.write_text("\n".join(["nope," + lines[0]] + lines[1:]) + "\n")
    with pytest.raises(SchemaError):
        load_history(bad)

    bad = tmp_path / "short_row.csv"
    bad.write_text("\n".join([lines[0], lines[1].rsplit(",", 1)[0]] + lines[2:]) + "\n")
    with pytest.raises(SchemaError, match="row 2: wrong column count"):
        load_history(bad)

    bad = tmp_path / "text_cell.csv"
    row = lines[4].split(",")
    row[3] = "high"
    bad.write_text("\n".join(lines[:4] + [",".join(row)] + lines[5:]) + "\n")
    with pytest.raises(SchemaError, match="row 5: could not convert"):
        load_history(bad)

    for column, value, message in (
        (2, "nan", "non-finite value"),
        (2 + 6 + 6, "-1.0", "negative demand"),
    ):
        bad = tmp_path / "bad_value.csv"
        row = lines[7].split(",")
        row[column] = value
        bad.write_text("\n".join(lines[:7] + [",".join(row)] + lines[8:]) + "\n")
        with pytest.raises(ValidationError, match=f"row 8: {message}"):
            load_history(bad)

    bad = tmp_path / "swapped_rows.csv"
    bad.write_text("\n".join([lines[0], lines[2], lines[1]] + lines[3:]) + "\n")
    with pytest.raises(ValidationError, match="out of order"):
        load_history(bad)

    bad = tmp_path / "missing_row.csv"
    bad.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ValidationError, match="whole number"):
        load_history(bad)


def test_a_header_that_differs_names_its_unexpected_and_missing_columns(
    tmp_path, world
):
    """An archive in the layout that also recorded each station's power and
    the tariff fails on its header, which names the columns it should not
    have; a header without its step column names that one."""
    archive = generate_history(world, days=1, seed=5)
    path = tmp_path / "history.csv"
    save_history(archive, path)
    header, *rows = path.read_text().splitlines()
    names = header.split(",")
    powers = [f"power_{j + 1}" for j in range(world.n_stations)]
    old = names[: 2 + 6 + 6] + powers + names[2 + 6 + 6 :] + ["tariff"]
    bad = tmp_path / "old_format.csv"
    bad.write_text("\n".join([",".join(old)] + rows) + "\n")
    unexpected = ", ".join(powers + ["tariff"])
    with pytest.raises(SchemaError) as raised:
        load_history(bad)
    assert str(raised.value) == f"{bad}: unexpected columns {unexpected}"

    bad.write_text("\n".join([",".join(n for n in names if n != "t")] + rows))
    with pytest.raises(SchemaError) as raised:
        load_history(bad)
    assert str(raised.value) == f"{bad}: missing columns t"


def _companion_key(path) -> bytes:
    return hashlib.sha256(path.read_bytes()).hexdigest().encode() + b"\n"


@pytest.fixture
def scan_calls(monkeypatch):
    """Counts the text parses ``load_history`` makes."""
    calls = []
    real = history._scan_body

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(history, "_scan_body", counted)
    return calls


@pytest.mark.parametrize("days", [1, 2, 40])
def test_companion_load_equals_the_csv_parse(tmp_path, world, days, scan_calls):
    archive = generate_history(world, days=days, seed=days)
    path = tmp_path / "history.csv"
    save_history(archive, path)
    companion = tmp_path / "history.csv.arrays"
    assert companion.read_bytes().startswith(_companion_key(path))

    from_companion = load_history(path)
    assert scan_calls == []
    companion.unlink()
    parsed = load_history(path)
    assert scan_calls == [1]
    for name in ARCHIVE_ARRAYS:
        a, b = getattr(from_companion, name), getattr(parsed, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes() == getattr(archive, name).tobytes(), name


def test_saving_twice_writes_identical_files(tmp_path, world):
    archive = generate_history(world, days=3, seed=5)
    for name in ("a.csv", "b.csv"):
        save_history(archive, tmp_path / name)
    for suffix in ("", ".arrays"):
        first = (tmp_path / f"a.csv{suffix}").read_bytes()
        assert first == (tmp_path / f"b.csv{suffix}").read_bytes(), suffix


def test_a_csv_rewritten_in_place_ignores_its_stale_companion(tmp_path, world):
    archive = generate_history(world, days=1, seed=5)
    path = tmp_path / "history.csv"
    save_history(archive, path)
    lines = path.read_text().splitlines()
    action = lines[0].split(",").index("action_1")
    for lineno, column, value, error, message in (
        (2, action, "1.5", ValidationError, r"action outside \[0, 1\]"),
        (5, 3, "high", SchemaError, "could not convert"),
    ):
        row = lines[lineno - 1].split(",")
        row[column] = value
        edited = lines[: lineno - 1] + [",".join(row)] + lines[lineno:]
        path.write_text("\n".join(edited) + "\n")
        with pytest.raises(error, match=f"row {lineno}: {message}"):
            load_history(path)


def _broken_companions(path):
    """Companions that must not be used, by name: each falls back to the parse."""
    key = _companion_key(path)
    data = Path(f"{path}.arrays").read_bytes()
    table = np.load(io.BytesIO(data[len(key) :]), allow_pickle=False)

    def saved(array, **kwargs):
        buf = io.BytesIO()
        np.save(buf, array, **kwargs)
        return key + buf.getvalue()

    yield "missing", None
    for cut in (10, len(key), len(key) + 40, len(key) + 200, len(data) - 8):
        yield f"truncated_at_{cut}", data[:cut]
    yield "garbage", bytes(range(256)) * 64
    yield "garbage_after_the_key", key + bytes(range(256)) * 64
    yield "stale_key", b"0" * 64 + b"\n" + data[len(key) :]
    yield "wrong_width", saved(np.ascontiguousarray(table[:, :-1]))
    yield "float32", saved(table.astype(np.float32))
    yield "one_column", saved(table.ravel())
    yield "pickled_object_array", saved(table.astype(object), allow_pickle=True)
    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        header, {"descr": "<f8", "fortran_order": False, "shape": (10**13, 32)}
    )
    yield "huge_shape", key + header.getvalue() + data[len(key) + 128 :]


def test_a_broken_companion_falls_back_to_the_parse(tmp_path, world, scan_calls):
    archive = generate_history(world, days=2, seed=5)
    path = tmp_path / "history.csv"
    save_history(archive, path)
    companion = tmp_path / "history.csv.arrays"
    for name, content in list(_broken_companions(path)):
        companion.unlink(missing_ok=True)
        if content is not None:
            companion.write_bytes(content)
        scan_calls.clear()
        loaded = load_history(path)
        assert scan_calls == [1], name
        for array in ARCHIVE_ARRAYS:
            assert (
                getattr(loaded, array).tobytes() == getattr(archive, array).tobytes()
            ), (name, array)


def test_save_history_refuses_empty(tmp_path):
    empty = HistoryArchive(
        days=np.zeros(0, dtype=np.int64),
        levels=np.zeros((0, STEPS_PER_DAY, 1)),
        actions=np.zeros((0, STEPS_PER_DAY, 1)),
        demands=np.zeros((0, STEPS_PER_DAY, 1)),
    )
    with pytest.raises(ValidationError):
        save_history(empty, tmp_path / "x.csv")


# Bad values, each as (row index, column, value, error, message): the stamp
# columns come first, then 6 levels, 6 actions and 18 demands.
BAD_VALUES = [
    (0, 2, np.nan, ValidationError, "non-finite value"),
    (-1, 2 + 6 + 6 + 17, np.inf, ValidationError, "non-finite value"),
    (5, 2 + 6, 1.5, ValidationError, r"action outside \[0, 1\]"),
    (-1, 2 + 6 + 5, -0.25, ValidationError, r"action outside \[0, 1\]"),
    (0, 2 + 6 + 6, -1.0, ValidationError, "negative demand"),
    (-1, 2 + 6 + 6 + 17, -1.0, ValidationError, "negative demand"),
    (7, 1, 3.5, SchemaError, "day and t must be integers"),
    # past 2**53 a float64 stamp is no longer exact
    (0, 0, 1e300, SchemaError, "day and t must be integers"),
    (-1, 0, 2.0**53 + 2, SchemaError, "day and t must be integers"),
]


def _table(path) -> np.ndarray:
    with open(f"{path}.arrays", "rb") as fh:
        fh.readline()
        return np.load(fh)


def _write_csv(path, table: np.ndarray) -> None:
    header = path.read_text().splitlines()[0]
    rows = [",".join(map(repr, row)) for row in table.tolist()]
    path.write_text("\n".join([header, *rows]) + "\n")


@pytest.mark.parametrize("row, column, value, error, message", BAD_VALUES)
def test_a_stale_companion_of_bad_values_is_ignored(
    tmp_path, world, scan_calls, row, column, value, error, message
):
    """A companion whose numbers fail a check, keyed to other bytes, does not
    fail the load of the clean CSV beside it: the CSV is parsed once."""
    archive = generate_history(world, days=2, seed=5)
    path = tmp_path / "history.csv"
    save_history(archive, path)
    table = _table(path).copy()
    table[row, column] = value
    stale = b"0" * 64 + b"\n"
    buf = io.BytesIO()
    np.save(buf, table)
    Path(f"{path}.arrays").write_bytes(stale + buf.getvalue())
    loaded = load_history(path)
    assert scan_calls == [1]
    _assert_same_archive(loaded, archive)


@pytest.mark.parametrize("row, column, value, error, message", BAD_VALUES)
def test_a_keyed_companion_fails_as_the_parse_does(
    tmp_path, world, scan_calls, row, column, value, error, message
):
    """A companion keyed to a CSV holding a bad value fails with the parse's
    exact message and row, both in the first and the last row and in each
    column group, so the fast checks agree with the masks."""
    archive = generate_history(world, days=2, seed=5)
    path = tmp_path / "history.csv"
    save_history(archive, path)
    table = _table(path).copy()
    table[row, column] = value
    _write_csv(path, table)
    history._write_companion(path, table)
    with pytest.raises(error, match=message) as from_companion:
        load_history(path)
    assert scan_calls == []
    Path(f"{path}.arrays").unlink()
    with pytest.raises(error) as parsed:
        load_history(path)
    assert scan_calls == [1]
    assert str(from_companion.value) == str(parsed.value)
    assert f"row {row % len(table) + 2}:" in str(parsed.value)


def test_an_empty_body_with_a_keyed_companion_loads(tmp_path, world, scan_calls):
    archive = generate_history(world, days=1, seed=5)
    path = tmp_path / "history.csv"
    save_history(archive, path)
    empty = _table(path)[:0]
    _write_csv(path, empty)
    history._write_companion(path, empty)
    assert load_history(path).n_days == 0
    assert scan_calls == []


def test_an_unreadable_key_falls_back_to_the_parse_silently(
    tmp_path, world, scan_calls, monkeypatch, capfd
):
    """The hash thread's ``OSError`` means no key: the CSV is parsed, and the
    thread prints no traceback."""
    archive = generate_history(world, days=1, seed=5)
    path = tmp_path / "history.csv"
    save_history(archive, path)

    def unreadable(path):
        raise OSError("unreadable")

    monkeypatch.setattr(history, "_key", unreadable)
    _assert_same_archive(load_history(path), archive)
    assert scan_calls == [1]
    assert capfd.readouterr().err == ""
