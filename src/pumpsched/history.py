"""Operating history: a hysteresis controller and the archive it produces.

Each station watches its primary destination tank and runs at a fixed duty
speed below a trigger level, coasting off above a release level. Margins sit
well inside the operational band when perfect; a seeded imperfection knob
shifts them day by day so a realistic share of archive days contains boundary
violations. A day's margins are one array, (2, n_stations): the trigger
levels, then the release levels; lanes add axes between the two.

``generate_history`` records such days into a ``HistoryArchive``: day ids
plus level, action and demand arrays shaped (day, step, ...), saved to and
loaded from CSV with one row per (day, step); a day's power and cost are
functions of its actions (``simulate.step_costs``). The evaluation
days' sampler, ``sample_operational_episode``, lives here too, beside the
controller its ``BURN_DAYS`` of burn-in run: it draws a day from the
operating distribution the archive records.

The CSV is the archive's canonical format. ``save_history`` also writes a
binary companion beside it, ``<csv>.arrays``: one float64 array keyed on
the SHA-256 of the text's bytes (see ``_write_companion``). Like a
hash-based ``.pyc`` file it is a cache keyed on content, not on time:
``load_history`` uses it only while the key matches the text it is
loading, and otherwise scans the text row by row with ``csv.reader``. The
text is hashed on a thread while the companion is read and checked, so the
key costs a load little more than the longer of the two.
"""

from __future__ import annotations

import csv
import hashlib
import re
import threading
from array import array
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import SchemaError, ValidationError
from .network import (
    DEFAULT_IMPERFECTION,
    STEPS_PER_DAY,
    NetworkTopology,
    _seed_stream,
    demands_from_rng,
)
from .simulate import Trajectory, run_day

DUTY_SPEED = 0.85
_PERFECT_MARGIN = 0.30  # fraction of the band kept clear of each boundary
_MARGIN_SWING = 0.55
_MARGIN_FLOOR = -0.08
_MARGIN_CEIL = 0.45


def margins_for(
    topology: NetworkTopology,
    imperfection: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw per-station margins, (2, n_stations): the trigger levels (pump on
    below), then the release levels (pump off above). Imperfection 0 means
    perfectly placed and draws nothing from ``rng``; otherwise the triggers'
    offsets are drawn before the releases'."""
    if not (0.0 <= imperfection <= 1.0):
        raise ValidationError("imperfection must lie in [0, 1]")
    shape = (2, topology.n_stations)
    if imperfection == 0.0:
        offsets = np.full(shape, _PERFECT_MARGIN)
    else:
        offsets = np.clip(
            _PERFECT_MARGIN + imperfection * _MARGIN_SWING * rng.uniform(-1, 1, shape),
            _MARGIN_FLOOR,
            _MARGIN_CEIL,
        )
    c = topology.compiled
    band = c.primary_upper - c.primary_lower
    # Both offsets stay below half the band (_MARGIN_CEIL), so the release
    # sits at least 0.1 band above the trigger.
    return np.array(
        [c.primary_lower + band * offsets[0], c.primary_upper - band * offsets[1]]
    )


class RuleBasedController:
    """Stateful hysteresis control: duty speed below trigger, off above release.
    Margins (2, B, n_stations), triggers then releases as ``margins_for``
    lays them out, control B lanes of levels (B, n_tanks), an array.
    ``act`` turns a pump off above release, then on below trigger, in place;
    at a NaN level it turns it off (the day then fails on its levels)."""

    def __init__(self, topology: NetworkTopology, margins: np.ndarray):
        self.triggers, self.releases = margins
        self._primary = topology.compiled.primary
        self._on = np.zeros(self.triggers.shape, dtype=bool)

    def reset(self, levels: np.ndarray) -> None:
        watched = np.asarray(levels, dtype=float)[..., self._primary]
        self._on = watched < (self.triggers + self.releases) / 2.0

    def act(self, levels: np.ndarray) -> np.ndarray:
        watched = levels.take(self._primary, axis=-1)
        self._on &= watched <= self.releases
        self._on |= watched < self.triggers
        return self._on * DUTY_SPEED


def run_controlled_day(
    topology: NetworkTopology,
    initial_levels: np.ndarray,
    controller,
    zone_values: np.ndarray,
) -> Trajectory:
    """Closed-loop day on the (n_zones, 96) zone demands under any object
    exposing reset(levels)/act(levels); levels (B, n_tanks), demands
    (B, n_zones, 96) and a controller of B lanes roll B lanes of one day."""
    controller.reset(np.asarray(initial_levels, dtype=float))
    return run_day(
        topology, initial_levels, zone_values, lambda t, lv: controller.act(lv)
    )


@dataclass(frozen=True, eq=False)
class HistoryArchive:
    """Recorded operating days as read-only arrays, one leading row per day.

    ``days`` (D,) holds strictly increasing day ids. For every day and each
    of its 96 steps, ``levels`` (D, 96, n_tanks) holds the tank levels before
    the step, ``actions`` (D, 96, n_stations) the commanded speeds during it
    and ``demands`` (D, 96, n_zones) the realized zone demands. The archive
    checks these shapes and the day order when it is made.
    """

    days: np.ndarray
    levels: np.ndarray
    actions: np.ndarray
    demands: np.ndarray

    def __post_init__(self):
        for f in fields(self):
            arr = np.asarray(getattr(self, f.name))
            arr.setflags(write=False)
            object.__setattr__(self, f.name, arr)
        if self.days.ndim != 1:
            raise ValidationError("archive day ids must form a 1-D array")
        n_days = len(self.days)
        for name in ("levels", "actions", "demands"):
            shape = getattr(self, name).shape
            if len(shape) != 3 or shape[0] != n_days:
                raise ValidationError(
                    f"archive {name} has shape {shape} for {n_days} days"
                )
            if shape[1] != STEPS_PER_DAY:
                raise ValidationError(
                    f"archive {name} holds {shape[1]} steps per day, "
                    f"not whole {STEPS_PER_DAY}-step days"
                )
        backwards = np.flatnonzero(np.diff(self.days) <= 0)
        if backwards.size:
            raise ValidationError(
                f"archive ordering broken at day {self.days[backwards[0] + 1]}"
            )

    @property
    def n_days(self) -> int:
        return len(self.days)


def generate_history(
    topology: NetworkTopology,
    days: int,
    seed: int,
    imperfection: float = DEFAULT_IMPERFECTION,
) -> HistoryArchive:
    """Simulate consecutive operating days under the hysteresis controller.

    Margins and demand noise are redrawn each day from a stream derived from
    the seed; levels carry over between days. Replaying a recorded day's
    actions through the simulator reproduces its recorded levels exactly.
    """
    if days <= 0:
        raise ValidationError("history must cover at least one day")
    try:
        levels = np.empty((days, STEPS_PER_DAY, topology.n_tanks))
        actions = np.empty((days, STEPS_PER_DAY, topology.n_stations))
        demands = np.empty((days, STEPS_PER_DAY, topology.n_zones))
    except (ValueError, MemoryError):  # refused before anything is allocated
        raise ValidationError(f"a history of {days} days is too large") from None
    start = topology.compiled.initial_levels
    for day in range(days):
        demand_rng = np.random.default_rng(_seed_stream(seed, "history_demands", day))
        margin_rng = np.random.default_rng(_seed_stream(seed, "history_margins", day))
        day_demands = demands_from_rng(topology, demand_rng)
        margins = margins_for(topology, imperfection, margin_rng)
        controller = RuleBasedController(topology, margins)
        traj = run_controlled_day(topology, start, controller, day_demands)
        levels[day] = traj.states[:-1]
        actions[day] = traj.actions
        demands[day] = day_demands.T
        start = traj.states[-1]
    return HistoryArchive(
        days=np.arange(days), levels=levels, actions=actions, demands=demands
    )


BURN_DAYS = 8  # hysteresis days run before an evaluation day


def sample_operational_episode(
    topology: NetworkTopology,
    rngs: list[np.random.Generator],
    imperfection: float = DEFAULT_IMPERFECTION,
):
    """Draw an evaluation day per generator from the operating distribution
    the archive records. Each lane runs ``BURN_DAYS`` of hysteresis operation
    with fresh demands and margins each day, levels carrying over between
    days, then takes the day that follows: the carried-over levels, a fresh
    demand draw, and the margins the operator would use that day. Comparing a
    policy against the hysteresis controller under those margins on this exact
    day reproduces the agent-versus-recorded-practice setting, including the
    slow drift that makes a realistic share of operating days violate their
    bounds.

    A burn day is one ``run_controlled_day`` of B = ``len(rngs)`` lanes, and
    generator k draws lane k's demands then margins day by day, so each lane
    equals its episode sampled alone. Returns ``(levels, zone_values,
    margins)`` of B lanes: (B, n_tanks), (B, n_zones, 96) and margins
    (2, B, n_stations), each lane's ``margins_for`` stacked on axis 1.
    """
    levels = np.repeat(topology.compiled.initial_levels[None], len(rngs), axis=0)
    for day in range(BURN_DAYS + 1):
        values, margins = [], []
        for rng in rngs:
            values.append(demands_from_rng(topology, rng))
            margins.append(margins_for(topology, imperfection, rng))
        zone_values = np.stack(values)
        margins = np.stack(margins, axis=1)
        if day < BURN_DAYS:
            rule = RuleBasedController(topology, margins)
            levels = run_controlled_day(topology, levels, rule, zone_values).states[-1]
    return levels, zone_values, margins


# ----------------------------------------------------------------------------
# Binary companions


def _key(path: str | Path) -> bytes:
    """The key line of the artifact at ``path``, hashed in chunks."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:  # small reads: a 1 MB one shows in peak RSS
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return f"{digest.hexdigest()}\n".encode()


def _write_companion(path: str | Path, array: np.ndarray) -> None:
    """Write ``<path>.arrays``: the SHA-256 hex digest of the artifact now at
    ``path`` on one line, then ``array`` by ``np.save`` without pickling. Its
    bytes depend on the artifact and the array alone."""
    with open(f"{path}.arrays", "wb") as fh:
        fh.write(_key(path))
        np.save(fh, array, allow_pickle=False)


def _key_into(path: str | Path, out: list[bytes]) -> None:
    """Append the key line of ``path`` to ``out``, or nothing if the artifact
    cannot be read, so that no companion's key matches it."""
    try:
        out.append(_key(path))
    except OSError:
        pass


def _read_companion(fh) -> tuple[bytes, np.ndarray] | None:
    """The key line and float64 array of the open companion ``fh``, never
    unpickled, or None unless it is well-formed. The key and the array's
    shape are the caller's to check."""
    try:
        key = fh.readline(80)
        array = np.load(fh, allow_pickle=False)
    # MemoryError: an npy header declaring more values than the file holds
    except (OSError, ValueError, EOFError, MemoryError):
        return None
    if isinstance(array, np.ndarray) and array.dtype == np.float64:
        return key, array
    return None


# ----------------------------------------------------------------------------
# CSV round-trip

_GROUP_RE = re.compile(r"^(level|action|demand)_(\d+)$")

def _header(n_tanks: int, n_stations: int, n_zones: int) -> list[str]:
    return (
        ["day", "t"]
        + [f"level_{i + 1}" for i in range(n_tanks)]
        + [f"action_{j + 1}" for j in range(n_stations)]
        + [f"demand_{k + 1}" for k in range(n_zones)]
    )


def _csv_chunks(header: list[str], days: np.ndarray, table: np.ndarray):
    """The CSV's bytes: the header line, then one chunk of 96 rows per day.

    Matches ``csv.writer`` output byte for byte: integer stamps, ``repr``
    floats, no quoting and CRLF line ends. Only one day is converted to Python
    floats at a time, so memory stays close to the table's.
    """
    yield (",".join(header) + "\r\n").encode()
    for day, rows in zip(days.tolist(), table[:, :, 2:]):
        yield "".join(
            f"{day},{t}," + ",".join(map(repr, row)) + "\r\n"
            for t, row in enumerate(rows.tolist())
        ).encode()


def save_history(archive: HistoryArchive, path: str | Path) -> None:
    """Write one CSV row per (day, step), then the CSV's binary companion.

    Floats round-trip exactly via repr. The companion (see
    ``_write_companion``) only spares ``load_history`` the text parse: after
    its key line it holds the CSV's numbers, stamps included, as one 2-D
    array without the column names. Both files' bytes depend on the archive
    alone.
    """
    if archive.n_days == 0:
        raise ValidationError("cannot save an empty archive")
    n_days = archive.n_days
    header = _header(
        archive.levels.shape[2], archive.actions.shape[2], archive.demands.shape[2]
    )
    table = np.concatenate(
        [
            np.broadcast_to(archive.days[:, None, None], (n_days, STEPS_PER_DAY, 1)),
            np.broadcast_to(
                np.arange(STEPS_PER_DAY)[None, :, None], (n_days, STEPS_PER_DAY, 1)
            ),
            archive.levels,
            archive.actions,
            archive.demands,
        ],
        axis=2,
        dtype=np.float64,
    )
    with open(path, "wb") as fh:
        fh.writelines(_csv_chunks(header, archive.days, table))
    _write_companion(path, table.reshape(-1, len(header)))


def _group_counts(header: list[str]) -> tuple[int, int, int]:
    counts = {"level": 0, "action": 0, "demand": 0}
    for name in header:
        match = _GROUP_RE.match(name)
        if match:
            counts[match.group(1)] += 1
    if min(counts["level"], counts["action"], counts["demand"]) == 0:
        raise SchemaError("history header: level/action/demand columns are required")
    return counts["level"], counts["action"], counts["demand"]


def _header_mismatch(header: list[str], expected: list[str]) -> str:
    """Why ``header`` is not ``expected``: the columns it has that it should
    not, then those it lacks, each in its own order."""
    unexpected = [name for name in header if name not in expected]
    missing = [name for name in expected if name not in header]
    reasons = [
        f"{what} columns {', '.join(names)}"
        for what, names in (("unexpected", unexpected), ("missing", missing))
        if names
    ]
    return "; ".join(reasons) or "header does not match the documented column order"


def _scan_body(path: str | Path, reader, width: int) -> np.ndarray:
    """The rows ``reader`` holds after the header, read one by one so a bad
    row names its line, into a flat buffer of doubles rather than a Python
    float per value."""
    values = array("d")
    for lineno, row in enumerate(reader, start=2):
        if len(row) != width:
            raise SchemaError(f"{path} row {lineno}: wrong column count")
        try:
            values.extend(map(float, row))
        except ValueError as exc:
            raise SchemaError(f"{path} row {lineno}: {exc}") from None
    return np.frombuffer(values).reshape(-1, width)


def _first_row(bad: np.ndarray) -> int:
    """The index of the first row of ``bad`` holding a True. A caller first
    checks the whole array with one ``bad.any()``, so a clean archive never
    searches its rows."""
    return int(np.flatnonzero(bad.any(axis=1))[0])


def _reject_rows(path: str | Path, bad: np.ndarray, what: str) -> None:
    """Fail naming the first row that ``bad`` marks, if it marks any."""
    if bad.any():
        raise ValidationError(f"{path} row {_first_row(bad) + 2}: {what}")


def _archive(
    path: str | Path, data: np.ndarray, counts: tuple[int, int, int]
) -> HistoryArchive:
    """The archive in the CSV table ``data`` (stamps, then ``counts`` level,
    action and demand columns) once its numbers pass every check; a failing
    check names the CSV row it fails on.

    Each value check first tries a reduction that allocates nothing, and
    only when that fails builds the mask that finds the row: a sum is
    finite only if every value is, and once every value is finite the
    actions' and demands' extremes decide their bounds.
    """
    n_tanks, n_stations, n_zones = counts
    stamps, levels, actions, demands = np.split(
        data, np.cumsum([2, n_tanks, n_stations]), axis=1
    )
    # past 2**53 a float64 stamp is no longer exact, nor castable to int64
    odd = (stamps != np.floor(stamps)) | (np.abs(stamps) > 2.0**53)
    if odd.any():
        row = _first_row(odd) + 2
        raise SchemaError(f"{path} row {row}: day and t must be integers")
    # ``initial`` keeps an empty body valid: a reduction of nothing has no min.
    if not np.isfinite(data.sum()):  # or a sum of finite values overflowed
        _reject_rows(path, ~np.isfinite(data), "non-finite value")
    if actions.min(initial=0.0) < 0 or actions.max(initial=1.0) > 1:
        _reject_rows(path, (actions < 0) | (actions > 1), "action outside [0, 1]")
    if demands.min(initial=0.0) < 0:
        _reject_rows(path, demands < 0, "negative demand")

    if len(data) % STEPS_PER_DAY:
        raise ValidationError(
            f"{path}: {len(data)} rows are not a whole number of "
            f"{STEPS_PER_DAY}-step days"
        )
    day_ids = stamps[:, 0].reshape(-1, STEPS_PER_DAY)
    steps = stamps[:, 1].reshape(-1, STEPS_PER_DAY)
    broken = (day_ids != day_ids[:, :1]) | (steps != np.arange(STEPS_PER_DAY))
    if broken.any():
        raise ValidationError(
            f"{path}: day {int(day_ids[_first_row(broken), 0])} is incomplete "
            "or out of order"
        )
    per_day = (-1, STEPS_PER_DAY)
    return HistoryArchive(
        days=day_ids[:, 0].astype(np.int64),
        levels=levels.reshape(*per_day, n_tanks),
        actions=actions.reshape(*per_day, n_stations),
        demands=demands.reshape(*per_day, n_zones),
    )


def _companion_archive(
    path: str | Path, counts: tuple[int, int, int]
) -> HistoryArchive | None:
    """The archive the companion of the CSV at ``path`` holds, or None unless
    it is keyed to the CSV's current bytes and is a table of the CSV's
    width, which ``counts`` sets as for ``_archive``.

    A thread hashes the CSV while this one reads the companion and runs
    ``_archive``'s checks on its table; the thread is joined before the key
    decides. A check's error is raised only when the key matches, so a
    stale companion never fails a load: the CSV is parsed instead.
    """
    try:
        fh = open(f"{path}.arrays", "rb")
    except OSError:
        return None  # nothing to key, so nothing to hash
    key: list[bytes] = []
    hasher = threading.Thread(target=_key_into, args=(path, key))
    hasher.start()
    try:
        with fh:
            companion = _read_companion(fh)
        if companion is None:
            return None
        stored, data = companion
        if data.ndim != 2 or data.shape[1] != 2 + sum(counts):
            return None
        try:
            checked = _archive(path, data, counts)
        except (SchemaError, ValidationError) as exc:
            checked = exc
    finally:
        hasher.join()
    if key != [stored]:
        return None
    if isinstance(checked, Exception):
        raise checked
    return checked


def load_history(path: str | Path) -> HistoryArchive:
    """Load and validate an operating archive from CSV.

    After the header is checked, the archive comes from the binary companion
    ``save_history`` wrote beside the CSV when it is keyed to the CSV's
    current bytes and is a table of the CSV's width. The CSV's SHA-256 is
    computed on a thread while the companion is read and its numbers are
    checked (see ``_companion_archive``). Otherwise a ``csv.reader`` scan
    parses the body row by row, and a bad row fails with a one-line error
    naming its line. Either way the numbers pass the same checks, which fail
    with the same message and row.
    """
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise SchemaError(f"{path}: empty file") from None
            counts = _group_counts(header)
            expected = _header(*counts)
            if header != expected:
                raise SchemaError(f"{path}: {_header_mismatch(header, expected)}")
            archive = _companion_archive(path, counts)
            if archive is None:
                data = _scan_body(path, reader, len(expected))
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not a text file ({exc})") from None
    except csv.Error as exc:  # a field over csv's size limit, say
        raise SchemaError(f"{path} line {reader.line_num}: {exc}") from None
    if archive is None:
        archive = _archive(path, data, counts)
    return archive
