"""Operating history: a hysteresis controller and the archive it produces.

Each station watches its primary destination tank and runs at a fixed duty
speed below a trigger level, coasting off above a release level. Margins sit
well inside the operational band when perfect; a seeded imperfection knob
shifts them day by day so a realistic share of archive days contains boundary
violations.

``generate_history`` records such days into a ``HistoryArchive``: day ids
plus level, action, power, demand and tariff arrays shaped (day, step, ...),
saved to and loaded from CSV with one row per (day, step).

The CSV is the archive's canonical format. ``save_history`` also writes a
binary companion beside it, ``<csv>.arrays``: the SHA-256 of the CSV bytes on
one ASCII line, then the same numbers as one ``np.save`` array. Like a
hash-based ``.pyc`` file it is a cache keyed on content, not on time:
``load_history`` reads it, never unpickling, only when the key matches the
CSV it is loading, and otherwise parses the CSV text as before.
"""

from __future__ import annotations

import csv
import hashlib
import re
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import SchemaError, ValidationError
from .network import (
    STEPS_PER_DAY,
    DemandSet,
    NetworkTopology,
    demands_from_rng,
)
from .simulate import Trajectory, run_day

DUTY_SPEED = 0.85
_PERFECT_MARGIN = 0.30  # fraction of the band kept clear of each boundary
_MARGIN_SWING = 0.55
_MARGIN_FLOOR = -0.08
_MARGIN_CEIL = 0.45

# Calibrated so roughly 30% of archive days on default worlds contain at
# least one violation; see generate_history.
DEFAULT_IMPERFECTION = 0.57


@dataclass(frozen=True)
class HysteresisMargins:
    """Per-station trigger (pump on below) and release (pump off above)."""

    triggers: np.ndarray
    releases: np.ndarray


def margins_for(
    topology: NetworkTopology,
    imperfection: float,
    rng: np.random.Generator,
) -> HysteresisMargins:
    """Draw per-station margins; imperfection 0 means perfectly placed and
    draws nothing from ``rng``."""
    if not (0.0 <= imperfection <= 1.0):
        raise ValidationError("imperfection must lie in [0, 1]")
    n_s = topology.n_stations
    if imperfection == 0.0:
        trig_off = np.full(n_s, _PERFECT_MARGIN)
        rel_off = np.full(n_s, _PERFECT_MARGIN)
    else:
        trig_off = np.clip(
            _PERFECT_MARGIN + imperfection * _MARGIN_SWING * rng.uniform(-1, 1, n_s),
            _MARGIN_FLOOR,
            _MARGIN_CEIL,
        )
        rel_off = np.clip(
            _PERFECT_MARGIN + imperfection * _MARGIN_SWING * rng.uniform(-1, 1, n_s),
            _MARGIN_FLOOR,
            _MARGIN_CEIL,
        )
    triggers = np.empty(n_s)
    releases = np.empty(n_s)
    for j, station in enumerate(topology.stations):
        tank = topology.tanks[topology.tank_index(station.primary_tank())]
        band = tank.upper_bound - tank.lower_bound
        triggers[j] = tank.lower_bound + band * trig_off[j]
        releases[j] = tank.upper_bound - band * rel_off[j]
        if releases[j] < triggers[j] + 0.05 * band:
            releases[j] = triggers[j] + 0.05 * band
    return HysteresisMargins(triggers=triggers, releases=releases)


class RuleBasedController:
    """Stateful hysteresis control: duty speed below trigger, off above release."""

    def __init__(self, topology: NetworkTopology, margins: HysteresisMargins):
        self.topology = topology
        self.margins = margins
        self._primary = np.array(
            [topology.tank_index(s.primary_tank()) for s in topology.stations]
        )
        self._on = np.zeros(topology.n_stations, dtype=bool)

    def reset(self, levels: np.ndarray) -> None:
        watched = np.asarray(levels, dtype=float)[self._primary]
        self._on = watched < (self.margins.triggers + self.margins.releases) / 2.0

    def act(self, levels: np.ndarray) -> np.ndarray:
        watched = np.asarray(levels, dtype=float)[self._primary]
        self._on = np.where(
            watched < self.margins.triggers,
            True,
            np.where(watched > self.margins.releases, False, self._on),
        )
        return np.where(self._on, DUTY_SPEED, 0.0)


def run_controlled_day(
    topology: NetworkTopology,
    initial_levels: np.ndarray,
    controller,
    demands: DemandSet,
) -> Trajectory:
    """Closed-loop day under any object exposing reset(levels)/act(levels)."""
    controller.reset(np.asarray(initial_levels, dtype=float))
    return run_day(
        topology,
        initial_levels,
        demands.as_array(),
        topology.tariff.as_array(),
        lambda t, levels: controller.act(levels),
    )


@dataclass(frozen=True, eq=False)
class HistoryArchive:
    """Recorded operating days as read-only arrays, one leading row per day.

    ``days`` (D,) holds strictly increasing day ids. For every day and each
    of its 96 steps, ``levels`` (D, 96, n_tanks) holds the tank levels before
    the step, ``actions`` and ``powers`` (D, 96, n_stations) the commanded
    speeds and the power drawn during it, ``demands`` (D, 96, n_zones) the
    realized zone demands and ``tariff`` (D, 96) the energy price.
    """

    days: np.ndarray
    levels: np.ndarray
    actions: np.ndarray
    powers: np.ndarray
    demands: np.ndarray
    tariff: np.ndarray

    def __post_init__(self):
        for f in fields(self):
            arr = np.asarray(getattr(self, f.name))
            arr.setflags(write=False)
            object.__setattr__(self, f.name, arr)

    def validate(self) -> None:
        if self.days.ndim != 1:
            raise ValidationError("archive day ids must form a 1-D array")
        n_days = len(self.days)
        for name in ("levels", "actions", "powers", "demands", "tariff"):
            shape = getattr(self, name).shape
            ndim = 2 if name == "tariff" else 3
            if len(shape) != ndim or shape[0] != n_days:
                raise ValidationError(
                    f"archive {name} has shape {shape} for {n_days} days"
                )
            if shape[1] != STEPS_PER_DAY:
                raise ValidationError(
                    f"archive {name} holds {shape[1]} steps per day, "
                    f"not whole {STEPS_PER_DAY}-step days"
                )
        if self.actions.shape[2] != self.powers.shape[2]:
            raise ValidationError("archive actions and powers differ in station count")
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
        powers = np.empty((days, STEPS_PER_DAY, topology.n_stations))
        demands = np.empty((days, STEPS_PER_DAY, topology.n_zones))
        tariff = np.empty((days, STEPS_PER_DAY))
    except ValueError:  # numpy rejects the size before allocating
        raise ValidationError(f"a history of {days} days is too large") from None
    start = topology.initial_levels_array()
    for day in range(days):
        demand_rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(0, day))
        )
        margin_rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(1, day))
        )
        day_demands = demands_from_rng(topology, demand_rng)
        margins = margins_for(topology, imperfection, margin_rng)
        controller = RuleBasedController(topology, margins)
        traj = run_controlled_day(topology, start, controller, day_demands)
        levels[day] = traj.states[:-1]
        actions[day] = traj.actions
        powers[day] = traj.powers
        demands[day] = traj.zone_demands
        tariff[day] = traj.tariff
        start = traj.states[-1]
    archive = HistoryArchive(
        days=np.arange(days),
        levels=levels,
        actions=actions,
        powers=powers,
        demands=demands,
        tariff=tariff,
    )
    archive.validate()
    return archive


# ----------------------------------------------------------------------------
# CSV round-trip

_GROUP_RE = re.compile(r"^(level|action|power|demand)_(\d+)$")

def _header(n_tanks: int, n_stations: int, n_zones: int) -> list[str]:
    return (
        ["day", "t"]
        + [f"level_{i + 1}" for i in range(n_tanks)]
        + [f"action_{j + 1}" for j in range(n_stations)]
        + [f"power_{j + 1}" for j in range(n_stations)]
        + [f"demand_{k + 1}" for k in range(n_zones)]
        + ["tariff"]
    )


def _companion(path: str | Path) -> Path:
    """The binary companion of the archive CSV at ``path``."""
    return Path(f"{path}.arrays")


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

    Floats round-trip exactly via repr. The companion, ``<path>.arrays``,
    only spares ``load_history`` the text parse: one ASCII line with the
    SHA-256 hex digest of the CSV bytes, hashed as they are written, then the
    CSV's numbers, stamps included, as one float64 ``np.save`` array written
    without pickling. Both files' bytes depend on the archive alone.
    """
    archive.validate()
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
            archive.powers,
            archive.demands,
            archive.tariff[:, :, None],
        ],
        axis=2,
        dtype=np.float64,
    )
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for chunk in _csv_chunks(header, archive.days, table):
            digest.update(chunk)
            fh.write(chunk)
    with open(_companion(path), "wb") as fh:
        fh.write(f"{digest.hexdigest()}\n".encode())
        np.save(fh, table.reshape(-1, len(header)), allow_pickle=False)


def _group_counts(header: list[str]) -> tuple[int, int, int]:
    counts = {"level": 0, "action": 0, "power": 0, "demand": 0}
    for name in header:
        match = _GROUP_RE.match(name)
        if match:
            counts[match.group(1)] += 1
    if counts["action"] != counts["power"]:
        raise SchemaError("history header: action and power column counts differ")
    if min(counts["level"], counts["action"], counts["demand"]) == 0:
        raise SchemaError("history header: level/action/demand columns are required")
    return counts["level"], counts["action"], counts["demand"]


def _scan_body(path: str | Path, width: int) -> np.ndarray:
    """The rows after the header, read row by row so a bad one names its line."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != width:
                raise SchemaError(f"{path} row {lineno}: wrong column count")
            try:
                rows.append([float(v) for v in row])
            except ValueError as exc:
                raise SchemaError(f"{path} row {lineno}: {exc}") from None
    return np.array(rows, dtype=float).reshape(-1, width)


def _body_lines(fh):
    """The lines ``loadtxt`` parses; a blank line or an empty body stops it.

    ``loadtxt`` would skip the one and warn on the other, where the archive
    format rejects a blank row and reads an empty body as zero rows.
    """
    line = None
    for line in fh:
        if not line.strip():
            raise ValueError("blank line")
        yield line
    if line is None:
        raise ValueError("no rows")


def _read_companion(path: str | Path, width: int) -> np.ndarray | None:
    """The companion's table, or None unless it is keyed to the CSV's bytes.

    The CSV is streamed through SHA-256 in chunks, never read whole. The
    table is loaded without unpickling and used only as a float64 array of
    the CSV's width; a missing, stale, truncated or malformed companion gives
    None.
    """
    try:
        with open(_companion(path), "rb") as fh:
            key = fh.readline(80)
            digest = hashlib.sha256()
            with open(path, "rb") as csv_fh:
                for chunk in iter(lambda: csv_fh.read(1 << 20), b""):
                    digest.update(chunk)
            if key != f"{digest.hexdigest()}\n".encode():
                return None
            table = np.load(fh, allow_pickle=False)
    except (OSError, ValueError, EOFError):
        return None
    if (
        isinstance(table, np.ndarray)
        and table.dtype == np.float64
        and table.ndim == 2
        and table.shape[1] == width
    ):
        return table
    return None


def load_history(path: str | Path) -> HistoryArchive:
    """Load and validate an operating archive from CSV.

    After the header is checked, the body comes from the binary companion
    ``save_history`` wrote beside the CSV when that companion is keyed to the
    CSV's current bytes (see ``_read_companion``). Otherwise it is parsed by
    one ``np.loadtxt`` call streaming from the open file, so memory stays
    close to the arrays'. Should that fail, a ``csv.reader`` scan reads the
    body row by row instead, and a bad row fails with a one-line error naming
    its line. Whichever way the numbers were read, they pass the same checks.
    """
    try:
        with open(path, newline="") as fh:
            try:
                header = next(csv.reader(fh))
            except StopIteration:
                raise SchemaError(f"{path}: empty file") from None
            n_tanks, n_stations, n_zones = _group_counts(header)
            expected = _header(n_tanks, n_stations, n_zones)
            if header != expected:
                raise SchemaError(
                    f"{path}: header does not match the documented column order"
                )
            data = _read_companion(path, len(expected))
            if data is None:
                try:
                    data = np.loadtxt(
                        _body_lines(fh),
                        delimiter=",",
                        comments=None,
                        quotechar='"',
                        ndmin=2,
                    )
                except UnicodeDecodeError:
                    raise
                except ValueError:
                    data = None
        if data is None or data.shape[1] != len(expected):
            data = _scan_body(path, len(expected))
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not a text file ({exc})") from None

    stamps, levels, actions, powers, demands, tariff = np.split(
        data, np.cumsum([2, n_tanks, n_stations, n_stations, n_zones]), axis=1
    )
    odd = np.flatnonzero((stamps != np.floor(stamps)).any(axis=1))
    if odd.size:
        raise SchemaError(f"{path} row {odd[0] + 2}: day and t must be integers")
    for bad, what in (
        (~np.isfinite(data), "non-finite value"),
        ((actions < 0) | (actions > 1), "action outside [0, 1]"),
        (demands < 0, "negative demand"),
        (tariff < 0, "negative tariff"),
    ):
        hit = np.flatnonzero(bad.any(axis=1))
        if hit.size:
            raise ValidationError(f"{path} row {hit[0] + 2}: {what}")

    if len(data) % STEPS_PER_DAY:
        raise ValidationError(
            f"{path}: {len(data)} rows are not a whole number of "
            f"{STEPS_PER_DAY}-step days"
        )
    day_ids = stamps[:, 0].reshape(-1, STEPS_PER_DAY)
    steps = stamps[:, 1].reshape(-1, STEPS_PER_DAY)
    broken = np.flatnonzero(
        (day_ids != day_ids[:, :1]).any(axis=1)
        | (steps != np.arange(STEPS_PER_DAY)).any(axis=1)
    )
    if broken.size:
        raise ValidationError(
            f"{path}: day {int(day_ids[broken[0], 0])} is incomplete or out of order"
        )
    per_day = (-1, STEPS_PER_DAY)
    archive = HistoryArchive(
        days=day_ids[:, 0].astype(np.int64),
        levels=levels.reshape(*per_day, n_tanks),
        actions=actions.reshape(*per_day, n_stations),
        powers=powers.reshape(*per_day, n_stations),
        demands=demands.reshape(*per_day, n_zones),
        tariff=tariff.reshape(per_day),
    )
    archive.validate()
    return archive
