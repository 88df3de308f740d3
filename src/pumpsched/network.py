"""Network model: tanks, pump stations, demand zones, tariff, demand generation.

Units follow waterworks convention throughout: levels in metres, surface areas
in square metres, flows and demands in cubic metres per hour, power in
kilowatts, energy in kilowatt-hours, tariff in currency per kilowatt-hour.
A day is resolved into 96 quarter-hour steps.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import SchemaError, ValidationError

STEPS_PER_DAY = 96
DT_HOURS = 0.25

# Default synthetic-world sizing.
TANK_COUNT = 6
STATION_COUNT = 6
ZONE_COUNT = 18

# Hysteresis margin sloppiness of the operators the archive records (see
# ``history.margins_for``), calibrated so roughly 30% of archive days on
# default worlds contain at least one violation. It lives here, beside the
# other world defaults, so the CLI's flag default loads no controller code.
DEFAULT_IMPERFECTION = 0.57

# Spawn-key namespace of each seed stream drawn from a run's seed. Distinct
# namespaces keep the streams apart: no draw of one repeats another's.
SEED_STREAMS = {
    "history_demands": 0,
    "history_margins": 1,
    "train_episode": 2,
    "policy_init": 3,
    "hybrid_attempt": 4,
    "eval_episode": 5,
    "ppo_shuffle": 6,
}


def _seed_stream(seed: int, stream: str, *key: int) -> np.random.SeedSequence:
    """Entry ``key`` of the named stream of ``seed``."""
    return np.random.SeedSequence(entropy=seed, spawn_key=(SEED_STREAMS[stream], *key))


def _check_finite(spec, label: str) -> None:
    """Reject a non-finite value in any float field of a spec dataclass."""
    for f in fields(spec):
        value = getattr(spec, f.name)
        if isinstance(value, float) and not np.isfinite(value):
            raise ValidationError(f"{label}: {f.name} must be finite")


@dataclass(frozen=True)
class TankSpec:
    """A storage tank with a physical capacity and an operational band."""

    id: str
    surface_area: float
    level_max_physical: float
    lower_bound: float
    upper_bound: float
    initial_level: float

    def validate(self) -> None:
        _check_finite(self, f"tank {self.id}")
        if not self.surface_area > 0:
            raise ValidationError(f"tank {self.id}: surface_area must be > 0")
        if not self.level_max_physical > 0:
            raise ValidationError(f"tank {self.id}: level_max_physical must be > 0")
        if not (0 <= self.lower_bound < self.upper_bound <= self.level_max_physical):
            raise ValidationError(
                f"tank {self.id}: bounds must satisfy "
                "0 <= lower_bound < upper_bound <= level_max_physical"
            )
        if not (0 <= self.initial_level <= self.level_max_physical):
            raise ValidationError(
                f"tank {self.id}: initial_level must lie in [0, level_max_physical]"
            )


@dataclass(frozen=True)
class PumpStationSpec:
    """A pump station with affinity-law power and a fixed fill split.

    ``fills`` maps destination tank ids to fractions that sum to 1.
    ``draws_from`` names the source tank, or None for an external source.
    """

    id: str
    max_flow: float
    rated_power: float
    fills: tuple[tuple[str, float], ...]
    draws_from: str | None = None

    def validate(self) -> None:
        _check_finite(self, f"station {self.id}")
        if not self.max_flow > 0:
            raise ValidationError(f"station {self.id}: max_flow must be > 0")
        if self.rated_power < 0:
            raise ValidationError(f"station {self.id}: rated_power must be >= 0")
        if not self.fills:
            raise ValidationError(f"station {self.id}: fills must not be empty")
        total = sum(frac for _, frac in self.fills)
        if not np.isclose(total, 1.0, rtol=0, atol=1e-9):
            raise ValidationError(
                f"station {self.id}: fill fractions must sum to 1 (got {total!r})"
            )
        for tank_id, frac in self.fills:
            if frac < 0:
                raise ValidationError(
                    f"station {self.id}: fill fraction for {tank_id} must be >= 0"
                )
            if self.draws_from is not None and tank_id == self.draws_from:
                raise ValidationError(
                    f"station {self.id}: must not fill and draw the same tank {tank_id}"
                )

    def primary_tank(self) -> str:
        """Destination tank with the largest fill fraction (first wins ties)."""
        best_id, best_frac = self.fills[0]
        for tank_id, frac in self.fills[1:]:
            if frac > best_frac:
                best_id, best_frac = tank_id, frac
        return best_id


@dataclass(frozen=True)
class DemandZoneSpec:
    """A demand zone served by one tank, with a double-peak diurnal profile."""

    id: str
    served_by: str
    base_demand: float
    morning_peak: float
    evening_peak: float
    noise_scale: float

    def validate(self) -> None:
        _check_finite(self, f"zone {self.id}")
        if self.base_demand < 0:
            raise ValidationError(f"zone {self.id}: base_demand must be >= 0")
        if self.morning_peak < 0 or self.evening_peak < 0:
            raise ValidationError(f"zone {self.id}: peak factors must be >= 0")
        if not (0 <= self.noise_scale <= 0.5):
            raise ValidationError(f"zone {self.id}: noise_scale must lie in [0, 0.5]")


@dataclass(frozen=True)
class TariffSchedule:
    """Energy price per step for one day."""

    values: tuple[float, ...]

    def validate(self) -> None:
        if len(self.values) != STEPS_PER_DAY:
            raise ValidationError(
                f"tariff: expected {STEPS_PER_DAY} values, got {len(self.values)}"
            )
        arr = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(arr)):
            raise ValidationError("tariff: values must be finite")
        if np.any(arr < 0):
            raise ValidationError("tariff: values must be >= 0")
        if not arr.min() < arr.max():
            raise ValidationError("tariff: min must be strictly below max")


@dataclass(frozen=True)
class NetworkTopology:
    """The lumped network: tanks, stations, zones, tariff.

    The step size is fixed at ``DT_HOURS``: a day is always 96 quarter hours.
    """

    tanks: tuple[TankSpec, ...]
    stations: tuple[PumpStationSpec, ...]
    zones: tuple[DemandZoneSpec, ...]
    tariff: TariffSchedule

    def validate(self) -> None:
        if not self.tanks:
            raise ValidationError("topology: at least one tank is required")
        if not self.stations:
            raise ValidationError("topology: at least one station is required")
        if not self.zones:
            raise ValidationError("topology: at least one zone is required")
        seen: set[str] = set()
        for tank in self.tanks:
            tank.validate()
            if tank.id in seen:
                raise ValidationError(f"topology: duplicate tank id {tank.id}")
            seen.add(tank.id)
        tank_ids = {tank.id for tank in self.tanks}
        seen = set()
        for station in self.stations:
            station.validate()
            if station.id in seen:
                raise ValidationError(f"topology: duplicate station id {station.id}")
            seen.add(station.id)
            for tank_id, _ in station.fills:
                if tank_id not in tank_ids:
                    raise ValidationError(
                        f"station {station.id}: fills unknown tank {tank_id}"
                    )
            if station.draws_from is not None and station.draws_from not in tank_ids:
                raise ValidationError(
                    f"station {station.id}: draws from unknown tank {station.draws_from}"
                )
        seen = set()
        for zone in self.zones:
            zone.validate()
            if zone.id in seen:
                raise ValidationError(f"topology: duplicate zone id {zone.id}")
            seen.add(zone.id)
            if zone.served_by not in tank_ids:
                raise ValidationError(
                    f"zone {zone.id}: served by unknown tank {zone.served_by}"
                )
        self.tariff.validate()

    @property
    def n_tanks(self) -> int:
        return len(self.tanks)

    @property
    def n_stations(self) -> int:
        return len(self.stations)

    @property
    def n_zones(self) -> int:
        return len(self.zones)

    def tank_index(self, tank_id: str) -> int:
        for i, tank in enumerate(self.tanks):
            if tank.id == tank_id:
                return i
        raise ValidationError(f"unknown tank id {tank_id}")

    @functools.cached_property
    def compiled(self) -> CompiledTopology:
        """Every array the topology implies, worked out once per topology."""
        return CompiledTopology(self)


class CompiledTopology:
    """The arrays a topology implies, read-only, in tank, station and step
    order: the step kernel's station fill/draw fractions, zone-to-tank
    routing, pump ratings, tank areas and caps; the operational bounds and
    start levels; the tariff and its min-max normalization; each station's
    per-step energy at full speed, rated power * dt, which the dual reward
    normalizes by; each station's primary tank with that tank's bounds; and
    each zone's diurnal demand profile, base demand times its double peak,
    (n_zones, 96), with its noise scale as a column, (n_zones, 1).

    A tariff without spread has no normalization and fails to compile; a
    validated topology never has one.
    """

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
        self.energy_span = self.rated_power * DT_HOURS
        self.zone_to_tank = np.zeros((n_t, n_z))
        for k, zone in enumerate(topology.zones):
            self.zone_to_tank[topology.tank_index(zone.served_by), k] = 1.0
        self.areas, self.caps, self.lower, self.upper, self.initial_levels = np.array(
            [
                [t.surface_area for t in topology.tanks],
                [t.level_max_physical for t in topology.tanks],
                [t.lower_bound for t in topology.tanks],
                [t.upper_bound for t in topology.tanks],
                [t.initial_level for t in topology.tanks],
            ],
            dtype=float,
        )
        self.tariff = np.array(topology.tariff.values, dtype=float)
        lo, hi = self.tariff.min(), self.tariff.max()
        if not hi > lo:
            raise ValidationError("tariff must have min strictly below max")
        self.tariff_norm = (self.tariff - lo) / (hi - lo)
        self.primary = np.array(
            [topology.tank_index(s.primary_tank()) for s in topology.stations]
        )
        self.primary_lower = self.lower[self.primary]
        self.primary_upper = self.upper[self.primary]
        morning, evening, self.noise_scale, base = np.array(
            [
                [z.morning_peak, z.evening_peak, z.noise_scale, z.base_demand]
                for z in topology.zones
            ]
        ).T[..., None]
        hours = (np.arange(STEPS_PER_DAY) + 0.5) * DT_HOURS
        shape = (
            1.0
            + morning * np.exp(-((hours - 7.5) ** 2) / (2 * 1.5**2))
            + evening * np.exp(-((hours - 19.0) ** 2) / (2 * 2.0**2))
        )
        self.demand_profile = base * shape
        for a in vars(self).values():
            a.setflags(write=False)


# ----------------------------------------------------------------------------
# JSON serialization


# The document's sections, keyed as the topology's fields; an entry's keys are
# its spec's fields in order.
_SECTIONS = {"tanks": TankSpec, "stations": PumpStationSpec, "zones": DemandZoneSpec}


_JSON_TYPES = {"str": (str, "string"), "float": ((int, float), "number")}


def _json_value(value, kind: str, name: str) -> float | str:
    """``value`` of field ``name`` as a ``kind``, "str" or "float", if it is a
    JSON string or a JSON number (a bool is not one); ``TypeError`` if not."""
    types, word = _JSON_TYPES[kind]
    if isinstance(value, bool) or not isinstance(value, types):
        raise TypeError(f"{name} must be a JSON {word}")
    return float(value) if kind == "float" else value


def _field_from_dict(obj: dict, f) -> object:
    """Field ``f``'s value from the key of its name, as its declared type (a
    string here, under ``from __future__ import annotations``)."""
    if f.name == "fills":
        return tuple(
            (
                _json_value(tank, "str", "fill tank"),
                _json_value(share, "float", "fill share"),
            )
            for tank, share in obj["fills"]
        )
    if f.name == "draws_from":
        draws = obj.get("draws_from")
        return None if draws is None else _json_value(draws, "str", f.name)
    return _json_value(obj[f.name], f.type, f.name)


def _spec_from_dict(cls, obj: dict, where: str):
    try:
        return cls(**{f.name: _field_from_dict(obj, f) for f in fields(cls)})
    except KeyError as exc:
        raise SchemaError(f"{where}: missing field {exc.args[0]}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"{where}: {exc}") from None


def _spec_to_dict(spec) -> dict:
    obj = {f.name: getattr(spec, f.name) for f in fields(spec)}
    if "fills" in obj:
        obj["fills"] = [list(fill) for fill in obj["fills"]]
    return obj


def topology_to_dict(topology: NetworkTopology) -> dict:
    """The network document: ``dt_hours``, then one list per section whose
    entries' keys are the spec's fields in order, then the tariff values."""
    sections = {
        key: [_spec_to_dict(spec) for spec in getattr(topology, key)]
        for key in _SECTIONS
    }
    return {"dt_hours": DT_HOURS, **sections, "tariff": list(topology.tariff.values)}


def topology_from_dict(obj: dict) -> NetworkTopology:
    """Read and validate a network document as ``topology_to_dict`` writes it:
    after ``dt_hours``, each entry's keys are its spec's fields in order. A
    missing or malformed field raises a one-line ``SchemaError`` naming the
    entry, such as ``tanks[2]: missing field surface_area``."""
    for key in (*_SECTIONS, "tariff"):
        if key not in obj:
            raise SchemaError(f"network document: missing top-level key {key!r}")
        if not isinstance(obj[key], list):
            raise SchemaError(f"network document: {key!r} must be a list")
    dt_hours = obj.get("dt_hours", DT_HOURS)
    if dt_hours != DT_HOURS:
        raise SchemaError(
            f"network document: dt_hours must be {DT_HOURS} (got {dt_hours!r})"
        )
    try:
        values = tuple(_json_value(v, "float", "values") for v in obj["tariff"])
        tariff = TariffSchedule(values=values)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"tariff: {exc}") from None
    topology = NetworkTopology(
        **{
            key: tuple(
                _spec_from_dict(cls, entry, f"{key}[{i}]")
                for i, entry in enumerate(obj[key])
            )
            for key, cls in _SECTIONS.items()
        },
        tariff=tariff,
    )
    topology.validate()
    return topology


def _read_json(path: str | Path):
    """The JSON document at ``path``; a file that is not one, or not UTF-8,
    raises a one-line ``SchemaError``."""
    try:
        return json.loads(Path(path).read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from None


def load_network(path: str | Path) -> NetworkTopology:
    """Load and validate a network topology from a JSON document."""
    obj = _read_json(path)
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: top level must be a JSON object")
    return topology_from_dict(obj)


def save_network(topology: NetworkTopology, path: str | Path) -> None:
    topology.validate()
    Path(path).write_text(json.dumps(topology_to_dict(topology), indent=2) + "\n")


# ----------------------------------------------------------------------------
# Synthetic world generation

# Sized so duty-cycle inflow comfortably exceeds worst-case coincident outflow
# on source-fed tanks; see the hysteresis controller in history.py.
_SOURCE_BIG_FLOW = (1150.0, 1300.0)  # stations feeding tanks that also feed transfers
_SOURCE_FLOW = (560.0, 640.0)
_TRANSFER_FLOW = (400.0, 460.0)
_SPECIFIC_POWER = (0.30, 0.40)  # kW per (m^3/h) of max flow


def generate_synthetic_network(seed: int) -> NetworkTopology:
    """Deterministically generate a six-tank default world from a seed.

    The layout is fixed (four source stations, two transfer stations, one
    split fill, three zones per tank); the numbers are jittered by the seed.
    """
    rng = np.random.default_rng(seed)

    tanks = []
    for i in range(TANK_COUNT):
        lb = float(rng.uniform(1.8, 2.4))
        ub = float(rng.uniform(6.0, 6.6))
        tanks.append(
            TankSpec(
                id=f"tank_{i + 1}",
                surface_area=float(rng.uniform(800.0, 1600.0)),
                level_max_physical=8.0,
                lower_bound=lb,
                upper_bound=ub,
                initial_level=float(rng.uniform(3.8, 4.6)),
            )
        )

    def flow(bounds: tuple[float, float]) -> float:
        return float(rng.uniform(*bounds))

    flows = [
        flow(_SOURCE_BIG_FLOW),
        flow(_SOURCE_BIG_FLOW),
        flow(_SOURCE_FLOW),
        flow(_SOURCE_FLOW),
        flow(_TRANSFER_FLOW),
        flow(_TRANSFER_FLOW),
    ]
    fills: list[tuple[tuple[str, float], ...]] = [
        (("tank_1", 1.0),),
        (("tank_2", 1.0),),
        (("tank_3", 0.85), ("tank_4", 0.15)),
        (("tank_4", 1.0),),
        (("tank_5", 1.0),),
        (("tank_6", 1.0),),
    ]
    draws: list[str | None] = [None, None, None, None, "tank_1", "tank_2"]
    stations = tuple(
        PumpStationSpec(
            id=f"station_{j + 1}",
            max_flow=flows[j],
            rated_power=float(flows[j] * rng.uniform(*_SPECIFIC_POWER)),
            fills=fills[j],
            draws_from=draws[j],
        )
        for j in range(STATION_COUNT)
    )

    zones = []
    for i in range(TANK_COUNT):
        for k in range(ZONE_COUNT // TANK_COUNT):
            zones.append(
                DemandZoneSpec(
                    id=f"zone_{i * (ZONE_COUNT // TANK_COUNT) + k + 1}",
                    served_by=f"tank_{i + 1}",
                    base_demand=float(rng.uniform(35.0, 70.0)),
                    morning_peak=float(rng.uniform(0.45, 0.70)),
                    evening_peak=float(rng.uniform(0.35, 0.60)),
                    noise_scale=float(rng.uniform(0.10, 0.20)),
                )
            )

    night = rng.uniform(0.06, 0.09)
    day = rng.uniform(0.16, 0.22)
    tariff_values = []
    for t in range(STEPS_PER_DAY):
        base = day if 28 <= t < 88 else night  # 07:00-22:00 is the expensive tier
        tariff_values.append(float(base * (1.0 + 0.04 * rng.uniform(-1.0, 1.0))))

    topology = NetworkTopology(
        tanks=tuple(tanks),
        stations=stations,
        zones=tuple(zones),
        tariff=TariffSchedule(values=tuple(tariff_values)),
    )
    topology.validate()
    return topology


def demands_from_rng(
    topology: NetworkTopology, rng: np.random.Generator
) -> np.ndarray:
    """One day of per-zone demands, (n_zones, 96), drawn from an existing
    generator: the compiled diurnal profile times ``1 + noise_scale * z``.
    One (n_zones, 96) normal draw gives zone k the ``z`` of the k-th of
    n_zones successive 96-value draws."""
    c = topology.compiled
    z = rng.standard_normal(c.demand_profile.shape)
    return np.maximum(c.demand_profile * (1.0 + c.noise_scale * z), 0.0)
