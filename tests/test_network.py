import dataclasses
import json

import numpy as np
import pytest

from pumpsched import (
    DemandZoneSpec,
    PumpStationSpec,
    TankSpec,
    TariffSchedule,
    SchemaError,
    ValidationError,
    demands_from_rng,
    generate_synthetic_network,
    load_network,
    save_network,
    topology_from_dict,
    topology_to_dict,
)
from pumpsched.network import DT_HOURS, SEED_STREAMS, STEPS_PER_DAY, _seed_stream


def test_synthetic_network_sizing(world):
    assert world.n_tanks == 6
    assert world.n_stations == 6
    assert world.n_zones == 18
    world.validate()


def test_synthetic_network_deterministic():
    a = generate_synthetic_network(seed=42)
    b = generate_synthetic_network(seed=42)
    assert topology_to_dict(a) == topology_to_dict(b)


def test_synthetic_network_seed_sensitivity():
    a = generate_synthetic_network(seed=42)
    b = generate_synthetic_network(seed=43)
    assert a.tariff.values != b.tariff.values


def test_tariff_shape_and_spread(world):
    values = np.array(world.tariff.values)
    assert values.shape == (STEPS_PER_DAY,)
    assert values.min() < values.max()
    assert np.all(values >= 0)


def test_tariff_two_tier_pattern(world):
    values = np.array(world.tariff.values)
    night = np.concatenate([values[:28], values[88:]])
    day = values[28:88]
    assert night.max() < day.min()


def test_tank_bounds_validation():
    tank = TankSpec(
        id="t3",
        surface_area=100.0,
        level_max_physical=8.0,
        lower_bound=5.0,
        upper_bound=4.0,
        initial_level=3.0,
    )
    with pytest.raises(ValidationError, match="t3"):
        tank.validate()


def test_zone_unknown_tank_rejected(world):
    bad_zone = DemandZoneSpec(
        id="z_bad",
        served_by="no_such_tank",
        base_demand=10.0,
        morning_peak=0.5,
        evening_peak=0.5,
        noise_scale=0.1,
    )
    broken = dataclasses.replace(world, zones=world.zones[:-1] + (bad_zone,))
    with pytest.raises(ValidationError, match="no_such_tank"):
        broken.validate()


def test_tariff_rejects_constant():
    with pytest.raises(ValidationError):
        TariffSchedule(values=tuple([0.1] * STEPS_PER_DAY)).validate()


def test_network_json_round_trip(tmp_path, world):
    path = tmp_path / "network.json"
    save_network(world, path)
    again = load_network(path)
    assert topology_to_dict(again) == topology_to_dict(world)
    assert json.loads(path.read_text())["dt_hours"] == 0.25


def test_compiled_topology_is_held_on_the_instance(tmp_path, world):
    # Worked out once per topology, never by hashing it; an equal topology
    # loaded on its own lowers to equal arrays, which no caller can change.
    assert world.compiled is world.compiled
    path = tmp_path / "network.json"
    save_network(world, path)
    again = load_network(path)
    assert again == world and again.compiled is not world.compiled
    for name, array in vars(world.compiled).items():
        np.testing.assert_array_equal(getattr(again.compiled, name), array)
        assert not array.flags.writeable, name
    assert again.compiled is again.compiled

    c = world.compiled
    for name, attr in (
        ("areas", "surface_area"),
        ("caps", "level_max_physical"),
        ("lower", "lower_bound"),
        ("upper", "upper_bound"),
        ("initial_levels", "initial_level"),
    ):
        assert getattr(c, name).tolist() == [getattr(t, attr) for t in world.tanks]
    rated = [station.rated_power for station in world.stations]
    assert c.energy_span.tolist() == [r * DT_HOURS for r in rated]
    tariff = world.tariff.values
    lo, hi = min(tariff), max(tariff)
    assert c.tariff.tolist() == list(tariff)
    assert c.tariff_norm.tolist() == [(v - lo) / (hi - lo) for v in tariff]
    primary = [world.tank_index(s.primary_tank()) for s in world.stations]
    assert c.primary.tolist() == primary
    assert c.primary_lower.tolist() == [world.tanks[i].lower_bound for i in primary]
    assert c.primary_upper.tolist() == [world.tanks[i].upper_bound for i in primary]


def test_load_network_reports_bad_bounds(tmp_path, world):
    obj = topology_to_dict(world)
    obj["tanks"][2]["lower_bound"] = obj["tanks"][2]["upper_bound"] + 1.0
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(ValidationError, match=world.tanks[2].id):
        load_network(path)


@pytest.mark.parametrize(
    "where, value, error",
    [
        (("tariff", 5), "cheap", SchemaError),
        (("tanks",), 5, SchemaError),
        (("stations", 0, "max_flow"), float("inf"), ValidationError),
        (("dt_hours",), 1.0, SchemaError),
        (("zones", 0, "id"), None, SchemaError),
        (("tanks", 0, "surface_area"), True, SchemaError),
        (("stations", 2, "fills", 1, 0), 4, SchemaError),
        (("tariff", 0), False, SchemaError),
        (("tanks", 0, "surface_area"), 10**400, SchemaError),
    ],
    ids=[
        "text_tariff",
        "tanks_not_a_list",
        "infinite_max_flow",
        "hourly_dt",
        "null_zone_id",
        "bool_surface_area",
        "numeric_fill_tank",
        "bool_tariff",
        "huge_integer_area",
    ],
)
def test_load_network_rejects_malformed_documents(tmp_path, world, where, value, error):
    obj = topology_to_dict(world)
    target = obj
    for key in where[:-1]:
        target = target[key]
    target[where[-1]] = value
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(error):
        load_network(path)


def test_topology_dict_round_trip(world):
    assert topology_to_dict(topology_from_dict(topology_to_dict(world))) == (
        topology_to_dict(world)
    )


@pytest.mark.parametrize(
    "key, spec",
    [("tanks", TankSpec), ("stations", PumpStationSpec), ("zones", DemandZoneSpec)],
)
def test_every_spec_field_is_read_and_named_in_its_errors(world, key, spec):
    # The last station draws from a tank, so dropping draws_from changes it.
    pos = len(getattr(world, key)) - 1
    for field in dataclasses.fields(spec):
        obj = topology_to_dict(world)
        del obj[key][pos][field.name]
        if field.name == "draws_from":
            assert getattr(topology_from_dict(obj), key)[pos].draws_from is None
            continue
        with pytest.raises(SchemaError) as info:
            topology_from_dict(obj)
        assert str(info.value) == f"{key}[{pos}]: missing field {field.name}"
    floats = [f.name for f in dataclasses.fields(spec) if f.type in ("float", float)]
    assert floats
    for name in floats + (["fills"] if key == "stations" else []):
        obj = topology_to_dict(world)
        entry = obj[key][pos]
        if name == "fills":
            entry["fills"][0][1] = "half"
        else:
            entry[name] = "high"
        with pytest.raises(SchemaError) as info:
            topology_from_dict(obj)
        message = str(info.value)
        assert message.startswith(f"{key}[{pos}]: ") and "\n" not in message, name


def test_generate_demands_deterministic(world):
    a = demands_from_rng(world, np.random.default_rng(9))
    b = demands_from_rng(world, np.random.default_rng(9))
    np.testing.assert_array_equal(a, b)


def _zone_profile_oracle(zone, rng):
    """One zone's day drawn on its own, as the per-zone loop drew demands."""
    hours = (np.arange(STEPS_PER_DAY) + 0.5) * DT_HOURS
    shape = (
        1.0
        + zone.morning_peak * np.exp(-((hours - 7.5) ** 2) / (2 * 1.5**2))
        + zone.evening_peak * np.exp(-((hours - 19.0) ** 2) / (2 * 2.0**2))
    )
    noise = 1.0 + zone.noise_scale * rng.standard_normal(STEPS_PER_DAY)
    return np.maximum(zone.base_demand * shape * noise, 0.0)


@pytest.mark.parametrize("seed", [0, 5, 11])
def test_demands_from_rng_equals_the_per_zone_loop(world, seed):
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(3):  # successive days from one stream
        values = demands_from_rng(world, rng)
        expected = np.stack([_zone_profile_oracle(z, oracle_rng) for z in world.zones])
        assert values.tobytes() == expected.tobytes()
    assert rng.random() == oracle_rng.random()


def test_demands_nonnegative_and_shaped(world):
    values = demands_from_rng(world, np.random.default_rng(3))
    assert values.shape == (world.n_zones, STEPS_PER_DAY)
    assert np.all(values >= 0)


def test_zero_noise_demand_has_two_peaks(world):
    calm = dataclasses.replace(world.zones[0], noise_scale=0.0)
    topo = dataclasses.replace(world, zones=(calm,) + world.zones[1:])
    values = demands_from_rng(topo, np.random.default_rng(1))[0]
    # Smooth double-peak: one local max in the morning half, one in the evening.
    morning = values[: STEPS_PER_DAY // 2]
    evening = values[STEPS_PER_DAY // 2 :]
    assert morning.max() > values[0]
    assert evening.max() > values[STEPS_PER_DAY // 2]
    assert morning.argmax() not in (0, len(morning) - 1)
    assert evening.argmax() not in (0, len(evening) - 1)


def test_zero_base_demand_zone_is_silent(world):
    silent = dataclasses.replace(world.zones[0], base_demand=0.0)
    topo = dataclasses.replace(world, zones=(silent,) + world.zones[1:])
    values = demands_from_rng(topo, np.random.default_rng(1))
    assert np.all(values[0] == 0.0)


def test_seed_streams_have_distinct_namespaces():
    """Each named stream owns one spawn-key namespace, so no two streams of a
    seed share a draw; entry ``key`` of a stream is the seed's sequence at
    spawn key ``(namespace, *key)``."""
    assert sorted(SEED_STREAMS.values()) == list(range(len(SEED_STREAMS)))
    for name, namespace in SEED_STREAMS.items():
        got = np.random.default_rng(_seed_stream(3, name, 8, 1)).random(4)
        want = np.random.SeedSequence(entropy=3, spawn_key=(namespace, 8, 1))
        assert got.tobytes() == np.random.default_rng(want).random(4).tobytes()
