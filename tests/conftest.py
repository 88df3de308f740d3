import contextlib
import warnings

import numpy as np
import pytest

# When a @given test fails, hypothesis imports its patch writer, whose libcst
# import raises a DeprecationWarning from mypy_extensions. Under the "error"
# warning filter that ends the session with INTERNALERROR, hiding every later
# result, so import it here with warnings ignored; other warnings stay errors.
# Without libcst hypothesis skips the patch, as it does here.
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore")
    import hypothesis.extra._patching  # noqa: F401

from pumpsched import (
    NetworkTopology,
    PumpStationSpec,
    TankSpec,
    TariffSchedule,
    DemandZoneSpec,
    generate_synthetic_network,
)
from pumpsched.network import STEPS_PER_DAY


@pytest.fixture(scope="session")
def world():
    """Default synthetic network used by most integration-level tests."""
    return generate_synthetic_network(seed=0)


@pytest.fixture(scope="session")
def tiny_world():
    """Two tanks, two stations, two zones, hand-sized for exact arithmetic.

    Station s1 fills t1 from an external source; s2 draws t1 and fills t2.
    """
    tariff = TariffSchedule(values=tuple([0.1] * 48 + [0.2] * 48))
    return NetworkTopology(
        tanks=(
            TankSpec(
                id="t1",
                surface_area=1000.0,
                level_max_physical=8.0,
                lower_bound=2.0,
                upper_bound=6.0,
                initial_level=4.0,
            ),
            TankSpec(
                id="t2",
                surface_area=500.0,
                level_max_physical=8.0,
                lower_bound=2.0,
                upper_bound=6.0,
                initial_level=4.0,
            ),
        ),
        stations=(
            PumpStationSpec(
                id="s1", max_flow=400.0, rated_power=200.0, fills=(("t1", 1.0),)
            ),
            PumpStationSpec(
                id="s2",
                max_flow=200.0,
                rated_power=80.0,
                fills=(("t2", 1.0),),
                draws_from="t1",
            ),
        ),
        zones=(
            DemandZoneSpec(
                id="z1",
                served_by="t1",
                base_demand=50.0,
                morning_peak=0.5,
                evening_peak=0.8,
                noise_scale=0.1,
            ),
            DemandZoneSpec(
                id="z2",
                served_by="t2",
                base_demand=40.0,
                morning_peak=0.5,
                evening_peak=0.8,
                noise_scale=0.1,
            ),
        ),
        tariff=tariff,
    )


def flat_demands(topology: NetworkTopology, value: float) -> np.ndarray:
    return np.full((topology.n_zones, STEPS_PER_DAY), float(value))


@pytest.fixture
def zero_demands(tiny_world):
    return flat_demands(tiny_world, 0.0)
