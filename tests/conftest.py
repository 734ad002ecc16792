import numpy as np
import pytest

from fracnls import (
    Field,
    Potential,
    make_grid,
    make_problem,
    power_nonlinearity,
)
from fracnls.verify import random_field

# well potential used throughout: even, nondecreasing in |t|, strictly
# below its limit 2 everywhere
WELL_EXPR = "2.0 - 1.0/(1.0 + t**2)"


def positive_field(grid, rng, band_fraction=0.25):
    u = random_field(grid, rng, band_fraction)
    if not np.any(u.values > 0.0):
        u = Field(grid, -u.values)
    return u


@pytest.fixture(scope="session")
def grid512():
    return make_grid(20.0, 512)


@pytest.fixture(scope="session")
def grid_canonical():
    return make_grid(20.0, 1024)


@pytest.fixture(scope="session")
def cubic():
    return power_nonlinearity(3.0)


@pytest.fixture(scope="session")
def flat_potential():
    return Potential.constant(1.0)


@pytest.fixture(scope="session")
def well_potential():
    return Potential.from_expr(WELL_EXPR, V0=1.0, V_inf=2.0,
                               radial_increasing=True, below_Vinf=True)


@pytest.fixture(scope="session")
def prob512(grid512, cubic, flat_potential):
    return make_problem(grid512, 0.75, cubic, flat_potential)


@pytest.fixture(scope="session")
def prob_canonical(grid_canonical, cubic, flat_potential):
    return make_problem(grid_canonical, 0.75, cubic, flat_potential)


@pytest.fixture(scope="session")
def prob_well(grid512, cubic, well_potential):
    return make_problem(grid512, 0.75, cubic, well_potential)
