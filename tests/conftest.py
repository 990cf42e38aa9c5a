import numpy as np
import pytest

from teichkit import BeltramiCoefficient, solve_disk, solve_plane

TEST_GRID_N = 512


def coefficient(f, n):
    """Coefficient of order n of the series f (0 when f has no such order)."""
    j = np.nonzero(f.orders == n)[0]
    return complex(f.coeffs[j[0]]) if j.size else 0.0


@pytest.fixture(scope="session")
def mu_03_05():
    return BeltramiCoefficient.constant_disk(0.3, 0.5)


@pytest.fixture(scope="session")
def plane_03_05(mu_03_05):
    """Plane solution for 0.3 chi_{0.5 D}; exact map (z + 0.075/z)/1.075 outside."""
    return solve_plane(mu_03_05, grid_n=TEST_GRID_N)


@pytest.fixture(scope="session")
def disk_03_05(mu_03_05):
    return solve_disk(mu_03_05, grid_n=TEST_GRID_N)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240811)
