import numpy as np
import pytest

from natstate import Grid, TimeFunction


@pytest.fixture
def grid():
    return Grid(0.05, -40, 40)  # window (-2, 2]


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture
def rough(grid, rng):
    """A generic nonsmooth probe with a nonzero tail."""
    return TimeFunction(grid, rng.standard_normal((grid.n, 1)),
                        np.array([0.7]))


@pytest.fixture
def gateaux_fd():
    """Central-difference directional derivative of ``system`` at ``u``
    along ``v``: a finite-difference oracle for the analytic differentials."""
    def fd(system, u, v, h=1e-4):
        return (system.apply(u + h * v) - system.apply(u - h * v)) * (0.5 / h)
    return fd
