import numpy as np
import pytest
from hypothesis import settings

from hypercell import direction as dn
from hypercell import geom

# A property test that takes this profile draws the same examples on every
# run, so a pass or a failure repeats; no example database is read or written.
settings.register_profile("deterministic", derandomize=True, deadline=None, max_examples=100, database=None)


@pytest.fixture
def square():
    return geom.Polytope([[-1, -1], [1, -1], [1, 1], [-1, 1]])


@pytest.fixture
def ball():
    return geom.Ball([0, 0], 1.0)


@pytest.fixture
def ball3():
    return geom.Ball([0, 0, 0], 1.0)


@pytest.fixture
def stadium():
    return geom.BallSum([[-1, 0], [1, 0]], 1.0)


@pytest.fixture
def cube():
    return geom.Polytope([[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)])


@pytest.fixture
def iso():
    return dn.Isotropic(2)


@pytest.fixture
def facet_atoms():
    return dn.Atomic.symmetrized([[1, 0], [0, 1]], [0.5, 0.5])


@pytest.fixture
def rng():
    return np.random.default_rng(20250811)
