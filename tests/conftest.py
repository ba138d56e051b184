import numpy as np
import pytest

from polyflat.polytope import Polytope, halfspace


@pytest.fixture
def triangle():
    """Standard 2-simplex: x1 >= 0, x2 >= 0, 1 - x1 - x2 >= 0."""
    return Polytope(
        dim=2,
        halfspaces=(halfspace((1, 0), 0), halfspace((0, 1), 0), halfspace((-1, -1), 1)),
    )


@pytest.fixture
def square():
    return Polytope(
        dim=2,
        halfspaces=(
            halfspace((1, 0), 0),
            halfspace((-1, 0), 1),
            halfspace((0, 1), 0),
            halfspace((0, -1), 1),
        ),
    )


@pytest.fixture
def simplex3():
    return Polytope(
        dim=3,
        halfspaces=(
            halfspace((1, 0, 0), 0),
            halfspace((0, 1, 0), 0),
            halfspace((0, 0, 1), 0),
            halfspace((-1, -1, -1), 1),
        ),
    )


@pytest.fixture
def trapezoid():
    """Delzant but not zero-sum (a Hirzebruch-surface moment image)."""
    return Polytope(
        dim=2,
        halfspaces=(
            halfspace((1, 0), 0),
            halfspace((0, 1), 0),
            halfspace((-1, -1), 2),
            halfspace((0, -1), 1),
        ),
    )


@pytest.fixture
def scaled_triangle():
    return Polytope(
        dim=2,
        halfspaces=(halfspace((1, 0), 0), halfspace((0, 1), 0), halfspace((-1, -1), 2)),
    )


@pytest.fixture
def half_line():
    return Polytope(dim=1, halfspaces=(halfspace((1,), 0),))


@pytest.fixture
def interval():
    return Polytope(dim=1, halfspaces=(halfspace((1,), 0), halfspace((-1,), 1)))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
