from fractions import Fraction

import numpy as np
import pytest
from sympy import Matrix
from sympy.matrices.normalforms import smith_normal_form

from helpers import invert_unimodular
from polyflat import intlattice
from polyflat.errors import InvalidInputError


def test_primitivize():
    assert intlattice.primitivize((2, 4, -6)) == ((1, 2, -3), 2)
    assert intlattice.primitivize((0, -3)) == ((0, -1), 3)
    with pytest.raises(InvalidInputError):
        intlattice.primitivize((0, 0))


def test_solve_square_exact():
    x = intlattice.solve_square([[2, 1], [1, 3]], [Fraction(1), Fraction(0)])
    assert x == (Fraction(3, 5), Fraction(-1, 5))
    assert intlattice.solve_square([[1, 2], [2, 4]], [1, 2]) is None


def test_solve_particular_underdetermined():
    x = intlattice.solve_particular([[1, 1, 1]], [Fraction(1)])
    assert sum(x) == 1
    assert intlattice.solve_particular([[1, 0], [1, 0]], [0, 1]) is None


def test_determinant_and_rank():
    assert intlattice.determinant([[2, 1], [1, 1]]) == 1
    assert intlattice.determinant([[0, 1], [-1, -2]]) == 1
    assert intlattice.determinant([[1, 2], [2, 4]]) == 0
    assert intlattice.rank([[1, 2], [2, 4], [0, 1]]) == 2


def test_integer_kernel_is_saturated():
    rng = np.random.default_rng(7)
    for _ in range(25):
        m, n = rng.integers(1, 3), rng.integers(2, 5)
        rows = [tuple(int(v) for v in rng.integers(-3, 4, size=n)) for _ in range(m)]
        basis = intlattice.integer_kernel(rows, int(n))
        for col in basis:
            for row in rows:
                assert sum(a * b for a, b in zip(row, col)) == 0
        if basis:
            B = Matrix([[col[i] for col in basis] for i in range(n)])
            divisors = smith_normal_form(B)
            ds = [divisors[i, i] for i in range(min(divisors.rows, divisors.cols))]
            assert all(abs(d) == 1 for d in ds if d != 0)


def test_integer_kernel_canonical_under_row_order():
    rows = [(1, 2, 3), (0, 1, 1)]
    assert intlattice.integer_kernel(rows, 3) == intlattice.integer_kernel(rows[::-1], 3)


def test_cone_rays_bounded_cases():
    # triangle normals positively span the plane: trivial cone
    assert intlattice.cone_rays([(1, 0), (0, 1), (-1, -1)], 2) == []
    assert intlattice.cone_rays([(1, 0), (-1, 0), (0, 1), (0, -1)], 2) == []


def test_cone_rays_unbounded_cases():
    rays = intlattice.cone_rays([(1, 0), (0, 1)], 2)  # positive quadrant
    assert rays
    for ray in rays:
        assert ray[0] >= 0 and ray[1] >= 0
    # lineality: single constraint in the plane
    rays = intlattice.cone_rays([(1, 0)], 2)
    assert any(r[1] > 0 for r in rays) and any(r[1] < 0 for r in rays)
    # half-line in 1-d
    assert intlattice.cone_rays([(1,)], 1) == [(1,)]


def test_strict_interior_point_feasible():
    # open triangle
    pt = intlattice.strict_interior_point(
        [((1, 0), 0), ((0, 1), 0), ((-1, -1), 1)], 2
    )
    assert pt is not None
    assert pt[0] > 0 and pt[1] > 0 and pt[0] + pt[1] < 1
    # unbounded wedge
    pt = intlattice.strict_interior_point([((1, 1), 0), ((1, -1), 0)], 2)
    assert pt[0] + pt[1] > 0 and pt[0] - pt[1] > 0


def test_strict_interior_point_infeasible():
    assert intlattice.strict_interior_point([((1,), 0), ((-1,), 0)], 1) is None
    # contradictory constants
    assert intlattice.strict_interior_point([((0, 0), Fraction(-1)), ((1, 0), 5)], 2) is None


def test_invert_unimodular():
    M = [[2, 1], [1, 1]]
    Minv = invert_unimodular(M)
    prod = [
        [sum(M[i][k] * Minv[k][j] for k in range(2)) for j in range(2)]
        for i in range(2)
    ]
    assert prod == [[1, 0], [0, 1]]
    with pytest.raises(InvalidInputError):
        invert_unimodular([[2, 0], [0, 1]])
