from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Matrix
from sympy.matrices.normalforms import hermite_normal_form, smith_normal_form
from sympy.polys.domains import QQ, ZZ
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.normalforms import smith_normal_decomp

from helpers import cut_polyhedra, invert_unimodular, reference_cone_rays, square_pyramid
from polyflat import intlattice
from polyflat.errors import DegenerateError, InvalidInputError
from polyflat.polytope import Polytope, halfspace, is_bounded


def test_primitivize():
    assert intlattice.primitivize((2, 4, -6)) == ((1, 2, -3), 2)
    assert intlattice.primitivize((0, -3)) == ((0, -1), 3)
    with pytest.raises(InvalidInputError):
        intlattice.primitivize((0, 0))


def test_solve_integer_exact():
    assert intlattice.solve_integer([[2, 1], [1, 3]], [1, 0]) == ((3, -1), 5)
    assert intlattice.solve_integer([[1, 2], [2, 4]], [1, 2]) is None


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


def sympy_kernel(rows, n):
    """Saturated kernel basis from sympy's Smith decomposition, in Hermite normal form."""
    if not rows:
        return [tuple(int(i == j) for i in range(n)) for j in range(n)]
    A = DomainMatrix.from_Matrix(Matrix(rows)).convert_to(ZZ)
    snf, _, t = smith_normal_decomp(A)
    snf, t = snf.to_Matrix(), t.to_Matrix()
    ker_cols = [j for j in range(n) if not any(snf[:, j])]
    if not ker_cols:
        return []
    K = hermite_normal_form(t[:, ker_cols])
    return [tuple(int(K[i, j]) for i in range(n)) for j in range(K.cols)]


@st.composite
def int_matrices(draw):
    """(rows, n): m <= n + 2 integer rows, some repeating or scaling earlier ones."""
    n = draw(st.integers(1, 6))
    rows = []
    for _ in range(draw(st.integers(0, n + 2))):
        if rows and draw(st.booleans()):
            base = draw(st.sampled_from(rows))
            rows.append(tuple(draw(st.integers(-2, 2)) * v for v in base))
        else:
            rows.append(tuple(draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))))
    return rows, n


@settings(max_examples=200, deadline=None)
@given(int_matrices())
def test_exact_layer_matches_sympy(matrix):
    rows, n = matrix
    assert intlattice.integer_kernel(rows, n) == sympy_kernel(rows, n)
    assert intlattice.rank(rows) == Matrix(len(rows), n, [v for row in rows for v in row]).rank()
    k = min(len(rows), n)
    square = [row[:k] for row in rows[:k]]
    assert intlattice.determinant(square) == Matrix(k, k, [v for row in square for v in row]).det()


RATIONALS = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))


@st.composite
def rational_systems(draw):
    """(rows, rhs, n): m <= n + 2 rational rows, some repeating or scaling earlier ones."""
    n = draw(st.integers(1, 5))
    rows = []
    for _ in range(draw(st.integers(1, n + 2))):
        if rows and draw(st.booleans()):
            base = draw(st.sampled_from(rows))
            rows.append([draw(RATIONALS) * v for v in base])
        else:
            rows.append(draw(st.lists(RATIONALS, min_size=n, max_size=n)))
    return rows, draw(st.lists(RATIONALS, min_size=len(rows), max_size=len(rows))), n


def qq_matrix(rows):
    """sympy DomainMatrix over QQ of Fraction rows."""
    entries = [[QQ(v.numerator, v.denominator) for v in row] for row in rows]
    return DomainMatrix(entries, (len(rows), len(rows[0])), QQ)


def sympy_particular(rows, rhs):
    """Solution of rows @ x = rhs from sympy's rref with the free variables zero, or None."""
    n = len(rows[0])
    reduced, pivots = qq_matrix([list(row) + [b] for row, b in zip(rows, rhs)]).rref()
    if n in pivots:
        return None  # inconsistent
    x = [Fraction(0)] * n
    for i, col in enumerate(pivots):
        v = reduced[i, n].element
        x[col] = Fraction(int(v.numerator), int(v.denominator))
    return tuple(x)


@settings(max_examples=200, deadline=None)
@given(rational_systems())
def test_rational_elimination_matches_sympy(system):
    rows, rhs, n = system
    assert intlattice.rank(rows) == qq_matrix(rows).rank()
    k = min(len(rows), n)
    square, b = [row[:k] for row in rows[:k]], rhs[:k]
    det = intlattice.determinant(square)
    assert isinstance(det, Fraction) and det == qq_matrix(square).det()
    scaled = [intlattice.common_denominator(row + [v])[0] for row, v in zip(square, b)]
    sol = intlattice.solve_integer([row[:k] for row in scaled], [row[k] for row in scaled])
    if det == 0:
        assert sol is None
    else:
        nums, den = sol
        assert den == abs(Matrix([row[:k] for row in scaled]).det())
        x = tuple(Fraction(v, den) for v in nums)
        assert x == sympy_particular(square, b)


@settings(max_examples=100, deadline=None)
@given(cut_polyhedra(simple=False))
def test_rays_match_reference(P):
    # the simple cases are in test_polytope; one rule reads both
    normals = [hs.normal for hs in P.halfspaces]
    assert P.rays == tuple(sorted(reference_cone_rays(normals, P.dim)))
    assert P.bounded == is_bounded(P) == (not P.rays)


def test_singular_and_inconsistent_systems():
    assert intlattice.solve_integer([[1, 2], [2, 4]], [1, 2]) is None
    assert intlattice.determinant([[Fraction(1, 2), Fraction(1, 3)], [1, 1]]) == Fraction(1, 6)
    assert intlattice.rank([[Fraction(1, 2), 1], [1, 2], [0, Fraction(5, 7)]]) == 2


def test_common_denominator():
    assert intlattice.common_denominator([Fraction(1, 2), 3, Fraction(-2, 3)]) == ([3, 18, -4], 6)
    assert intlattice.common_denominator([]) == ([], 1)


def test_integer_kernel_canonical_under_row_order():
    rows = [(1, 2, 3), (0, 1, 1)]
    assert intlattice.integer_kernel(rows, 3) == intlattice.integer_kernel(rows[::-1], 3)


def _region(*halfspaces):
    return Polytope(dim=len(halfspaces[0][0]), halfspaces=tuple(halfspace(v, c) for v, c in halfspaces))


def test_rays_bounded_cases():
    # triangle normals positively span the plane: no ray
    assert _region(((1, 0), 0), ((0, 1), 0), ((-1, -1), 1)).rays == ()
    assert _region(((1, 0), 0), ((-1, 0), 1), ((0, 1), 0), ((0, -1), 1)).rays == ()
    # the apex of the square pyramid lies on four facets
    assert square_pyramid().rays == ()
    assert Polytope(dim=0, halfspaces=()).rays == ()


def test_rays_unbounded_cases():
    assert _region(((1, 0), 0), ((0, 1), 0)).rays == ((0, 1), (1, 0))  # positive quadrant
    assert _region(((1,), 0),).rays == ((1,),)  # half-line in 1-d
    # a non-simple vertex: three half-planes through the origin, one redundant
    assert _region(((1, 0), 0), ((0, 1), 0), ((1, 1), 0)).rays == ((0, 1), (1, 0))
    # a single constraint in the plane has a line and no vertex
    with pytest.raises(DegenerateError, match="no vertex"):
        _region(((1, 0), 0),).rays


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
