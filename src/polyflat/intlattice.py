"""Exact linear algebra over the rationals and the integer lattice.

Everything in this module is exact: rational entries are `fractions.Fraction`,
integer entries are Python ints.  Intended for desk-scale problems (dimension
up to ~6, a few dozen constraints); no effort is made to scale beyond that.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd

from sympy import Matrix
from sympy.matrices.normalforms import hermite_normal_form, smith_normal_form
from sympy.polys.matrices.normalforms import smith_normal_decomp
from sympy.polys.domains import ZZ
from sympy.polys.matrices import DomainMatrix

from .errors import InvalidInputError

Vec = tuple[Fraction, ...]


def primitivize(vec):
    """Divide an integer vector by the gcd of its entries (sign preserved).

    Returns (primitive_vector, g) with vec = g * primitive_vector and g > 0.
    """
    g = 0
    for v in vec:
        g = gcd(g, abs(int(v)))
    if g == 0:
        raise InvalidInputError("cannot primitivize the zero vector")
    return tuple(int(v) // g for v in vec), g


def solve_square(rows, rhs):
    """Solve the square rational system rows @ x = rhs exactly.

    Returns a tuple of Fractions, or None if the matrix is singular.
    """
    n = len(rows)
    aug = [[Fraction(rows[i][j]) for j in range(n)] + [Fraction(rhs[i])] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [a * inv for a in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return tuple(aug[i][n] for i in range(n))


def solve_particular(rows, rhs):
    """One exact solution of an (under)determined rational system, or None.

    Free variables are set to zero.  rows is a list of length-n sequences.
    """
    if not rows:
        return None
    m, n = len(rows), len(rows[0])
    aug = [[Fraction(rows[i][j]) for j in range(n)] + [Fraction(rhs[i])] for i in range(m)]
    pivots = []
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, m) if aug[i][col] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = 1 / aug[r][col]
        aug[r] = [a * inv for a in aug[r]]
        for i in range(m):
            if i != r and aug[i][col] != 0:
                factor = aug[i][col]
                aug[i] = [a - factor * b for a, b in zip(aug[i], aug[r])]
        pivots.append(col)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if aug[i][n] != 0:
            return None  # inconsistent
    x = [Fraction(0)] * n
    for i, col in enumerate(pivots):
        x[col] = aug[i][n]
    return tuple(x)


def rank(rows):
    """Rank of a rational matrix, exact."""
    if not rows:
        return 0
    m, n = len(rows), len(rows[0])
    mat = [[Fraction(v) for v in row] for row in rows]
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, m) if mat[i][col] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        for i in range(r + 1, m):
            if mat[i][col] != 0:
                factor = mat[i][col] / mat[r][col]
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[r])]
        r += 1
        if r == m:
            break
    return r


def determinant(rows):
    """Exact determinant of a square rational matrix."""
    n = len(rows)
    mat = [[Fraction(v) for v in row] for row in rows]
    det = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if mat[i][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            mat[col], mat[piv] = mat[piv], mat[col]
            det = -det
        det *= mat[col][col]
        for i in range(col + 1, n):
            if mat[i][col] != 0:
                factor = mat[i][col] / mat[col][col]
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[col])]
    return det


def integer_kernel(rows, n):
    """Canonical basis of the lattice {u in Z^n : rows @ u = 0}.

    Returns a list of basis columns (tuples of ints).  The basis spans the
    saturated kernel lattice, so it always extends to a Z-basis of Z^n, and it
    is canonicalized by the Hermite normal form of the column span, making the
    result independent of the row order of `rows`.
    """
    if not rows:
        return [tuple(1 if i == j else 0 for i in range(n)) for j in range(n)]
    A = Matrix([[int(v) for v in row] for row in rows])
    snf, _, t = smith_normal_decomp(DomainMatrix.from_Matrix(A).convert_to(ZZ))
    snf, t = snf.to_Matrix(), t.to_Matrix()
    ker_cols = [j for j in range(t.cols) if all(snf[i, j] == 0 for i in range(snf.rows))]
    if not ker_cols:
        return []
    K = hermite_normal_form(t[:, ker_cols])
    return [tuple(int(K[i, j]) for i in range(n)) for j in range(K.cols)]


def snf_diagonal(columns, n):
    """Elementary divisors (Smith normal form diagonal) of an n-row integer matrix."""
    if not columns:
        return []
    A = Matrix([[int(columns[j][i]) for j in range(len(columns))] for i in range(n)])
    S = smith_normal_form(A)
    return [int(S[i, i]) for i in range(min(S.rows, S.cols))]


def cone_rays(normals, n):
    """Nonzero directions certifying that {u : normals @ u >= 0} != {0}.

    Returns a list of integer generators: a basis of the lineality space when
    the normal matrix is rank deficient, otherwise the extreme rays found by
    enumerating (n-1)-subsets of tight constraints.  Empty list means the cone
    is trivial, i.e. the polyhedron with these facet normals is bounded.
    """
    if n == 0:
        return []
    lineality = integer_kernel(normals, n)
    if lineality:
        return [s for g in lineality for s in (g, tuple(-v for v in g))]
    rays = []
    seen = set()
    subsets = combinations(range(len(normals)), n - 1) if n > 1 else [()]
    for sub in subsets:
        gens = integer_kernel([normals[i] for i in sub], n)
        if len(gens) != 1:
            continue
        g = gens[0]
        for cand in (g, tuple(-v for v in g)):
            if cand in seen:
                continue
            seen.add(cand)
            if all(sum(a * u for a, u in zip(row, cand)) >= 0 for row in normals):
                rays.append(cand)
    return rays


def strict_interior_point(constraints, n):
    """Exact rational point with a·x + c > 0 for every (a, c) constraint.

    Uses Fourier-Motzkin elimination; `constraints` is a list of pairs
    (coefficients, offset) with rational entries.  Returns None when the open
    region is empty.  Exponential in n, fine at desk scale.
    """
    if n == 0:
        for coeffs, off in constraints:
            if Fraction(off) <= 0:
                return None
        return ()
    system = [([Fraction(v) for v in coeffs], Fraction(off)) for coeffs, off in constraints]
    return _fm_solve(system, n)


def _fm_solve(system, n):
    for coeffs, off in system:
        if all(c == 0 for c in coeffs) and off <= 0:
            return None
    if n == 1:
        lo, hi = None, None
        for coeffs, off in system:
            a = coeffs[0]
            if a > 0:
                bound = -off / a
                lo = bound if lo is None else max(lo, bound)
            elif a < 0:
                bound = -off / a
                hi = bound if hi is None else min(hi, bound)
        if lo is not None and hi is not None:
            if lo >= hi:
                return None
            return ((lo + hi) / 2,)
        if lo is not None:
            return (lo + 1,)
        if hi is not None:
            return (hi - 1,)
        return (Fraction(0),)
    # eliminate the last variable
    lowers, uppers, rest = [], [], []
    for coeffs, off in system:
        a = coeffs[-1]
        if a > 0:
            lowers.append(([c / a for c in coeffs[:-1]], off / a))
        elif a < 0:
            uppers.append(([c / -a for c in coeffs[:-1]], off / -a))
        else:
            rest.append((coeffs[:-1], off))
    reduced = list(rest)
    for lc, lo in lowers:
        for uc, uo in uppers:
            # upper bound uc·x'+uo must exceed lower bound -(lc·x'+lo)
            reduced.append(([u + l for u, l in zip(uc, lc)], uo + lo))
    partial = _fm_solve(reduced, n - 1)
    if partial is None:
        return None
    lo, hi = None, None
    for lc, loff in lowers:
        bound = -(sum(c * x for c, x in zip(lc, partial)) + loff)
        lo = bound if lo is None else max(lo, bound)
    for uc, uoff in uppers:
        bound = sum(c * x for c, x in zip(uc, partial)) + uoff
        hi = bound if hi is None else min(hi, bound)
    if lo is not None and hi is not None:
        if lo >= hi:
            return None
        last = (lo + hi) / 2
    elif lo is not None:
        last = lo + 1
    elif hi is not None:
        last = hi - 1
    else:
        last = Fraction(0)
    return partial + (last,)
