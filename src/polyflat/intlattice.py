"""Exact linear algebra over the rationals and the integer lattice.

Everything in this module is exact: rational entries are `fractions.Fraction`,
integer entries are Python ints.  Rational systems go through one Gauss-Jordan
elimination; integer kernels through one column Hermite normal form, in the
convention of sympy's `hermite_normal_form` (pivots from the bottom row up,
placed in the rightmost columns, positive, with the entries to their right
reduced into [0, pivot)).  Intended for desk-scale problems (dimension up to
~6, a few dozen constraints); no effort is made to scale beyond that.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd

from .errors import InvalidInputError


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


def _rref(rows):
    """Gauss-Jordan elimination of a rational matrix.

    Returns (reduced rows, pivot column of each nonzero row, determinant); the
    rows are lists of Fractions, and the determinant is that of rows when they
    form a square matrix (zero when it is singular).
    """
    mat = [[Fraction(v) for v in row] for row in rows]
    m = len(mat)
    pivots, det = [], Fraction(1)
    for col in range(len(mat[0]) if mat else 0):
        r = len(pivots)
        piv = next((i for i in range(r, m) if mat[i][col] != 0), None)
        if piv is None:
            continue
        if piv != r:
            mat[r], mat[piv] = mat[piv], mat[r]
            det = -det
        p = mat[r][col]
        det *= p
        mat[r] = [a / p for a in mat[r]]
        for i in range(m):
            if i != r and mat[i][col] != 0:
                factor = mat[i][col]
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
    return mat, pivots, det if len(pivots) == m else Fraction(0)


def solve_square(rows, rhs):
    """Solve the square rational system rows @ x = rhs exactly.

    Returns a tuple of Fractions, or None if the matrix is singular.
    """
    n = len(rows)
    mat, pivots, _ = _rref([list(row) + [b] for row, b in zip(rows, rhs)])
    if pivots != list(range(n)):
        return None
    return tuple(row[n] for row in mat)


def solve_particular(rows, rhs):
    """One exact solution of an (under)determined rational system, or None.

    Free variables are set to zero.  rows is a list of length-n sequences.
    """
    if not rows:
        return None
    n = len(rows[0])
    mat, pivots, _ = _rref([list(row) + [b] for row, b in zip(rows, rhs)])
    if n in pivots:
        return None  # inconsistent
    x = [Fraction(0)] * n
    for row, col in zip(mat, pivots):
        x[col] = row[n]
    return tuple(x)


def rank(rows):
    """Rank of a rational matrix, exact."""
    return len(_rref(rows)[1])


def determinant(rows):
    """Exact determinant of a square rational matrix."""
    return _rref(rows)[2]


def _gcdex(a, b):
    """(x, y, g) with x*a + y*b = g = gcd(a, b) >= 0, and y = 0 when a divides b."""
    if a and b % a == 0:
        return (1 if a > 0 else -1), 0, abs(a)
    x, y, x1, y1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        x, x1 = x1, x - q * x1
        y, y1 = y1, y - q * y1
    return (-x, -y, -a) if a < 0 else (x, y, a)


def _column_hnf(cols):
    """Column Hermite normal form of an integer matrix given by its columns.

    Cohen's extended-gcd reduction (Algorithm 2.4.5), with sympy's
    convention: rows are taken from the bottom up, each pivot goes to the
    rightmost free column and is positive, and the entries right of a pivot
    are reduced into [0, pivot).  Returns the pivot columns, left to right.
    """
    cols = [list(c) for c in cols]
    k = len(cols)
    for i in reversed(range(len(cols[0]) if cols else 0)):
        if k == 0:
            break
        k -= 1
        for j in range(k - 1, -1, -1):
            if cols[j][i]:
                u, v, d = _gcdex(cols[k][i], cols[j][i])
                r, s = cols[k][i] // d, cols[j][i] // d
                cols[k], cols[j] = (
                    [u * a + v * b for a, b in zip(cols[k], cols[j])],
                    [r * b - s * a for a, b in zip(cols[k], cols[j])],
                )
        p = cols[k][i]
        if p < 0:
            cols[k] = [-a for a in cols[k]]
            p = -p
        if p == 0:
            k += 1
            continue
        for j in range(k + 1, len(cols)):
            q = cols[j][i] // p
            if q:
                cols[j] = [a - q * b for a, b in zip(cols[j], cols[k])]
    return cols[k:]


def integer_kernel(rows, n):
    """Canonical basis of the lattice {u in Z^n : rows @ u = 0}.

    Returns a list of basis columns (tuples of ints).  The basis spans the
    saturated kernel lattice, so it always extends to a Z-basis of Z^n, and it
    is canonicalized by the Hermite normal form of the column span, making the
    result independent of the row order of `rows`.

    The column Hermite form of the stacked matrix [I_n; rows] puts its pivots
    in the rows of `rows` first, so its left n - rank columns vanish there;
    they are a unimodular image of I_n, hence span the saturated kernel, and
    their top n rows end up in Hermite normal form.
    """
    cols = [[int(i == j) for i in range(n)] + [int(row[j]) for row in rows] for j in range(n)]
    return [tuple(c[:n]) for c in _column_hnf(cols) if not any(c[n:])]


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
    system = [([Fraction(v) for v in coeffs], Fraction(off)) for coeffs, off in constraints]
    return _fm_solve(system, n)


def _fm_solve(system, n):
    for coeffs, off in system:
        if all(c == 0 for c in coeffs) and off <= 0:
            return None
    if n == 0:
        return ()
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
