"""Exact linear algebra over the rationals and the integer lattice.

Everything in this module is exact: rational entries are `fractions.Fraction`,
integer entries are Python ints.  Linear systems, ranks and determinants go
through one fraction-free elimination on integers (Bareiss, Math. Comp. 22,
1968): a row with rational entries is first scaled by the lcm of its
denominators, and Fractions are built only for the answer.  The kernel line
of each constraint subset in `rays_from_vertices`, the one rule by which a
region's rays are read from its vertices, comes from the same elimination.
Saturated integer kernels go through one column Hermite normal form, in the
convention of sympy's `hermite_normal_form` (pivots from the bottom row up,
placed in the rightmost columns, positive, with the entries to their right
reduced into [0, pivot)).  Intended for desk-scale problems (dimension up to
~6, a few dozen constraints); no effort is made to scale beyond that.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import chain, combinations
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


def common_denominator(values):
    """Rationals as integer numerators over their least common denominator.

    Returns (numerators, d) with values[i] = numerators[i] / d and d > 0.
    """
    values = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in values]
    d = 1
    for v in values:
        q = v.denominator
        if q != 1:
            d = d * q // gcd(d, q)
    return [v.numerator * (d // v.denominator) for v in values], d


def _integer_rows(rows):
    """Each row as a list of ints, scaled by the lcm of its entries' denominators.

    Returns (rows, scale) with scale the product of the row factors, so that
    the determinant of a square input is that of the integer rows over scale.
    """
    out, scale = [], 1
    for row in rows:
        row, d = common_denominator(row)
        out.append(row)
        scale *= d
    return out, scale


def _bareiss(mat):
    """Fraction-free Gaussian elimination (Bareiss 1968) of integer rows, in place.

    A row holding the first nonzero entry of a column is swapped up to become
    the pivot row.  Afterwards the first rank rows are in echelon form and the
    others are zero; the pivot of row i is the (i+1)-minor of the permuted
    input on the rows up to i and the pivot columns up to i, so the last pivot
    is that of the full pivot block and every division below is exact.
    Returns (pivot columns, sign of the row permutation).
    """
    m = len(mat)
    pivots, sign, prev = [], 1, 1
    for col in range(len(mat[0]) if mat else 0):
        r = len(pivots)
        if r == m:
            break
        piv = next((i for i in range(r, m) if mat[i][col]), None)
        if piv is None:
            continue
        if piv != r:
            mat[r], mat[piv] = mat[piv], mat[r]
            sign = -sign
        top = mat[r]
        p = top[col]
        for i in range(r + 1, m):
            row = mat[i]
            a = row[col]
            row[col] = 0
            for j in range(col + 1, len(row)):
                row[j] = (p * row[j] - a * top[j]) // prev
        prev = p
        pivots.append(col)
    return pivots, sign


def _back_substitute(mat, pivots, rhs):
    """Numerators of the pivot variables of an echelon system, free ones zero.

    ``rhs[i]`` is the right-hand side of echelon row i.  Returns
    (numerators by pivot, denominator) with x[pivots[i]] = numerators[i] /
    denominator; the denominator is the last pivot, so every division is exact
    (Cramer's rule on the pivot block).
    """
    den = mat[len(pivots) - 1][pivots[-1]] if pivots else 1
    nums = [0] * len(pivots)
    for i in reversed(range(len(pivots))):
        row = mat[i]
        acc = den * rhs[i]
        for j in range(i + 1, len(pivots)):
            acc -= row[pivots[j]] * nums[j]
        nums[i] = acc // row[pivots[i]]
    return nums, den


def _solve_augmented(mat, n):
    """Eliminate the integer rows [A | b] in place and solve A x = b, free variables zero.

    Returns (pivot columns, numerators, denominator) with x[pivots[i]] =
    numerators[i] / denominator, or None when the system is inconsistent.
    """
    pivots, _ = _bareiss(mat)
    if n in pivots:
        return None
    nums, den = _back_substitute(mat, pivots, [row[n] for row in mat])
    return pivots, nums, den


def solve_integer(rows, rhs):
    """Solve the square integer system rows @ x = rhs without fractions.

    Returns (numerators, denominator) with x = numerators / denominator and
    denominator = |det rows| > 0 (not reduced), or None if the matrix is
    singular.
    """
    n = len(rows)
    sol = _solve_augmented([list(row) + [b] for row, b in zip(rows, rhs)], n)
    if sol is None or len(sol[0]) != n:
        return None
    _, nums, den = sol
    if den < 0:
        return tuple(-v for v in nums), -den
    return tuple(nums), den


def rank(rows):
    """Rank of a rational matrix, exact."""
    mat, _ = _integer_rows(rows)
    return len(_bareiss(mat)[0])


def determinant(rows):
    """Exact determinant of a square rational matrix, as a Fraction."""
    mat, scale = _integer_rows(rows)
    pivots, sign = _bareiss(mat)
    if len(pivots) != len(mat):
        return Fraction(0)
    return Fraction(sign * mat[-1][pivots[-1]], scale) if mat else Fraction(1)


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


def _kernel_line(rows, n):
    """Generator of the lattice {u in Z^n : rows @ u = 0} when it has rank one, else None.

    One elimination: the kernel vector has the last pivot at the free column
    and the back-substituted numerators at the pivot columns.  It is returned
    primitive with its last nonzero entry positive, which is the generator
    ``integer_kernel`` gives for a line.
    """
    mat = [list(row) for row in rows]
    pivots, _ = _bareiss(mat)
    if len(pivots) != n - 1:
        return None
    free = next(j for j, col in enumerate(pivots + [n]) if j != col)
    nums, den = _back_substitute(mat, pivots, [-row[free] for row in mat])
    u = [0] * n
    u[free] = den
    for col, v in zip(pivots, nums):
        u[col] = v
    g, _ = primitivize(u)
    return g if next(v for v in reversed(g) if v) > 0 else tuple(-v for v in g)


def rays_from_vertices(normals, tight_sets, n):
    """The extreme rays of a pointed region, sorted, from its vertices' tight sets.

    ``tight_sets`` holds, for each vertex of the region {x : normals @ x +
    offsets >= 0}, the positions of the constraints tight there.  The extreme
    rays of a pointed region are the directions of its unbounded edges
    (Ziegler, Lectures on Polytopes, Lecture 2; Schrijver 1986, 8.9), and an
    edge's line is cut out by n-1 of its tight normals of rank n-1.  So the
    rays are read from the (n-1)-subsets of the tight sets: a subset seen at
    two vertices holds a bounded edge or no edge and is skipped; for a
    subset seen at one vertex only whose normals have a kernel line g, each
    of g and -g is a ray when every normal is >= 0 on it.  A region whose
    vertices are all simple has a kernel line only at its unbounded edges.
    Returns the primitive rays, deduplicated and sorted; none when the region
    is bounded or a point (n = 0).
    """
    if n == 0:
        return []
    seen = Counter(chain.from_iterable(combinations(tight, n - 1) for tight in tight_sets))
    rays = set()
    for edge in (edge for edge, count in seen.items() if count == 1):
        g = _kernel_line([normals[i] for i in edge], n)
        if g is None:
            continue
        for cand in (g, tuple(-v for v in g)):
            if all(sum(a * u for a, u in zip(row, cand)) >= 0 for row in normals):
                rays.add(cand)
    return sorted(rays)
