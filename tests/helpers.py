"""Shared test utilities: finite-difference oracles and lattice transforms."""

from fractions import Fraction

import numpy as np

from polyflat.errors import InvalidInputError
from polyflat.intlattice import solve_square


def fd_gradient(f, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2 * h)
    return g


def fd_jacobian(f, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    f0 = np.asarray(f(x), dtype=float)
    J = np.empty((len(f0), len(x)))
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = h
        J[:, i] = (np.asarray(f(x + e)) - np.asarray(f(x - e))) / (2 * h)
    return J


def invert_unimodular(rows):
    """Inverse of a unimodular integer matrix, as integer rows."""
    n = len(rows)
    inv = []
    for j in range(n):
        e = [Fraction(1) if i == j else Fraction(0) for i in range(n)]
        col = solve_square(rows, e)
        if col is None:
            raise InvalidInputError("matrix is singular")
        inv.append(col)
    # columns of the solves are the columns of the inverse
    out = [[inv[j][i] for j in range(n)] for i in range(n)]
    if any(v.denominator != 1 for row in out for v in row):
        raise InvalidInputError("matrix is not unimodular")
    return [[int(v) for v in row] for row in out]


def random_unimodular(rng, n):
    """Random element of GL(n, Z) as a product of elementary shears and swaps."""
    M = np.eye(n, dtype=object)
    for _ in range(3 * n):
        kind = rng.integers(3)
        i, j = rng.choice(n, size=2, replace=False) if n > 1 else (0, 0)
        if kind == 0 and n > 1:
            shear = np.eye(n, dtype=object)
            shear[i, j] = int(rng.integers(-2, 3))
            M = M @ shear
        elif kind == 1 and n > 1:
            perm = np.eye(n, dtype=object)
            perm[[i, j]] = perm[[j, i]]
            M = M @ perm
        else:
            flip = np.eye(n, dtype=object)
            flip[i, i] = -1
            M = M @ flip
    return [[int(v) for v in row] for row in M]


def transform_polytope(P, M, t):
    """Image of P under xi -> M xi + t (M unimodular, t rational)."""
    from polyflat.polytope import HalfSpace, Polytope

    n = P.dim
    Minv = invert_unimodular(M)
    halfspaces = []
    for hs in P.halfspaces:
        # new normal is M^-T nu; new offset keeps l'(M xi + t) = l(xi)
        nu = tuple(
            sum(Minv[i][k] * hs.normal[i] for i in range(n)) for k in range(n)
        )
        offset = hs.offset - sum(Fraction(nu[k]) * Fraction(t[k]) for k in range(n))
        halfspaces.append(HalfSpace(normal=nu, offset=offset))
    return Polytope(dim=n, halfspaces=tuple(halfspaces), bounded=P.bounded)
