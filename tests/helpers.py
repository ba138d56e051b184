"""Shared test utilities: finite-difference oracles, lattice transforms and
random Delzant polytopes with potentials."""

from fractions import Fraction
from itertools import combinations

import numpy as np
from hypothesis import strategies as st

from polyflat.errors import InvalidInputError
from polyflat.intlattice import integer_kernel, primitivize, solve_integer
from polyflat.polynomial import Polynomial
from polyflat.polytope import HalfSpace, Polytope, _drop_redundant, halfspace, product
from polyflat.potential import SymplecticPotential, guillemin
from polyflat.verify import DEFAULT_TOLERANCES


def continuity_passes(gaps, tolerance=DEFAULT_TOLERANCES["continuity_gap"]):
    """The rule verify-all judges continuity gaps by, one bool per row of gaps.

    A pair passes when its last gap is within tolerance and its last four
    gaps strictly decrease.
    """
    gaps = np.atleast_2d(gaps)
    tail = gaps[:, -4:]
    return (gaps[:, -1] <= tolerance) & np.all(tail[:, :-1] > tail[:, 1:], axis=1)


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
        sol = solve_integer(rows, [int(i == j) for i in range(n)])
        if sol is None:
            raise InvalidInputError("matrix is singular")
        nums, den = sol
        if any(v % den for v in nums):
            raise InvalidInputError("matrix is not unimodular")
        inv.append([v // den for v in nums])
    # columns of the solves are the columns of the inverse
    return [[inv[j][i] for j in range(n)] for i in range(n)]


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
    return Polytope(dim=n, halfspaces=tuple(halfspaces))


def simplex(d):
    halfspaces = [halfspace(tuple(int(i == j) for i in range(d)), 0) for j in range(d)]
    halfspaces.append(halfspace((-1,) * d, 1))
    return Polytope(dim=d, halfspaces=tuple(halfspaces))


@st.composite
def delzant_products(draw):
    """(P, rng): a product of simplices under a seeded lattice automorphism."""
    dims = draw(st.lists(st.integers(1, 2), min_size=1, max_size=2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    P = simplex(dims[0])
    for d in dims[1:]:
        P = product(P, simplex(d))
    shift = [int(v) for v in rng.integers(-2, 3, size=P.dim)]
    return transform_polytope(P, random_unimodular(rng, P.dim), shift), rng


def potential(P, rng):
    """Guillemin potential of P at a random scale, with a convex correction half the time."""
    phi = guillemin(P, float(rng.uniform(0.25, 2.0)))
    if rng.random() < 0.5:
        return phi
    n = P.dim
    terms = [(tuple(2 * int(i == j) for i in range(n)), 0.3) for j in range(n)]
    # 0.3 sum x_j^2 + c x_1 x_2 is convex exactly when |c| <= 0.6
    terms.append((tuple(int(i < 2) for i in range(n)), float(rng.uniform(-0.6, 0.6))))
    return SymplecticPotential(
        dim=n, scale=phi.scale, log_terms=phi.log_terms,
        correction=Polynomial.from_monomials(n, terms),
    )


def reference_cone_rays(normals, n):
    """cone_rays with each subset's kernel line taken from integer_kernel (a column HNF)."""
    if n == 0:
        return []
    lineality = integer_kernel(normals, n)
    if lineality:
        return [s for g in lineality for s in (g, tuple(-v for v in g))]
    rays, seen = [], set()
    for sub in combinations(range(len(normals)), n - 1):
        gens = integer_kernel([normals[i] for i in sub], n)
        if len(gens) != 1:
            continue
        for cand in (gens[0], tuple(-v for v in gens[0])):
            if cand in seen:
                continue
            seen.add(cand)
            if all(sum(a * u for a, u in zip(row, cand)) >= 0 for row in normals):
                rays.append(cand)
    return rays


def reference_reduced_polytope(constraints, dim):
    """(half-spaces, bounded) of reduced_polytope, with every constraint tested against
    the others (no incidences) and boundedness from ``reference_cone_rays``."""
    tightest = {}
    for coeffs, off in constraints:
        prim, g = primitivize(coeffs)
        off = Fraction(off, g)
        if prim not in tightest or off < tightest[prim]:
            tightest[prim] = off
    kept = _drop_redundant(sorted(tightest.items()), dim)
    halfspaces = tuple(HalfSpace(normal=prim, offset=off) for prim, off in kept)
    bounded = not reference_cone_rays([hs.normal for hs in halfspaces], dim) if dim else True
    return halfspaces, bounded


def pulled_back(chart):
    """The chart polytope's facets that do not vanish on the face, as constraints in chart coordinates."""
    out = []
    for r, hs in enumerate(chart.polytope.halfspaces, start=1):
        if r in chart.vanishing:
            continue
        coeffs = tuple(sum(c * v for c, v in zip(col, hs.normal)) for col in chart.basis)
        if any(coeffs):
            out.append((coeffs, hs.offset + sum(x * v for x, v in zip(chart.origin, hs.normal))))
    return out
