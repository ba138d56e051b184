"""Shared test utilities: finite-difference oracles, lattice transforms and
random Delzant polytopes with potentials."""

import itertools
import json
import math
from fractions import Fraction
from itertools import combinations

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st

from polyflat.boundary import (
    boundary_point,
    continuity_check,
    project_to_face,
    pythagoras_boundary_foot,
    pythagoras_interior_foot,
    random_face_point,
    random_interior,
)
from polyflat.dually_flat import newton_solve
from polyflat.errors import InvalidInputError, PolyflatError
from polyflat.intlattice import integer_kernel, primitivize, solve_integer
from polyflat.jsonio import fraction_str
from polyflat.polynomial import Polynomial
from polyflat.polytope import HalfSpace, Polytope, face_chart, halfspace, product
from polyflat.potential import SymplecticPotential, guillemin
from polyflat.verify import (
    DEFAULT_SAMPLES,
    DEFAULT_TOLERANCES,
    CheckResult,
    merge_tolerances,
    run_scenario,
)


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


def subset_vertices(constraints, k):
    """The vertices of {x : c . x + o >= 0 for every (c, o)}, from every k-subset solved alone."""
    d = math.lcm(*(Fraction(o).denominator for _, o in constraints))
    for subset in combinations(constraints, k):
        sol = solve_integer([c for c, _ in subset], [int(-o * d) for _, o in subset])
        if sol is not None:
            x = tuple(Fraction(v, sol[1] * d) for v in sol[0])
            if all(sum(a * u for a, u in zip(c, x)) + o >= 0 for c, o in constraints):
                yield x


def reference_reduced_polytope(constraints, dim):
    """(half-spaces, bounded) of reduced_polytope on a pointed full-dimensional region.

    Each constraint is tested against the others (no incidences): it is
    dropped when it is nonnegative on every ray and vertex of the others'
    region.  For a pointed region that region has a vertex, or contains a
    line the tested constraint cuts.  Boundedness is from ``reference_cone_rays``.
    """
    tightest = {}
    for coeffs, off in constraints:
        prim, g = primitivize(coeffs)
        off = Fraction(off, g)
        if prim not in tightest or off < tightest[prim]:
            tightest[prim] = off
    kept = sorted(tightest.items())
    i = 0
    while i < len(kept):
        coeffs, off = kept[i]
        others = kept[:i] + kept[i + 1 :]
        rays = reference_cone_rays([c for c, _ in others], dim)
        if all(sum(a * u for a, u in zip(coeffs, g)) >= 0 for g in rays) and all(
            sum(a * u for a, u in zip(coeffs, x)) + off >= 0 for x in subset_vertices(others, dim)
        ):
            kept.pop(i)
        else:
            i += 1
    halfspaces = tuple(HalfSpace(normal=prim, offset=off) for prim, off in kept)
    return halfspaces, not reference_cone_rays([hs.normal for hs in halfspaces], dim)


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


def square_pyramid():
    """The square pyramid over [0, 2]^2; its apex (1, 1, 1) lies on its four side facets, 2-5."""
    return Polytope(
        dim=3,
        halfspaces=(
            halfspace((0, 0, 1), 0),
            halfspace((1, 0, -1), 0),
            halfspace((0, 1, -1), 0),
            halfspace((-1, 0, -1), 2),
            halfspace((0, -1, -1), 2),
        ),
    )


def pyramid_prism():
    """The square pyramid times [0, 1]: its apex edge lies on four facets, 2-5."""
    interval = Polytope(dim=1, halfspaces=(halfspace((1,), 0), halfspace((-1,), 1)))
    return product(square_pyramid(), interval)


@st.composite
def cut_polyhedra(draw, simple):
    """The orthant x >= 0 or the box [0, 2]^n, n = 2 or 3, cut by up to four integer half-spaces.

    Only a region with a vertex is drawn: with ``simple`` one whose vertices
    all lie on exactly n half-spaces, else one with a vertex on more.
    Vertices and tight counts come from ``subset_vertices``, not from the
    library.  Cuts may be redundant, so not every half-space need be a facet.
    """
    n = draw(st.integers(2, 3))
    constraints = {tuple(int(i == j) for i in range(n)): 0 for j in range(n)}
    if draw(st.booleans()):
        constraints.update({tuple(-int(i == j) for i in range(n)): 2 for j in range(n)})
    for _ in range(draw(st.integers(0, 4))):
        normal = tuple(draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)))
        assume(any(normal))
        constraints.setdefault(primitivize(normal)[0], draw(st.integers(-2, 4)))
    constraints = list(constraints.items())
    tight = [
        sum(sum(a * u for a, u in zip(c, x)) + o == 0 for c, o in constraints)
        for x in set(subset_vertices(constraints, n))
    ]
    assume(tight and (all(t == n for t in tight) if simple else max(tight) > n))
    return Polytope(dim=n, halfspaces=tuple(halfspace(c, o) for c, o in constraints))


def pointed_unbounded():
    """Six unbounded polyhedra with a vertex, by name; the last has a non-simple half-line."""
    ray = Polytope(dim=1, halfspaces=(halfspace((1,), 0),))
    interval = Polytope(dim=1, halfspaces=(halfspace((1,), 0), halfspace((-1,), 1)))
    cut = Polytope(dim=2, halfspaces=(halfspace((1, 0), 0), halfspace((0, 1), 0), halfspace((1, 1), -1)))
    return {
        "triangle x ray": product(simplex(2), ray),
        "square x ray": product(product(interval, interval), ray),
        "ray x ray x interval": product(product(ray, ray), interval),
        "cut quadrant": cut,
        "triangle x ray x ray": product(product(simplex(2), ray), ray),
        "pyramid x ray": product(square_pyramid(), ray),
    }


def reference_canonical(value):
    """value with floats rounded to 12 significant digits, recursively, and inf and nan as strings."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
        return float(f"{value:.12g}")
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, dict):
        return {k: reference_canonical(v) for k, v in value.items()}
    if isinstance(value, np.ndarray) and value.ndim == 0:
        # a 0-D array cannot be iterated; it stands for its scalar
        return reference_canonical(value.item())
    if isinstance(value, (list, tuple, np.ndarray)):
        return [reference_canonical(v) for v in value]
    if isinstance(value, Fraction):
        return fraction_str(value)
    return value


def reference_dumps(obj):
    """The reference JSON writer: the standard library's encoder on ``reference_canonical(obj)``."""
    return json.dumps(reference_canonical(obj), indent=2, sort_keys=True) + "\n"


def reference_run_scenario(
    P, phi, faces=None, samples=None, tolerances=None, seed=0,
    product_check=True, negative_control=False,
):
    """run_scenario with its faces swept one at a time, the reference for the batched sweep.

    The checks before and after the faces are run_scenario's with no faces;
    the generator is replayed through their draws.  Then each face in turn
    makes its draws, runs its own orthogonal rebuild and its own
    interior-foot evaluations, and records its four checks.
    """
    results, _ = run_scenario(P, phi, [], samples, tolerances, seed, product_check, negative_control)
    tail = [r for r in results if r.check.startswith("product-")]
    results = results[: len(results) - len(tail)]
    counts = {**DEFAULT_SAMPLES, **(samples or {})}
    tol = merge_tolerances(tolerances)
    rng = np.random.default_rng(seed)
    random_interior(P, rng, size=counts["legendre_points"])
    for _ in range(sum(r.check in ("divergence-expansion", "kl-relation") for r in results)):
        random_interior(P, rng, size=2 * counts["divergence_pairs"])

    def worst(errors):
        return float(np.max(errors, initial=0.0))

    def verdict(check, inputs, residual, tolerance, holds=True):
        residual = float(residual)
        passed = residual <= tolerance and holds
        results.append(CheckResult(check, inputs, residual, tolerance, bool(passed)))

    if faces is None:
        faces = [(r,) for r in range(1, P.n_facets + 1)] if P.dim > 1 else []
    for active in faces:
        active = tuple(active)
        chart = face_chart(P, active)
        pairs = counts["continuity_pairs"]
        etas = random_face_point(chart, rng, size=2 * pairs)
        gaps = continuity_check(phi, etas[:pairs], etas[pairs:]).gaps
        tail_gaps = gaps[:, -4:]
        verdict(
            "boundary-continuity",
            {"face": list(active), "pairs": pairs},
            worst(gaps[:, -1]),
            tol["continuity_gap"],
            holds=np.all(tail_gaps[:, :-1] > tail_gaps[:, 1:]),
        )

        xi2 = random_interior(P, rng, size=counts["boundary_feet"])
        etas = random_face_point(chart, rng, size=counts["boundary_feet"])
        feet = project_to_face(phi, chart, xi2)
        if negative_control:
            U = feet.chart_coords.copy()
            for i, step in enumerate(0.05 * reference_face_steps(chart, rng, len(U))):
                for cand in (U[i] + step, U[i] - step):
                    try:
                        boundary_point(chart, chart_coords=cand)
                    except PolyflatError:
                        continue
                    U[i] = cand
                    break
            feet = boundary_point(chart, chart_coords=U)
        verdict(
            "pythagoras-boundary-foot",
            {"face": list(active), "draws": counts["boundary_feet"]},
            worst(np.abs(pythagoras_boundary_foot(phi, etas, feet, xi2).residual)),
            tol["boundary_foot"],
        )

        triples = counts["interior_triples"]
        xi, xi2 = random_interior(P, rng, size=2 * triples).reshape(2, triples, P.dim)
        etas = random_face_point(chart, rng, size=triples)
        w = reference_orthogonal_directions(etas.ambient - xi, rng)
        reps = pythagoras_interior_foot(phi, etas, xi, xi2)
        worst_id = worst(np.abs(reps.residual - reps.perp_value))
        x_orth, _, status, _ = newton_solve(phi, P, phi.gradient(xi) + 0.3 * w)
        ok = status == "converged"
        reps = pythagoras_interior_foot(phi, etas[ok], xi[ok], x_orth[ok])
        inputs = {"face": list(active), "triples": triples}
        verdict("pythagoras-interior-identity", inputs, worst_id, tol["interior_identity"])
        unsolved = int(np.sum(~ok))
        verdict(
            "pythagoras-interior-orthogonal",
            {**inputs, "unconverged": unsolved} if unsolved else inputs,
            worst(np.abs(reps.residual)),
            tol["interior_orthogonal"],
            holds=not unsolved,
        )
    results += tail
    return results, all(r.passed for r in results)


def reference_face_steps(chart, rng, count):
    """count random unit steps in chart coordinates, drawn as run_scenario draws them."""
    u = rng.normal(size=(count, chart.dim_face))
    norm = np.linalg.norm(u, axis=1, keepdims=True)
    return np.divide(u, norm, out=np.ones_like(u), where=norm > 0)


def reference_orthogonal_directions(seg, rng):
    """Unit rows orthogonal to the rows of seg, drawn as run_scenario draws them."""
    seg = seg / np.linalg.norm(seg, axis=1, keepdims=True)
    out = np.empty_like(seg)
    rows = np.arange(len(seg))
    for _ in range(50):
        w = rng.normal(size=(len(rows), seg.shape[1]))
        w -= (w * seg[rows]).sum(axis=1, keepdims=True) * seg[rows]
        norm = np.linalg.norm(w, axis=1, keepdims=True)
        out[rows] = w / np.where(norm > 1e-9, norm, 1.0)
        rows = rows[~(norm[:, 0] > 1e-9)]
        if not rows.size:
            return out
    raise PolyflatError("could not build an orthogonal direction")


def cube(n):
    """The unit n-cube; facet 2i + 1 is x_i >= 0 and facet 2i + 2 is x_i <= 1."""
    halfspaces = []
    for i in range(n):
        e = tuple(int(j == i) for j in range(n))
        halfspaces += [halfspace(e, 0), halfspace(tuple(-v for v in e), 1)]
    return Polytope(dim=n, halfspaces=tuple(halfspaces))


def cube_faces(n):
    """Every face of the unit n-cube of dimension 1 to n - 1, by its facets."""
    faces = []
    for fixed in itertools.product((None, 0, 1), repeat=n):
        active = [2 * i + 1 + side for i, side in enumerate(fixed) if side is not None]
        if 0 < len(active) < n:
            faces.append(active)
    return faces
