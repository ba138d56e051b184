"""Convex polytopes in half-space form with exact lattice data.

A polytope is stored as the intersection of half-spaces
``l_r(xi) = xi . nu_r + lambda_r >= 0`` with primitive integer normals ``nu_r``
and exact rational offsets ``lambda_r``.  All combinatorial computations
(vertices, faces, Delzant validation) are exact; only metric evaluations
elsewhere in the package use floating point.

Facet indices are 1-based everywhere in the public API, matching the
numbering of the defining inequalities in input files.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import gcd

import numpy as np

from . import intlattice, rowwise
from .errors import DegenerateError, EmptyFaceError, InvalidInputError


def as_fraction(value):
    """Coerce ints, strings like '3/4', integral floats and Fractions to Fraction; not bools."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise InvalidInputError(f"{value!r} is a boolean, not an exact rational")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, float) and value.is_integer():  # False for inf and nan
        return Fraction(int(value))
    raise InvalidInputError(f"offset {value!r} is not an exact rational")


@dataclass(frozen=True)
class HalfSpace:
    """One defining inequality xi . normal + offset >= 0."""

    normal: tuple[int, ...]
    offset: Fraction

    def __post_init__(self):
        if not self.normal or all(v == 0 for v in self.normal):
            raise InvalidInputError("half-space normal must be nonzero")
        if any(isinstance(v, bool) or not isinstance(v, int) for v in self.normal):
            raise InvalidInputError("half-space normal must be integral")
        g = 0
        for v in self.normal:
            g = gcd(g, abs(v))
        if g != 1:
            raise InvalidInputError(f"normal {self.normal} is not primitive (gcd {g})")
        if not isinstance(self.offset, Fraction):
            object.__setattr__(self, "offset", as_fraction(self.offset))


def halfspace(normal, offset):
    """The half-space of an integral normal, given as ints or integral floats, and an offset."""
    if any(isinstance(v, bool) or isinstance(v, float) and not v.is_integer() for v in normal):
        raise InvalidInputError(f"normal {list(normal)} is not integral")
    return HalfSpace(tuple(int(v) for v in normal), as_fraction(offset))


@dataclass(frozen=True)
class Vertex:
    coords: tuple[Fraction, ...]
    active: tuple[int, ...]  # sorted, 1-based facet indices

    @cached_property
    def array(self):
        return rowwise.read_only(np.array([float(c) for c in self.coords]))


@dataclass(frozen=True)
class Polytope:
    """Intersection of half-spaces; immutable after construction.

    The half-spaces fix everything else, boundedness included: ``bounded`` is
    computed exactly on first use.  dim == 0 represents a single point (no
    half-spaces), which arises as a product factor.
    """

    dim: int
    halfspaces: tuple[HalfSpace, ...]

    def __post_init__(self):
        if self.dim < 0:
            raise InvalidInputError("dimension must be nonnegative")
        if self.dim == 0 and self.halfspaces:
            raise InvalidInputError("a 0-dimensional polytope has no half-spaces")
        for hs in self.halfspaces:
            if len(hs.normal) != self.dim:
                raise InvalidInputError(
                    f"normal {hs.normal} does not match dimension {self.dim}"
                )
        seen = set()
        for hs in self.halfspaces:
            key = (hs.normal, hs.offset.numerator, hs.offset.denominator)  # ints hash fast
            if key in seen:
                raise InvalidInputError(f"duplicate half-space {(hs.normal, hs.offset)}")
            seen.add(key)

    @property
    def n_facets(self):
        return len(self.halfspaces)

    @cached_property
    def normal_matrix(self):
        a = np.array([hs.normal for hs in self.halfspaces], dtype=float)
        return rowwise.read_only(a.reshape(self.n_facets, self.dim))

    @cached_property
    def _facet_columns(self):
        """The facet normals as columns (n, N), a transposed view, for ``rowwise.times``."""
        return self.normal_matrix.T

    @cached_property
    def offset_array(self):
        return rowwise.read_only(np.array([float(hs.offset) for hs in self.halfspaces]))

    def facet_values(self, point):
        """Float facet values l_r in input order: (N,) at a point, (m, N) for a batch (m, n)."""
        point = np.asarray(point, dtype=float)
        if point.ndim not in (1, 2) or point.shape[-1] != self.dim:
            raise InvalidInputError(f"point of shape {point.shape} in dimension {self.dim}")
        return rowwise.times(point, self._facet_columns) + self.offset_array

    @cached_property
    def rays(self):
        """P's extreme rays, primitive, exact and sorted, computed once; none when P is bounded.

        When P contains a line these generate its lineality space, in opposite pairs.
        """
        return tuple(sorted(intlattice.cone_rays([hs.normal for hs in self.halfspaces], self.dim)))

    @cached_property
    def bounded(self):
        """Whether the region is bounded: ``is_bounded``, computed once."""
        return is_bounded(self)

    @cached_property
    def vertex_list(self):
        return _enumerate_vertices(self)

    @cached_property
    def _region(self):
        """The vertices and the facet positions, read once (``_read_region``)."""
        return _read_region(self)

    def _sorted_by_normal(self):
        """P with its half-spaces sorted by normal, its region recorded from P's.

        For a read P this is the polytope ``reduced_polytope`` makes of P's
        own half-spaces, so the torification round trip reads no region again.
        """
        order = sorted(range(self.n_facets), key=lambda r: self.halfspaces[r].normal)
        position = {r + 1: i + 1 for i, r in enumerate(order)}
        verts = tuple(
            Vertex(coords=v.coords, active=tuple(sorted(position[r] for r in v.active)))
            for v in self.vertex_list
        )
        Q = Polytope(dim=self.dim, halfspaces=tuple(self.halfspaces[r] for r in order))
        return _proven(Q, self.rays, verts)

    @cached_property
    def vertex_array(self):
        """The vertices as rows of a read-only float array, in vertex order."""
        return _vertex_array(self.vertex_list, self.dim)

    @cached_property
    def _charts(self):
        """face_chart results of this polytope, keyed by sorted facet indices."""
        return {}

    @cached_property
    def centroid(self):
        """Mean of the vertices (exact)."""
        return _mean(self.vertex_list, self.dim)

    @cached_property
    def interior_point(self):
        """The vertex mean plus the sum of the rays: an exact interior point, the Newton start."""
        return _plus(self.centroid, self.rays)


def flat_exit_time(P: Polytope, start, direction) -> float:
    """Smallest t > 0 at which start + t*direction leaves P (inf if never)."""
    start = np.asarray(start, dtype=float)
    direction = np.asarray(direction, dtype=float)
    rates = P.normal_matrix @ direction
    vals = P.facet_values(start)
    with np.errstate(divide="ignore"):
        ts = np.where(rates < 0, vals / -rates, np.inf)
    return float(np.min(ts, initial=np.inf))


def is_bounded(P: Polytope) -> bool:
    """Exact boundedness of the feasible region: it has no ray (``P.rays``)."""
    return not P.rays


def _enumerate_vertices(P: Polytope):
    """P's vertices; InvalidInputError names the first half-space that is not a facet."""
    verts, facets = P._region
    if len(facets) < P.n_facets:
        r = min(set(range(P.n_facets)).difference(facets)) + 1
        raise InvalidInputError(f"half-space {r} is not a facet of the region")
    return verts


def _read_region(P: Polytope):
    """P's vertices, sorted by coordinates, and the 0-based positions of its facets.

    One pass over the region: the vertices from one subset loop, the rays
    from ``P.rays``, and the facets from vertex-facet incidence
    (``_facets_from_incidence``).  A region with no vertex or no interior
    point (empty, lower-dimensional or containing a line) raises
    DegenerateError.  A 0-dimensional polytope is its one point.
    """
    normals = [hs.normal for hs in P.halfspaces]
    found = _subset_vertices(normals, [hs.offset for hs in P.halfspaces], P.dim)
    along = [{j for j, v in enumerate(normals) if _dot(v, g) == 0} for g in P.rays]
    facets = _facets_from_incidence(
        range(P.n_facets), list(found.values()), list(found), P.dim, P.rays, along
    )
    if facets is None:
        raise DegenerateError(
            "the half-spaces cut out a region with no vertex or no interior point"
            " (empty, lower-dimensional or containing a line)"
        )
    verts = (Vertex(coords=point, active=tuple(i + 1 for i in tight)) for tight, point in found.items())
    return tuple(sorted(verts, key=lambda v: v.coords)), facets


def _feasible_solutions(normals, offsets, n):
    """The points where n of the constraints normals . x + offsets >= 0 meet, if feasible.

    normals are integer rows, offsets rationals.  The work is on integers: the
    offsets are scaled to their common denominator d, and each n-subset with
    a unique solution gives it as numerators over d * |det|.  Yields
    (numerators, denominator, tight) for every subset whose point satisfies
    all constraints, with tight the positions of those that vanish there.
    """
    b, d = intlattice.common_denominator(offsets)
    for subset in combinations(range(len(normals)), n):
        sol = intlattice.solve_integer([normals[i] for i in subset], [-b[i] for i in subset])
        if sol is None:
            continue
        nums, den = sol
        # each value times d * den, which is positive
        values = [sum(a * u for a, u in zip(nu, nums)) + c * den for nu, c in zip(normals, b)]
        if any(v < 0 for v in values):
            continue
        yield nums, den * d, tuple(i for i, v in enumerate(values) if v == 0)


def _subset_vertices(normals, offsets, n):
    """The feasible points of ``_feasible_solutions``, as {tight positions: Fraction point}.

    A point is fixed by the constraints tight there, so the tight positions
    key it; its coordinates are built once.
    """
    found = {}
    for nums, den, tight in _feasible_solutions(normals, offsets, n):
        if tight not in found:
            found[tight] = tuple(Fraction(u, den) for u in nums)
    return found


def vertices(P: Polytope):
    """All vertices, solved exactly; sorted by coordinates for determinism."""
    return P.vertex_list


@dataclass(frozen=True)
class DelzantFailure:
    vertex: tuple[Fraction, ...]
    active: tuple[int, ...]
    determinant: int | None  # None when the vertex is not simple

    def as_dict(self):
        return {
            "vertex": [str(c) for c in self.vertex],
            "active": list(self.active),
            "determinant": self.determinant,
        }


@dataclass(frozen=True)
class DelzantReport:
    simple: bool
    rational: bool
    smooth: bool
    partial: bool
    failures: tuple[DelzantFailure, ...]

    @property
    def valid(self):
        return self.simple and self.rational and self.smooth

    def as_dict(self):
        return {
            "simple": self.simple,
            "rational": self.rational,
            "smooth": self.smooth,
            "partial": self.partial,
            "valid": self.valid,
            "failures": [f.as_dict() for f in self.failures],
        }


def validate_delzant(P: Polytope) -> DelzantReport:
    """Check simplicity and lattice smoothness at every vertex.

    Smoothness is tested on the active facet normals (|det| = 1), which for a
    simple polytope is equivalent to the edge-vector lattice-basis condition.
    For unbounded polyhedra only the existing vertices are certified and the
    report is marked partial.
    """
    simple = True
    smooth = True
    failures = []
    for v in vertices(P):
        if len(v.active) != P.dim:
            simple = False
            smooth = False
            failures.append(DelzantFailure(v.coords, v.active, None))
            continue
        rows = [P.halfspaces[r - 1].normal for r in v.active]
        det = intlattice.determinant(rows)
        if abs(det) != 1:
            smooth = False
            failures.append(DelzantFailure(v.coords, v.active, int(det)))
    return DelzantReport(
        simple=simple,
        rational=True,  # integer normals by construction
        smooth=smooth,
        partial=not P.bounded,
        failures=tuple(failures),
    )


@dataclass(frozen=True)
class FaceChart:
    """Lattice-adapted affine parametrization of a face.

    Maps chart coordinates u in R^k to ambient points origin + basis @ u.
    The basis columns span the lattice directions of the face and extend to a
    Z-basis of the ambient lattice.
    """

    polytope: Polytope
    face_active: tuple[int, ...]  # sorted, 1-based
    origin: tuple[Fraction, ...]
    basis: tuple[tuple[int, ...], ...]  # k columns, each of length n

    @property
    def dim_face(self):
        """Dimension k of the face: the number of basis columns."""
        return len(self.basis)

    @cached_property
    def basis_array(self):
        a = np.array([[float(col[i]) for col in self.basis] for i in range(self.polytope.dim)])
        return rowwise.read_only(a.reshape(self.polytope.dim, self.dim_face))

    @cached_property
    def origin_array(self):
        return rowwise.read_only(np.array([float(c) for c in self.origin]))

    @cached_property
    def vanishing(self):
        """Facets identically zero on the face, face_active included (``_vanishing``)."""
        return _vanishing(self.polytope, self.vertices, self.rays)

    @cached_property
    def vanishing_mask(self):
        """``vanishing`` as a read-only (N,) bool array over the polytope's facets."""
        a = [r in self.vanishing for r in range(1, self.polytope.n_facets + 1)]
        return rowwise.read_only(np.array(a, dtype=bool))

    @cached_property
    def restrictions(self):
        """Memo of ``restrict_potential`` on this face: id(phi) -> (phi, restriction)."""
        return {}

    @cached_property
    def vertices(self):
        """The polytope's vertices that lie on the face, in vertex order."""
        return _face_vertices(self.polytope, self.face_active)

    @cached_property
    def rays(self):
        """The polytope's rays that lie along the face: those every named normal is 0 on."""
        return _face_rays(self.polytope, self.face_active)

    @cached_property
    def vertex_array(self):
        """``vertices`` as rows of a read-only float array (ambient coordinates)."""
        return _vertex_array(self.vertices, self.polytope.dim)

    @cached_property
    def vertex_chart_array(self):
        """``vertices`` as rows of a read-only float array (chart coordinates)."""
        return rowwise.read_only(self.to_chart(self.vertex_array))

    @cached_property
    def left_inverse(self):
        """The (k, n) left inverse pinv(basis_array), read-only.

        It maps x to the least-squares chart coordinates of x - origin, which
        are exact for points of the face.
        """
        return rowwise.read_only(np.linalg.pinv(self.basis_array))

    @cached_property
    def face_polytope(self):
        """The face as a polytope in chart coordinates.

        The facets not constant on the face are pulled back through the
        chart and re-primitivized, and the redundant ones are dropped by
        reading which of the face's vertices and rays each is tight on.
        """
        P, k = self.polytope, self.dim_face
        pulled, facets = _pulled_back(P, self.basis, self.origin)
        merged, sources = _merged(pulled)
        # facet of P -> position of the merged constraint it attains
        of = {facets[i]: j for j, src in enumerate(sources) for i in src}
        tight = [{of[r] for r in v.active if r in of} for v in self.vertices]
        along = [{of[r] for r in _orthogonal(P, g) if r in of} for g in self.rays]
        points = [v.coords for v in self.vertices]
        kept = _facets_from_incidence(merged, points, tight, k, self.rays, along)
        F = _polytope(kept, k)
        return F if self.rays else _proven(F, ())

    def to_ambient(self, u):
        """Ambient point of chart coordinates u (k,), or the rows of a batch (m, k)."""
        u = np.asarray(u, dtype=float)
        return self.origin_array + rowwise.times(u, self.basis_array.T)

    def to_chart(self, point):
        """Chart coordinates of an ambient point (n,) on (or near) the face, or of a batch (m, n).

        Near the face this is the least-squares solution of
        origin + basis @ u = point.
        """
        point = np.asarray(point, dtype=float)
        return rowwise.times(point - self.origin_array, self.left_inverse.T)


def face_chart(P: Polytope, active) -> FaceChart:
    """Chart for the face cut out by the given facet indices (1-based).

    The face is read from the generators on it: P's vertices on every named
    facet and P's rays along all of them (Minkowski-Weyl: the face is the
    hull of those vertices plus the cone of those rays).  So any facets that
    meet at a vertex name a face of its true dimension, also on a polytope
    that is not simple; facets that meet at no vertex raise EmptyFaceError,
    and a region with no vertex raises DegenerateError (``_read_region``).
    The origin is the vertices' mean plus the sum of the rays, a point of the
    face's relative interior.  The basis is the Hermite-canonical integer
    kernel basis of the vanishing normals, so charts are deterministic; each
    is built once per face and memoized on P.  Indices are Python or numpy
    ints; a bool, float or str is refused, not truncated.
    """
    for r in active:
        if isinstance(r, bool) or not isinstance(r, (int, np.integer)):
            raise InvalidInputError(f"facet index {r!r} is not an integer")
    active = tuple(sorted(set(int(r) for r in active)))
    for r in active:
        if not 1 <= r <= P.n_facets:
            raise InvalidInputError(f"facet index {r} out of range 1..{P.n_facets}")
    chart = P._charts.get(active)
    if chart is None:
        chart = P._charts[active] = _build_chart(P, active)
    return chart


def _build_chart(P, active):
    on = _face_vertices(P, active)
    rays = _face_rays(P, active)
    vanishing = _vanishing(P, on, rays)
    basis = intlattice.integer_kernel([P.halfspaces[r - 1].normal for r in sorted(vanishing)], P.dim)
    origin = _plus(_mean(on, P.dim), rays)
    chart = FaceChart(polytope=P, face_active=active, origin=origin, basis=tuple(basis))
    chart.__dict__.update(vertices=on, rays=rays, vanishing=vanishing)  # fill the cached properties
    return chart


def _vertex_array(verts, dim):
    return rowwise.read_only(np.array([v.array for v in verts]).reshape(len(verts), dim))


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _face_vertices(P, active):
    """P's vertices on every facet in ``active``; EmptyFaceError when there are none."""
    active = set(active)
    on = tuple(v for v in vertices(P) if active <= set(v.active))
    if not on:
        raise EmptyFaceError(f"facets {sorted(active)} meet at no vertex of the polytope")
    return on


def _orthogonal(P, g):
    """The facets whose normal is 0 on the direction g."""
    return frozenset(r for r, hs in enumerate(P.halfspaces, start=1) if _dot(hs.normal, g) == 0)


def _face_rays(P, active):
    """P's rays on which the normal of every facet in ``active`` is 0."""
    return tuple(g for g in P.rays if _orthogonal(P, g).issuperset(active))


def _vanishing(P, verts, rays):
    """The facets tight at every vertex of a face and orthogonal to every ray of it.

    They are the facets zero on the face, and they cut out its affine hull
    (Ziegler, Lectures on Polytopes, Lecture 2).
    """
    on = [frozenset(v.active) for v in verts] + [_orthogonal(P, g) for g in rays]
    return frozenset.intersection(*on)


def _pulled_back(P, basis, point):
    """The facets not constant on a face, as constraints on u -> point + basis @ u.

    Each is a (coefficients, offset) pair: the facet normal pulled back
    through the basis columns, and the exact facet value at ``point``.
    Returns the constraints and the 1-based facet index of each.
    """
    nums, d = intlattice.common_denominator(point)
    pulled, facets = [], []
    for r, hs in enumerate(P.halfspaces, start=1):
        coeffs = tuple(_dot(col, hs.normal) for col in basis)
        if any(coeffs):
            q = hs.offset.denominator
            value = _dot(nums, hs.normal) * q + hs.offset.numerator * d
            pulled.append((coeffs, Fraction(value, d * q)))
            facets.append(r)
    return pulled, facets


def _mean(verts, dim):
    nums, d = intlattice.common_denominator([c for v in verts for c in v.coords])
    m = len(verts)
    return tuple(Fraction(sum(nums[i::dim]), d * m) for i in range(dim))


def _plus(point, rays):
    """point plus the sum of the rays; point itself when there are none."""
    if not rays:
        return point
    return tuple(c + sum(g[i] for g in rays) for i, c in enumerate(point))


def _merged(constraints):
    """Primitive forms of (coefficients, offset) constraints, parallel ones merged.

    Each normal keeps its tightest offset.  Returns the (normal, offset)
    pairs sorted by normal, and for each the positions in ``constraints`` of
    the constraints that reduce to it.
    """
    tightest = {}
    for i, (coeffs, off) in enumerate(constraints):
        prim, g = intlattice.primitivize(coeffs)
        off = Fraction(off, g)
        best = tightest.get(prim)
        if best is None or off < best[0]:
            tightest[prim] = (off, [i])
        elif off == best[0]:
            best[1].append(i)
    items = sorted(tightest.items())
    return [(prim, off) for prim, (off, _) in items], [src for _, (_, src) in items]


def _affine_rank(points, rays=()):
    """Dimension of the hull of a nonempty list of rational points plus the cone of rays."""
    first = points[0]
    return intlattice.rank([[a - b for a, b in zip(p, first)] for p in points[1:]] + list(rays))


def _facets_from_incidence(constraints, points, tight, k, rays=(), along=()):
    """The constraints of a pointed region in R^k that define its facets.

    ``points`` are the region's vertices and ``rays`` its extreme rays, in
    exact affine coordinates of any space the region embeds in; ``tight[v]``
    holds the positions of the constraints that vanish at ``points[v]``, and
    ``along[g]`` those whose normal is 0 on ``rays[g]``; constraints are
    merged, so no two have the same primitive normal.  A constraint is a
    facet exactly when it is tight at a vertex and the vertices and rays it
    is tight on span a (k-1)-flat: a face of a pointed region is the hull of
    its vertices plus the cone of its rays, and has a vertex.  The
    constraints tight at a vertex where exactly k are tight are facets
    without a rank test: near such a vertex the region is a simplicial cone.
    Returns the kept constraints in order, or None when the vertices and rays
    do not span a k-flat (an empty or lower-dimensional region).
    """
    facet = [False] * len(constraints)
    full = False
    for t in tight:
        if len(t) == k:
            full = True
            for j in t:
                facet[j] = True
    if not points or not (full or _affine_rank(points, rays) == k):
        return None
    for j, is_facet in enumerate(facet):
        if not is_facet:
            on = [p for p, t in zip(points, tight) if j in t]
            dirs = [g for g, t in zip(rays, along) if j in t]
            facet[j] = bool(on) and len(on) + len(dirs) >= k and _affine_rank(on, dirs) == k - 1
    return [c for c, is_facet in zip(constraints, facet) if is_facet]


def _polytope(pairs, dim):
    halfspaces = tuple(HalfSpace(normal=prim, offset=off) for prim, off in pairs)
    return Polytope(dim=dim, halfspaces=halfspaces)


def _proven(P, rays, vertices=None):
    """P, with the facts its builder has proven filled into its cached properties.

    ``rays`` are P's sorted extreme rays, from which ``bounded`` follows;
    ``vertices``, when the builder has them, are P's vertices sorted by
    coordinates, every half-space of P being a facet.
    """
    P.__dict__["rays"] = rays
    if vertices is not None:
        P.__dict__["_region"] = (vertices, list(range(P.n_facets)))
    return P


def reduced_polytope(constraints, dim) -> Polytope:
    """The polytope {u : coeffs . u + offset >= 0} in irredundant primitive form.

    ``constraints`` are (integer coefficients, rational offset) pairs with
    nonzero coefficients.  Each is re-primitivized and parallel constraints
    keep the tightest offset.  The merged polytope is read in one pass
    (``_read_region``), which raises DegenerateError on a region with no
    vertex or no interior point; it is returned when every constraint is a
    facet, and otherwise the polytope of its facets.
    """
    merged, _ = _merged(constraints)
    Q = _polytope(merged, dim)
    _, facets = Q._region
    if len(facets) == len(merged):
        return Q
    return _polytope([merged[j] for j in facets], dim)


def restrict_polytope(P: Polytope, chart: FaceChart) -> Polytope:
    """The face as a polytope in chart coordinates: the chart's ``face_polytope``."""
    if chart.polytope is not P and chart.polytope != P:
        raise InvalidInputError("chart does not belong to this polytope")
    return chart.face_polytope


def product(P1: Polytope, P2: Polytope) -> Polytope:
    """Cartesian product; normals are block-padded with zeros.

    The factors are read (``vertex_list``), so a factor with a half-space
    that is not a facet, or with no vertex or no interior point, raises here.
    The product's region is then recorded from theirs, not read again: its
    vertices are the pairs of vertices in factor order, which is sorted, its
    rays are each factor's rays padded with zeros, and every half-space is a
    facet.
    """
    n1, n2 = P1.dim, P2.dim
    V1, V2 = P1.vertex_list, P2.vertex_list
    halfspaces = [
        HalfSpace(normal=hs.normal + (0,) * n2, offset=hs.offset) for hs in P1.halfspaces
    ] + [HalfSpace(normal=(0,) * n1 + hs.normal, offset=hs.offset) for hs in P2.halfspaces]
    shift = P1.n_facets
    verts = tuple(
        Vertex(coords=a.coords + b.coords, active=a.active + tuple(r + shift for r in b.active))
        for a in V1
        for b in V2
    )
    rays = [g + (0,) * n2 for g in P1.rays] + [(0,) * n1 + g for g in P2.rays]
    return _proven(Polytope(dim=n1 + n2, halfspaces=tuple(halfspaces)), tuple(sorted(rays)), verts)
