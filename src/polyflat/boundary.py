"""Dually flat structure on polytope faces.

A face carries its own Hesse structure: the potential restricted through a
lattice chart.  Two divergences live here:

* the face divergence D_F between two points of the open face, the Bregman
  divergence of the restricted potential, and
* the limit divergence D'_F(eta || xi') of a face point against an interior
  point, the continuous extension of the three-term Bregman form::

      D'_F(eta || xi') = phi_ext(eta) - phi(xi') - (eta - xi') . grad phi(xi')

The closed form keeps the per-facet terms that the one-sided limit picks up
from the facets active at eta; it is validated against numeric limits and is
the version for which the boundary Pythagorean identities hold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rowwise
from .dually_flat import GeodesicSpec, bregman, newton_solve
from .errors import DomainError, FaceBoundaryError, InvalidInputError, NumericalError
from .polytope import (
    FaceChart,
    HalfSpace,
    Polytope,
    face_chart,
    product,
    restrict_polytope,
)
from .potential import SymplecticPotential, guillemin, restrict_potential

ACTIVE_TOL = 1e-12   # |facet value| below this counts as "on the face"
INTERIOR_TOL = 1e-8  # inactive facet values must exceed this on the open face
DIRECTION_TIE_TOL = 1e-12  # vertex scores x . d this close to the best one tie
K_MAX = 8  # continuity_check estimates at facet distances 10^-1 .. 10^-K_MAX


@dataclass(frozen=True, eq=False)
class BoundaryPoint:
    """Points of the open face, carried in both ambient and chart coordinates.

    ambient and chart_coords are read-only float arrays: (n,) and (k,) for
    one point, (m, n) and (m, k) for a batch of m points.  A batch has a
    length, and an int, a slice or a bool mask picks a BoundaryPoint on the
    same chart from it.
    """

    chart: FaceChart
    ambient: np.ndarray
    chart_coords: np.ndarray

    def __len__(self):
        self._require_batch()
        return len(self.ambient)

    def __getitem__(self, index):
        self._require_batch()
        x, u = self.ambient[index], self.chart_coords[index]
        return BoundaryPoint(self.chart, rowwise.read_only(x), rowwise.read_only(u))

    def _require_batch(self):
        if self.ambient.ndim == 1:
            raise TypeError("a single BoundaryPoint has no length and no rows")


def boundary_face(P: Polytope, active) -> FaceChart:
    """The chart of the face named by the facet indices active, a face of dimension >= 1.

    The one rule by which a face is named for the boundary layer: an empty
    name, which would be P's interior, and a vertex raise InvalidInputError;
    otherwise the chart is ``face_chart``'s.
    """
    chart = face_chart(P, active)
    if not chart.face_active:
        raise InvalidInputError("face [] lists no facet; name a face by its vanishing facets")
    if chart.dim_face < 1:
        raise InvalidInputError(f"face {list(active)} is a vertex; faces need dimension >= 1")
    return chart


def boundary_point(chart: FaceChart, ambient=None, chart_coords=None):
    """Build validated points of the open face from either coordinate system.

    A point of shape (d,) gives a single BoundaryPoint, a batch (m, d) gives
    one BoundaryPoint holding all m rows, checked together; the first bad row
    raises the error the call on that row raises.
    """
    if (ambient is None) == (chart_coords is None):
        raise InvalidInputError("give exactly one of ambient or chart coordinates")
    P = chart.polytope
    if ambient is None:
        U, single = _rows(chart_coords, chart.dim_face, "chart coordinates")
        X = chart.to_ambient(U)
        off_hull = np.zeros(len(U), dtype=bool)
    else:
        X, single = _rows(ambient, P.dim, "ambient point")
        U = chart.to_chart(X)
        # nan fails no comparison here; the facet tests below reject it
        off_hull = np.max(np.abs(chart.to_ambient(U) - X), axis=1, initial=0.0) > ACTIVE_TOL
    _check_rows(chart, P.facet_values(X), off_hull)
    points = BoundaryPoint(chart, rowwise.read_only(X), rowwise.read_only(U))
    return points[0] if single else points


def open_face_rows(chart: FaceChart, chart_coords):
    """Which rows (m, k) of chart coordinates are points of the open face, as a bool mask (m,).

    Row i is True exactly when ``boundary_point(chart, chart_coords=row i)``
    accepts it: each row gets the floats of that one-row call.
    """
    U, _ = _rows(chart_coords, chart.dim_face, "chart coordinates")
    values = chart.polytope.facet_values(chart.to_ambient(U))
    return ~_bad_values(chart, values).any(axis=1)


def _bad_values(chart, values):
    """The facet values (m, N) that put their row off the open face, as a bool mask."""
    # `not (... <= / > ...)` rather than `>` / `<=`, so that nan is bad
    vanishing = chart.vanishing_mask
    return np.where(vanishing, ~(np.abs(values) <= ACTIVE_TOL), ~(values > INTERIOR_TOL))


def _check_rows(chart, values, off_hull):
    """Raise the error of the first row off the face: off_hull[i], or by its facet values[i]."""
    vanishing = chart.vanishing_mask
    bad = _bad_values(chart, values)
    for i in np.flatnonzero(off_hull | bad.any(axis=1))[:1]:
        if off_hull[i]:
            raise DomainError("point is not on the affine hull of the face")
        r = int(np.argmax(bad[i]))
        if vanishing[r]:
            raise DomainError(f"active facet {r + 1} has value {values[i, r]:.3e} at the point")
        raise DomainError(
            f"facet {r + 1} has value {values[i, r]:.3e}; point is not in the open face"
        )


def _rows(points, width, what):
    """points (width,) or (m, width) as rows (m, width), and whether it was one point.

    The rows are a copy, since the BoundaryPoint built from them marks them read-only.
    """
    try:
        a = np.array(points, dtype=float)
    except (TypeError, ValueError) as exc:  # entries that are not numbers, ragged rows
        raise InvalidInputError(f"{what} is not a point or a batch of points") from exc
    if a.ndim not in (1, 2) or a.shape[-1] != width:
        raise InvalidInputError(f"{what} of shape {a.shape} where the width is {width}")
    return np.atleast_2d(a), a.ndim == 1


def _shared_chart(*points) -> FaceChart:
    """The chart that all the given points carry; each must be a BoundaryPoint."""
    chart = getattr(points[0], "chart", None)
    if not all(isinstance(p, BoundaryPoint) and p.chart == chart for p in points):
        raise InvalidInputError("face points must be BoundaryPoints on one chart")
    return chart


def _face_rows(eta):
    """The polytope of face points eta and their ambient coordinates.

    eta is a BoundaryPoint, or a list of BoundaryPoint batches on faces of
    one polytope, whose rows are stacked in list order.
    """
    if isinstance(eta, BoundaryPoint):
        return eta.chart.polytope, eta.ambient
    (points,), _ = _paired(eta)
    return points[0].chart.polytope, np.concatenate([p.ambient for p in points])


def _paired(eta, *others):
    """Face points as lists of batches, one batch per face, and whether eta is a single point.

    eta and the others are BoundaryPoints on one chart, or lists of
    BoundaryPoint batches on faces of one polytope, whose i-th batches
    share a chart.
    """
    if isinstance(eta, BoundaryPoint):
        _shared_chart(eta, *others)
        return [[_as_batch(p)] for p in (eta, *others)], eta.ambient.ndim == 1
    lists = [eta, *others]
    if not (
        all(isinstance(points, list) and len(points) == len(eta) for points in lists)
        and eta
        and all(isinstance(p, BoundaryPoint) and p.ambient.ndim == 2 for ps in lists for p in ps)
        and all(p.chart.polytope == eta[0].chart.polytope for p in eta)
        and all(p.chart == e.chart for points in others for p, e in zip(points, eta))
    ):
        raise InvalidInputError(
            "face points must be BoundaryPoints on one chart, or lists of batches "
            "on faces of one polytope, the i-th batches of each on one chart"
        )
    return lists, False


def _as_batch(point):
    """A BoundaryPoint as a batch: a single point as a batch of one row."""
    if point.ambient.ndim == 2:
        return point
    return BoundaryPoint(point.chart, point.ambient[None], point.chart_coords[None])


class _FaceRows:
    """The restricted potentials and face polytopes of faces of one shape, one face per row.

    Row i holds its face's kept log terms, as normals (m, R, k) and offsets
    and weights (m, R), and its face polytope's facets, as normals (m, N, k)
    and offsets (m, N); the scale and the correction are the faces' common
    ones.  It evaluates through SymplecticPotential's and Polytope's own
    code, whose products ``rowwise.times`` makes with row i's matrices for
    row i, so every row gets the floats of its own face's potential and
    polytope.  ``newton_solve`` carries its ``take`` of rows with the iterates.
    """

    _points = SymplecticPotential._points
    _checked = SymplecticPotential._checked

    # the public methods look the classes' own up at each call, so that a
    # wrapper put on those (perfbench's tracer) counts these calls as well
    def value(self, xi):
        return SymplecticPotential.value(self, xi)

    def gradient(self, xi):
        return SymplecticPotential.gradient(self, xi)

    def hessian(self, xi):
        return SymplecticPotential.hessian(self, xi)

    def term_values(self, xi):
        return SymplecticPotential.term_values(self, xi)

    def facet_values(self, point):
        return Polytope.facet_values(self, point)

    def __init__(self, face, arrays):
        self._face = face
        self.dim, self.scale = face.dim, face.scale
        self.correction, self.log_terms = face.correction, face.log_terms
        self._arrays = arrays
        self._normals, self._offsets, self._weights, self.normal_matrix, self.offset_array = arrays
        # transposed views, laid out as a single potential's and polytope's are
        self._normal_columns = self._normals.swapaxes(-1, -2)
        self._facet_columns = self.normal_matrix.swapaxes(-1, -2)

    def take(self, mask):
        """The rows a bool mask keeps."""
        index = np.flatnonzero(mask)
        return _FaceRows(self._face, [a.take(index, axis=0) for a in self._arrays])


def _by_shape(phi, charts, counts):
    """The faces of charts in groups of one shape, each group's rows in one _FaceRows.

    Face i owns counts[i] consecutive rows of a batch stacked in chart
    order.  A face's shape is its dimension, the kept-term count and the
    correction of its restricted potential and the facet count of its face
    polytope.  Returns, per group in order of its first face, the group's
    rows, their positions in the batch, each row's chart basis (m, n, k)
    and the group's faces.
    """
    starts = np.cumsum([0, *counts])
    members = {}
    for i, chart in enumerate(charts):
        phi_f = restrict_potential(phi, chart)
        F = restrict_polytope(chart.polytope, chart)
        shape = (chart.dim_face, len(phi_f.log_terms), F.n_facets, phi_f.correction)
        arrays = (phi_f._normals, phi_f._offsets, phi_f._weights, F.normal_matrix, F.offset_array)
        members.setdefault(shape, []).append((i, phi_f, arrays + (chart.basis_array,)))
    groups = []
    for group in members.values():
        faces = [i for i, _, _ in group]
        # each row's face, by its place in the group
        of_face = np.repeat(np.arange(len(faces)), [counts[i] for i in faces])
        *arrays, basis = [np.array(a).take(of_face, axis=0) for a in zip(*(a for *_, a in group))]
        at = np.concatenate([np.arange(starts[i], starts[i + 1]) for i in faces])
        groups.append((_FaceRows(group[0][1], arrays), at, basis, faces))
    return groups


def _face_divergence(groups, points, points2):
    """D_F of each row of the lists of batches points against points2, stacked in list order."""
    out = np.empty(sum(len(p) for p in points))
    for rows, at, _, faces in groups:
        out[at] = bregman(rows, _chart_rows(points, faces), _chart_rows(points2, faces))
    return out


def _chart_rows(points, faces):
    """The chart coordinates of the batches points[i], i in faces, stacked."""
    return np.concatenate([points[i].chart_coords for i in faces])


def boundary_divergence(phi: SymplecticPotential, eta, eta2):
    """Face divergence D_F: Bregman divergence of the restricted potential.

    eta and eta2 are single BoundaryPoints on one chart, giving a float, or
    batches of equal length, giving an (m,) array.
    """
    chart = _shared_chart(eta, eta2)
    return bregman(restrict_potential(phi, chart), eta.chart_coords, eta2.chart_coords)


def extended_divergence(phi: SymplecticPotential, xi_closure, xi2):
    """Continuous extension of the divergence in its first argument.

    Equals the Bregman divergence for interior xi_closure and the limit of
    D(xi || xi2) as xi approaches a boundary point.  Points and results are
    shaped as in ``bregman``.
    """
    xi_closure = np.asarray(xi_closure, dtype=float)
    xi2 = np.asarray(xi2, dtype=float)
    d = (
        phi.value_extended(xi_closure)
        - phi.value(xi2)
        - rowwise.dot(xi_closure - xi2, phi.gradient(xi2))
    )
    return float(d) if np.ndim(d) == 0 else d


def limit_divergence(phi: SymplecticPotential, eta, xi2):
    """Limit divergence D'_F(eta || xi2) of a face point against an interior point.

    A single BoundaryPoint against a point (n,), or a batch of m against the
    rows of xi2 (m, n).  The batch may also be a list of BoundaryPoint
    batches on faces of one polytope, m rows in all, stacked in list order.
    """
    P, ambient = _face_rows(eta)
    xi2 = np.asarray(xi2, dtype=float)
    values = P.facet_values(xi2)
    if not np.all(values > 0):
        raise DomainError("second argument must be interior")
    return extended_divergence(phi, ambient, xi2)


@dataclass(frozen=True, eq=False)
class ContinuityReport:
    """Gaps of the iterated-limit estimates to D_F.

    For one pair: a float target and (K_MAX,) estimates and gaps; for a batch
    of m pairs: (m,) and (m, K_MAX) arrays.
    """

    target: float
    estimates: np.ndarray
    gaps: np.ndarray


def continuity_check(phi: SymplecticPotential, eta, eta2) -> ContinuityReport:
    """Iterated-limit estimate of the divergence against the face divergence.

    Approaches eta and eta2 along segments toward an interior anchor, with the
    inner (first-limit) point two decades closer to the face than the outer
    one; reports the gap to D_F at facet distances 10^-1 .. 10^-K_MAX.  The
    caller judges the gaps.  eta and eta2 are single BoundaryPoints on one
    chart or batches of equal length, or lists of batches on faces of one
    polytope whose i-th batches pair on one chart, stacked in list order;
    every row gets the floats of the call on that pair alone.
    """
    (points, points2), single = _paired(eta, eta2)
    charts = [p.chart for p in points]
    target = _face_divergence(_by_shape(phi, charts, [len(p) for p in points]), points, points2)
    P = charts[0].polytope
    anchor = np.array([float(c) for c in P.interior_point])

    def approach(points, active_normals, deltas):
        """Points (m, K_MAX, n) along each row -> anchor, smallest active facet value delta."""
        w = anchor - points
        s = np.array(deltas) / rowwise.times(w, active_normals.T).min(axis=1, keepdims=True)
        return points[:, None, :] + s[:, :, None] * w[:, None, :]

    ks = range(1, K_MAX + 1)
    inner, outer = [], []
    for p, p2 in zip(points, points2):
        active_normals = P.normal_matrix[p.chart.vanishing_mask]
        inner.append(approach(p.ambient, active_normals, [10.0 ** (-(k + 2)) for k in ks]))
        outer.append(approach(p2.ambient, active_normals, [10.0**-k for k in ks]))
    inner, outer = np.concatenate(inner), np.concatenate(outer)
    estimates = bregman(phi, inner.reshape(-1, P.dim), outer.reshape(-1, P.dim))
    estimates = estimates.reshape(len(inner), K_MAX)
    gaps = np.abs(estimates - target[:, None])
    if single:
        return ContinuityReport(float(target[0]), estimates[0], gaps[0])
    return ContinuityReport(target, estimates, gaps)


def project_to_face(phi: SymplecticPotential, chart, xi2):
    """The face point minimizing the limit divergence against xi2.

    Solved by Newton on the chart: the first-order condition equates the
    chart gradient of the restricted potential with the pullback of
    grad phi(xi2).  Initialized at the Euclidean projection of xi2 onto the
    affine hull of the face, or at the chart origin (u = 0) where that
    projection falls outside the face.  A point xi2 of shape (n,) gives a
    single BoundaryPoint; a batch (m, n) gives a batch of m, solved
    together, and the first row that does not converge raises.  chart may
    also be a list of charts of one polytope, with xi2 a list of batches,
    one per chart: then the feet are a list of batches, one per chart, the
    faces of one shape solved in one Newton solve, and every row gets the
    floats of the call on its face alone.
    """
    if isinstance(chart, list):
        if not (
            isinstance(xi2, list)
            and chart
            and len(xi2) == len(chart)
            and all(isinstance(c, FaceChart) and c.polytope == chart[0].polytope for c in chart)
        ):
            raise InvalidInputError(
                "project a list of charts of one polytope with a list of batches, one per chart"
            )
        return _project(phi, chart, [np.asarray(x, dtype=float) for x in xi2])
    xi2 = np.asarray(xi2, dtype=float)
    feet = _project(phi, [chart], [np.atleast_2d(xi2)])[0]
    return feet if xi2.ndim == 2 else feet[0]


def _project(phi, charts, X2):
    """``project_to_face`` of the rows X2[i] (m_i, n) onto each face charts[i]: a list of batches.

    The faces are checked in list order, each on its first row that does not
    converge and then on its feet, so the first face that fails raises what
    a face-by-face call raises.
    """
    P = charts[0].polytope
    X = np.concatenate(X2)
    if not np.all(P.facet_values(X) > 0):
        raise DomainError("projection argument must be interior")
    U = [np.zeros((len(x), c.dim_face)) for x, c in zip(X2, charts)]
    residual, status = np.zeros(len(X)), np.full(len(X), "converged")
    iterations = np.zeros(len(X), dtype=int)
    for rows, at, basis, faces in _by_shape(phi, charts, [len(x) for x in X2]):
        if rows.dim == 0:
            continue
        target = rowwise.times(phi.gradient(X[at]), basis)
        u0 = np.concatenate([charts[i].to_chart(X2[i]) for i in faces])
        # where the Euclidean projection is outside the face, start at the chart
        # origin, a relative-interior point of the face
        outside = np.min(rows.facet_values(u0), axis=1, initial=np.inf) <= 1e-9
        u0[outside] = 0.0
        u, residual[at], status[at], iterations[at] = newton_solve(rows, rows, target, X0=u0)
        start = 0
        for i in faces:
            U[i], start = u[start : start + len(X2[i])], start + len(X2[i])
    feet, start = [], 0
    for chart, u in zip(charts, U):
        for i in start + np.flatnonzero(status[start : start + len(u)] != "converged")[:1]:
            raise FaceBoundaryError(
                f"projection minimizer lies on the face boundary or did not converge "
                f"({status[i]} after {iterations[i]} iterations, residual {residual[i]:.3e})"
            )
        feet.append(boundary_point(chart, chart_coords=u))
        start += len(u)
    return feet


@dataclass(frozen=True)
class GeodesicLimit:
    point: tuple[float, ...]
    face: tuple[int, ...]  # 1-based facet indices active at the limit

    def as_dict(self):
        return {"point": list(self.point), "face": list(self.face)}


def dual_geodesic_limit(phi: SymplecticPotential, P: Polytope, spec: GeodesicSpec) -> GeodesicLimit:
    """Limit point of a dual geodesic as t -> infinity, with its face.

    Along y(t) = grad phi(start) + t d the components of y along the face
    of P on which x . d is largest stay constant, so the geodesic tends to
    that face, at the projection of start onto it (``project_to_face``).
    Vertex scores x . d within 1e-12 of the best one tie; the facets
    through every top vertex name the face to ``face_chart``, so a single top
    vertex is its own limit.  A foot the face solve does not resolve
    raises DomainError (FaceBoundaryError when the solve does not converge).
    """
    if spec.kind != "dual":
        raise InvalidInputError("limits are defined for dual geodesics")
    if not P.bounded:
        raise InvalidInputError("dual geodesic limits require a bounded polytope")
    start = np.array(spec.start)
    if not np.all(P.facet_values(start) > 0):
        raise DomainError("geodesic start must be interior")
    scores = P.vertex_array @ np.array(spec.direction)
    best = scores.max()
    top = [v for v, s in zip(P.vertex_list, scores) if s >= best - DIRECTION_TIE_TOL]
    chart = face_chart(P, set.intersection(*(set(v.active) for v in top)))
    foot = project_to_face(phi, chart, start)
    return GeodesicLimit(point=tuple(foot.ambient.tolist()), face=tuple(sorted(chart.vanishing)))


@dataclass(frozen=True, eq=False)
class PythagorasReport:
    """Residual and perpendicularity of an identity: floats, or (m,) arrays for a batch."""

    residual: float
    perp_value: float
    terms: tuple[float, ...]


def pythagoras_boundary_foot(phi: SymplecticPotential, eta, eta2, xi2):
    """Additivity D_F(eta||eta2) + D'_F(eta2||xi2) = D'_F(eta||xi2).

    The hypothesis is that eta2 is the foot of the dual geodesic from xi2,
    certified first-order: perp_value reports the infinity norm of the chart
    gradient mismatch at eta2, which vanishes exactly when eta2 is the
    projection of xi2 onto the face.  Single BoundaryPoints on one chart and
    a point xi2 (n,) give a report of floats; batches of m BoundaryPoints and
    xi2 (m, n) give one report of (m,) arrays.  eta and eta2 may also be
    lists of batches on faces of one polytope whose i-th batches pair on one
    chart, m rows in all, stacked in list order; every row gets the floats
    of the call on that row alone.
    """
    (points, points2), single = _paired(eta, eta2)
    charts = [p.chart for p in points]
    X2 = np.atleast_2d(np.asarray(xi2, dtype=float))
    groups = _by_shape(phi, charts, [len(p) for p in points])
    a = _face_divergence(groups, points, points2)
    b = limit_divergence(phi, points2, X2)
    c = limit_divergence(phi, points, X2)
    pulled = phi.gradient(X2)
    perp_defect = np.empty(len(X2))
    for rows, at, basis, faces in groups:
        face_gradient = rows.gradient(_chart_rows(points2, faces))
        mismatch = face_gradient - rowwise.times(pulled[at], basis)
        perp_defect[at] = np.max(np.abs(mismatch), axis=-1, initial=0.0)
    if single:
        a, b, c, perp_defect = float(a[0]), float(b[0]), float(c[0]), float(perp_defect[0])
    return PythagorasReport(residual=a + b - c, perp_value=perp_defect, terms=(a, b, c))


def pythagoras_interior_foot(phi: SymplecticPotential, eta, xi, xi2):
    """Additivity D'_F(eta||xi) + D(xi||xi2) = D'_F(eta||xi2).

    perp_value is the mixed pairing (eta - xi) . (y(xi2) - y(xi)) expressing
    metric orthogonality at xi of the straight segment toward eta and the dual
    geodesic toward xi2; the residual equals it identically, so the additivity
    holds exactly when the two directions are perpendicular.  Shapes are as in
    ``pythagoras_boundary_foot``; eta may also be a list of BoundaryPoint
    batches on faces of one polytope, stacked in list order as in
    ``limit_divergence``, so a sweep evaluates many faces in one call.  Every
    row gets the floats of the call on that row alone.
    """
    xi = np.asarray(xi, dtype=float)
    xi2 = np.asarray(xi2, dtype=float)
    a = limit_divergence(phi, eta, xi)
    b = bregman(phi, xi, xi2)
    c = limit_divergence(phi, eta, xi2)
    pairing = rowwise.dot(_face_rows(eta)[1] - xi, phi.gradient(xi2) - phi.gradient(xi))
    return PythagorasReport(
        residual=a + b - c,
        perp_value=float(pairing) if np.ndim(pairing) == 0 else pairing,
        terms=(a, b, c),
    )


@dataclass(frozen=True)
class ProductBoundaryReport:
    """The largest residual of each product identity over the samples."""

    samples: int
    additivity_max: float
    side_face_max: float
    bottom_face_max: float


def random_interior(P: Polytope, rng, margin: float = 1e-3, size=None) -> np.ndarray:
    """A random interior point (n,) whose facet values all exceed margin.

    With size=m, a block (m, n) of such points.
    """
    rays = np.array(P.rays, dtype=float).reshape(-1, P.dim)
    X = _draw_clearing(rng, P.vertex_array, rays, size, lambda _, X: P.facet_values(X), margin)
    if X is None:
        raise NumericalError("failed to draw an interior point with the requested margin")
    return X if size is not None else X[0]


def random_face_point(chart: FaceChart, rng, margin: float = 1e-3, size=None):
    """A random BoundaryPoint of the open face whose inactive facet values exceed margin.

    With size=m, a batch of m of them.  The points are drawn in chart
    coordinates, from the face's vertices and rays; the facet values of each
    drawn row are computed once, for the margin and for the checks of
    ``boundary_point``.
    """
    P = chart.polytope
    m = 1 if size is None else size
    X, values = np.empty((m, P.dim)), np.empty((m, P.n_facets))
    inactive = ~chart.vanishing_mask

    def inactive_values(rows, U):
        x = chart.to_ambient(U)
        v = P.facet_values(x)
        X[rows], values[rows] = x, v
        return v[:, inactive]

    rays = np.array(chart.rays, dtype=float).reshape(-1, P.dim) @ chart.left_inverse.T
    U = _draw_clearing(rng, chart.vertex_chart_array, rays, size, inactive_values, margin)
    if U is None:
        raise NumericalError("failed to draw a face-interior point")
    _check_rows(chart, values, np.zeros(m, dtype=bool))
    points = BoundaryPoint(chart, rowwise.read_only(X), rowwise.read_only(U))
    return points if size is not None else points[0]


def _draw_clearing(rng, vertices, rays, size, values, margin):
    """Random points of the hull of vertices plus the cone of rays, all values above margin.

    Draws a block of size rows (one row for size None): flat Dirichlet
    weights on the vertices plus, only when there are rays, exponential
    weights on the rays, so a bounded region draws from its vertices alone.
    Then redraws the rows at or below the margin, in row order, for at most
    200 rounds in all; None when some row never clears.  values gets the
    positions in the block of the rows drawn last, and those rows.
    """
    weights = np.ones(len(vertices))
    rows = np.arange(1 if size is None else size)
    out = np.empty((len(rows), vertices.shape[1]))
    for _ in range(200):
        out[rows] = rowwise.times(rng.dirichlet(weights, size=len(rows)), vertices)
        if len(rays):
            out[rows] += rowwise.times(rng.exponential(size=(len(rows), len(rays))), rays)
        rows = rows[~(np.min(values(rows, out[rows]), axis=1, initial=np.inf) > margin)]
        if not rows.size:
            return out
    return None


def _with(x, t):
    """Rows of x with the column t appended (the point in P x [0, inf))."""
    return np.column_stack([x, np.broadcast_to(t, len(x))])


def product_boundary_check(
    P: Polytope,
    scale: float = 1.0,
    samples: int = 100,
    seed: int = 0,
) -> ProductBoundaryReport:
    """Boundary behavior of the product with a half-line factor.

    Forms P~ = P x [0, inf) with the canonical potential and verifies, over
    random configurations: divergence additivity across the factors, the
    Pythagorean identity with the corner on a side face (a facet of P crossed
    with the ray), and the one with the corner on the bottom face P x {0}.
    All configurations are drawn first and then evaluated together.
    """
    if not P.bounded:
        raise InvalidInputError("the bounded factor must be a bounded polytope")
    ray = Polytope(dim=1, halfspaces=(HalfSpace(normal=(1,), offset=0),))
    P_prod = product(P, ray)
    phi_prod = guillemin(P_prod, scale)
    phi_base = guillemin(P, scale)
    phi_ray = guillemin(ray, scale)
    charts = [face_chart(P, (r,)) for r in range(1, P.n_facets + 1)]
    rng = np.random.default_rng(seed)
    x1, x1b = random_interior(P, rng, size=2 * samples).reshape(2, samples, P.dim)
    t1, t2 = rng.uniform(0.2, 3.0, size=(2, samples))
    # corner on a side face: (eta, t1) with eta on a random facet of P
    facets = rng.integers(P.n_facets, size=samples)
    eta = np.empty((samples, P.dim))
    for r, chart in enumerate(charts):
        rows = np.flatnonzero(facets == r)
        eta[rows] = random_face_point(chart, rng, size=len(rows)).ambient

    joint = bregman(phi_prod, _with(x1, t1), _with(x1b, t2))
    split = bregman(phi_base, x1, x1b) + bregman(phi_ray, t1[:, None], t2[:, None])
    add_max = float(np.max(np.abs(joint - split), initial=0.0))

    lhs = extended_divergence(phi_prod, _with(eta, t1), _with(x1, t2))
    rhs = extended_divergence(phi_prod, _with(eta, t1), _with(x1, t1)) + bregman(
        phi_prod, _with(x1, t1), _with(x1, t2)
    )
    side_max = float(np.max(np.abs(lhs - rhs), initial=0.0))

    # corner on the bottom face: (x1, 0) against interior points
    lhs = extended_divergence(phi_prod, _with(x1, 0.0), _with(x1b, t2))
    rhs = extended_divergence(phi_prod, _with(x1, 0.0), _with(x1, t2)) + bregman(
        phi_prod, _with(x1, t2), _with(x1b, t2)
    )
    bottom_max = float(np.max(np.abs(lhs - rhs), initial=0.0))
    return ProductBoundaryReport(
        samples=samples,
        additivity_max=add_max,
        side_face_max=side_max,
        bottom_face_max=bottom_max,
    )
