"""Symplectic potentials: scaled affine-log sums plus a polynomial correction.

A potential has the form

    phi(xi) = scale * sum_r  w_r * L_r(xi) log L_r(xi)  +  f(xi)

with affine forms L_r(xi) = xi . normal_r + offset_r and a polynomial f that
is smooth on all of R^n.  With weight-1 terms taken from the facets of a
polytope, zero correction and scale 1/2 this is the Guillemin potential.
Value, gradient and Hessian are closed-form; the value extends continuously
to the closed polytope with the convention 0 log 0 = 0 applied termwise.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import rowwise
from .errors import DomainError, InvalidInputError
from .polynomial import Polynomial
from .polytope import FaceChart, Polytope, flat_exit_time

# facet values inside [-EXTENDED_TOL, 0] are treated as exact zeros of the
# continuous extension; anything more negative is outside the closed domain
EXTENDED_TOL = 1e-12
# a positive definite Hessian's pivots exceed this share of its largest diagonal entry
PIVOT_REL_TOL = 1e-12


@dataclass(frozen=True)
class AffineLogTerm:
    """One summand weight * L(xi) log L(xi) with L(xi) = xi . normal + offset."""

    normal: tuple[float, ...]
    offset: float
    weight: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "normal", tuple(float(v) for v in self.normal))
        object.__setattr__(self, "offset", float(self.offset))
        object.__setattr__(self, "weight", float(self.weight))


@dataclass(frozen=True)
class SymplecticPotential:
    dim: int
    scale: float = 0.5
    log_terms: tuple[AffineLogTerm, ...] = ()
    correction: Polynomial | None = None

    def __post_init__(self):
        scale = self.scale  # a NaN fails the comparison
        number = isinstance(scale, (int, float)) and not isinstance(scale, bool)
        if not (number and 0 < scale <= sys.float_info.max):
            raise InvalidInputError(f"scale {scale!r} is not a finite number > 0")
        object.__setattr__(self, "scale", float(scale))
        if self.correction is None:
            object.__setattr__(self, "correction", Polynomial.zero(self.dim))
        if self.correction.nvars != self.dim:
            raise InvalidInputError("correction polynomial has wrong variable count")
        for term in self.log_terms:
            if len(term.normal) != self.dim:
                raise InvalidInputError("log term normal has wrong length")

    @cached_property
    def _normals(self):
        a = np.array([t.normal for t in self.log_terms], dtype=float)
        return rowwise.read_only(a.reshape(len(self.log_terms), self.dim))

    @cached_property
    def _normal_columns(self):
        """The normals as columns (n, R), a transposed view, for ``rowwise.times``."""
        return self._normals.T

    @cached_property
    def _offsets(self):
        return rowwise.read_only(np.array([t.offset for t in self.log_terms]))

    @cached_property
    def _weights(self):
        return rowwise.read_only(np.array([t.weight for t in self.log_terms]))

    def _points(self, xi):
        """xi as a float array of shape (n,) or (m, n)."""
        xi = np.asarray(xi, dtype=float)
        if xi.ndim not in (1, 2) or xi.shape[-1] != self.dim:
            raise InvalidInputError(
                f"point has shape {xi.shape}, expected ({self.dim},) or (m, {self.dim})"
            )
        return xi

    def term_values(self, xi):
        """Log-term arguments L_r, of shape (R,) for a point and (m, R) for a batch."""
        return rowwise.times(self._points(xi), self._normal_columns) + self._offsets

    def _checked(self, xi, extended=False):
        """xi as an (n,) or (m, n) float array, and its log-term arguments.

        Raises DomainError unless every coordinate is finite and every argument
        is positive (at least -EXTENDED_TOL when extended).
        """
        xi = self._points(xi)
        z = rowwise.times(xi, self._normal_columns) + self._offsets
        inside = z >= -EXTENDED_TOL if extended else z > 0  # false for nan
        finite = np.isfinite(xi)
        # count_nonzero is the cheapest full test on the small arrays of a solve
        if np.count_nonzero(inside) == inside.size and np.count_nonzero(finite) == xi.size:
            return xi, z
        if not finite.all():
            raise DomainError("point has a non-finite coordinate")
        i = np.flatnonzero(~inside)[0]
        r = i % z.shape[-1] + 1
        if extended:
            raise DomainError(f"term {r} is negative ({z.flat[i]:.3e}); point not in domain")
        raise DomainError(f"log argument {z.flat[i]:.3e} of term {r} is not positive")

    def value(self, xi):
        """phi on the interior; raises DomainError on a nonpositive log argument.

        A float for a point of shape (n,), an (m,) array for a batch (m, n).
        """
        xi, z = self._checked(xi)
        out = self.scale * rowwise.dot(z * np.log(z), self._weights) + self.correction(xi)
        return out if xi.ndim == 2 else float(out)

    def value_extended(self, xi):
        """Continuous extension of phi to the closed domain (0 log 0 = 0 termwise)."""
        xi, z = self._checked(xi, extended=True)
        z = np.maximum(z, 0.0)
        zlogz = np.where(z > 0.0, z * np.log(np.where(z > 0.0, z, 1.0)), 0.0)
        out = self.scale * rowwise.dot(zlogz, self._weights) + self.correction(xi)
        return out if xi.ndim == 2 else float(out)

    def gradient(self, xi) -> np.ndarray:
        """scale * sum w_r nu_r (log L_r + 1) + grad f; (n,) or (m, n)."""
        xi, z = self._checked(xi)
        g = self.correction.gradient(xi)
        if self.log_terms:
            g = g + self.scale * rowwise.times(self._weights * (np.log(z) + 1.0), self._normals)
        return g

    def hessian(self, xi) -> np.ndarray:
        """scale * sum w_r nu_r nu_r^T / L_r + Hess f; (n, n) or (m, n, n), symmetric."""
        xi, z = self._checked(xi)
        h = self.correction.hessian(xi)
        if self.log_terms:
            scaled = self._normals * (self._weights / z)[..., None]
            h = h + self.scale * np.swapaxes(scaled, -1, -2) @ self._normals
        return 0.5 * (h + np.swapaxes(h, -1, -2))

    def as_dict(self):
        return {
            "scale": self.scale,
            "log_terms": [
                {"normal": list(t.normal), "offset": t.offset, "weight": t.weight}
                for t in self.log_terms
            ],
            "correction": self.correction.as_dict(),
        }


def guillemin(P: Polytope, scale: float = 0.5) -> SymplecticPotential:
    """The canonical potential scale * sum_r l_r log l_r over the facets of P.

    P is read first (``vertex_list``), so a half-space that is not a facet,
    or a region with no vertex or no interior point, raises here.
    """
    P.vertex_list
    terms = tuple(
        AffineLogTerm(normal=tuple(float(v) for v in hs.normal), offset=float(hs.offset))
        for hs in P.halfspaces
    )
    return SymplecticPotential(dim=P.dim, scale=scale, log_terms=terms)


def restrict_potential(phi: SymplecticPotential, chart: FaceChart) -> SymplecticPotential:
    """Pull the potential back to a face through its chart.

    The face is read from its generators, by the rule of
    ``FaceChart.vanishing``: a term within 1e-12 of 0 at every vertex of the
    face, with a slope within 1e-12 of 0 along every ray of it, vanishes
    identically on the face, contributes 0 log 0 = 0 and is dropped, whatever
    the chart's origin and basis.  Every kept term must be at least -1e-9 at
    the vertices and in slope along the rays, which proves it nonnegative on
    the whole face, the hull of those vertices plus the cone of those rays;
    the first vertex, then ray, and in it the first term that fails raises
    DomainError.  The kept terms and the correction are composed with the
    affine chart map u -> origin + basis @ u.  The result is memoized on the
    chart, per potential object: the memo is keyed by id(phi) and its entry
    holds phi, so no other object takes that id.
    """
    entry = chart.restrictions.get(id(phi))
    if entry is None:
        entry = chart.restrictions[id(phi)] = (phi, _restrict(phi, chart))
    return entry[1]


def _restrict(phi, chart):
    B = chart.basis_array
    origin = chart.origin_array
    rays = np.array(chart.rays, dtype=float).reshape(-1, phi.dim)
    # each term at the face's vertices, then its slope along the face's rays:
    # rows in vertex order, then ray order; a column is zero on the face
    # exactly when it is zero in every row (``_vanishing``, in floats)
    on_face = np.vstack([phi.term_values(chart.vertex_array), rays @ phi._normals.T])
    kept = np.flatnonzero(np.any(np.abs(on_face) > 1e-12, axis=0))
    negative = np.argwhere(on_face[:, kept] < -1e-9)
    if len(negative):
        row, col = negative[0]
        at = "is negative at a vertex" if row < len(chart.vertices) else "falls along a ray"
        raise DomainError(f"log term {kept[col] + 1} {at} of the face")
    normals = phi._normals[kept]
    offsets = rowwise.times(normals, origin) + phi._offsets[kept]
    terms = tuple(
        AffineLogTerm(normal=tuple(nu), offset=c, weight=w)
        for nu, c, w in zip(normals @ B, offsets, phi._weights[kept])
    )
    return SymplecticPotential(
        dim=chart.dim_face,
        scale=phi.scale,
        log_terms=terms,
        correction=phi.correction.compose_affine(origin, B),
    )


@dataclass(frozen=True)
class ValidityReport:
    passed: bool
    samples: int
    min_eigenvalue: float
    det_product_min: float
    det_product_max: float
    failures: tuple[dict, ...] = field(default=())


def _is_positive_definite(H):
    """Symmetric factorization with pivots required to exceed PIVOT_REL_TOL * max diagonal."""
    H = np.array(H, dtype=float)
    n = H.shape[0]
    tol = PIVOT_REL_TOL * max(np.max(np.abs(np.diag(H))), 1.0)
    for i in range(n):
        pivot = H[i, i]
        if pivot <= tol:
            return False
        H[i + 1 :, i + 1 :] -= np.outer(H[i + 1 :, i], H[i + 1 :, i]) / pivot
    return True


def validity_scan(
    phi: SymplecticPotential, P: Polytope, samples: int = 200, seed: int = 0
) -> ValidityReport:
    """Sample-based check of positive definiteness and of det(G) * prod l_r > 0.

    Draws interior points stratified toward each facet (distances down to
    1e-6 of the inradius scale); only those also in phi's domain are tested,
    and the report's samples counts those.
    A heuristic, not a proof: it certifies the sampled points only.
    """
    if not P.bounded:
        raise InvalidInputError("validity scan requires a bounded polytope")
    rng = np.random.default_rng(seed)
    verts = P.vertex_array
    base_count = max(samples // 8, 1)
    points = []
    for _ in range(base_count):
        w = rng.dirichlet(np.ones(len(verts)))
        points.append(w @ verts)
    ladder = 10.0 ** np.arange(-1, -7, -1)
    while len(points) < samples:
        z = rng.dirichlet(np.ones(len(verts))) @ verts
        r = int(rng.integers(P.n_facets))
        delta = float(rng.choice(ladder))
        d = -P.normal_matrix[r]
        points.append(z + (1.0 - delta) * flat_exit_time(P, z, d) * d)  # finite: P is bounded
    points = np.array(points)
    vals = P.facet_values(points)
    # in P and in phi's domain, which its log terms may cut smaller
    inside = np.all(vals > 0, axis=1) & np.all(phi.term_values(points) > 0, axis=1)
    H = phi.hessian(points[inside])
    eigs = np.linalg.eigvalsh(H).min(axis=1, initial=np.inf)
    det_prods = np.linalg.det(H) * np.prod(vals[inside], axis=1)
    failures = [
        {"point": [float(c) for c in x], "min_eigenvalue": float(eig), "det_product": float(dp)}
        for x, h, eig, dp in zip(points[inside], H, eigs, det_prods)
        if not _is_positive_definite(h) or dp <= 0
    ]
    min_eig = float(np.min(eigs, initial=np.inf))
    prod_min = float(np.min(det_prods, initial=np.inf))
    prod_max = float(np.max(det_prods, initial=-np.inf))
    return ValidityReport(
        passed=not failures,
        samples=int(inside.sum()),
        min_eigenvalue=min_eig,
        det_product_min=prod_min,
        det_product_max=prod_max,
        failures=tuple(failures[:10]),
    )
