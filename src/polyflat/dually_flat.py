"""Legendre duality, Bregman divergence and geodesics of a Hesse structure.

The polytope coordinate x and its image y = grad phi(x) form a pair of dual
affine coordinates.  Divergences are computed in the cancellation-safe
three-term form D(xi||xi') = phi(xi) - phi(xi') - (xi - xi') . grad phi(xi').
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import rowwise
from .errors import (
    DomainError,
    InvalidInputError,
    NoSolutionError,
    NumericalError,
)
from .polytope import Polytope, flat_exit_time
from .potential import SymplecticPotential

NEWTON_TOL = 1e-10
NEWTON_MARGIN = 1e-15
NEWTON_MAX_ITER = 200


@dataclass(frozen=True)
class DualPair:
    """A point in both coordinate systems: x in the polytope, y = grad phi(x)."""

    x: tuple[float, ...]
    y: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(float(v) for v in self.x))
        object.__setattr__(self, "y", tuple(float(v) for v in self.y))

    @cached_property
    def x_array(self):
        return rowwise.read_only(np.array(self.x))

    @cached_property
    def y_array(self):
        return rowwise.read_only(np.array(self.y))


@dataclass(frozen=True)
class GeodesicSpec:
    kind: str  # "flat" (straight in x) or "dual" (straight in y)
    start: tuple[float, ...]
    direction: tuple[float, ...]

    def __post_init__(self):
        if self.kind not in ("flat", "dual"):
            raise InvalidInputError(f"geodesic kind {self.kind!r} must be 'flat' or 'dual'")
        object.__setattr__(self, "start", tuple(float(v) for v in self.start))
        object.__setattr__(self, "direction", tuple(float(v) for v in self.direction))
        if not np.all(np.isfinite(self.start + self.direction)):
            raise InvalidInputError("geodesic start and direction must be finite")
        if all(v == 0 for v in self.direction):
            raise InvalidInputError("geodesic direction must be nonzero")


def to_dual(phi: SymplecticPotential, xi) -> DualPair:
    """Pair an interior point with its dual coordinate grad phi(xi)."""
    xi = np.asarray(xi, dtype=float)
    return DualPair(x=tuple(xi), y=tuple(phi.gradient(xi)))


class NewtonSolve(NamedTuple):
    """Outcome of ``newton_solve``, one entry per target row.

    status is "converged", "stalled", "diverged" or "maxiter"; iterations
    counts the accepted Newton steps.
    """

    x: np.ndarray
    residual: np.ndarray
    status: np.ndarray
    iterations: np.ndarray


def newton_solve(phi: SymplecticPotential, P: Polytope, Y, X0=None) -> NewtonSolve:
    """Damped Newton solves of grad phi(x) = y, one per row of Y, all at once.

    Each row starts from X0 (broadcast against Y) or from P.interior_point,
    the vertex mean plus the sum of P's rays (the centroid of a bounded P).
    Iterates are kept strictly inside P (facet margin >= 1e-15) and in the
    domain of phi by step halving, at most 60 times, and a step is only
    accepted if it decreases the infinity-norm residual.  A row converges at residual
    <= 1e-10; it stalls when no step is accepted or its Hessian is singular,
    diverges when an iterate leaves the box |x| <= 1e12, and stops after
    200 Newton steps otherwise.  A target of shape (n,) gives one x, float,
    str and int; a batch (m, n) gives arrays of m rows.

    phi and P are shared by every row, or are a problem given one per row of
    a batch, which has a ``take`` of its rows; such a problem is carried
    along with the iterates, and X0 must be given.
    """
    Y = np.asarray(Y, dtype=float)
    single = Y.ndim == 1
    Y = Y.reshape(-1, P.dim)
    m = len(Y)
    X = np.empty(Y.shape)
    X[...] = P.interior_point if X0 is None else X0
    res = np.empty(m)
    status = np.empty(m, dtype="<U9")
    iterations = np.empty(m, dtype=int)
    # the rows still iterating, compacted: their row numbers, iterates, targets,
    # residual vectors and residual norms, and the potential and polytope of each
    rows, x, y = np.arange(m), X.copy(), Y
    r = phi.gradient(x) - y
    r_norm = _max_abs(r)

    def finish(leaving, why, steps_taken):
        nonlocal rows, x, y, r, r_norm, phi, P
        out = rows[leaving]
        if len(out) == m:  # the whole batch at once, still in row order
            X[...], res[...], status[...], iterations[...] = x, r_norm, why, steps_taken
            rows, x, y, r, r_norm = rows[:0], x[:0], y[:0], r[:0], r_norm[:0]
        else:
            X[out], res[out], status[out], iterations[out] = (
                x[leaving], r_norm[leaving], why, steps_taken
            )
            stay = ~leaving
            rows, x, y, r, r_norm = rows[stay], x[stay], y[stay], r[stay], r_norm[stay]
            phi, P = _take(phi, P, stay)

    # a one-row solve runs this loop a few times on arrays of one row, so its
    # time is mostly per-call overhead: each mask is tested with
    # np.count_nonzero before finish is called, and the whole batch leaving or
    # stepping at once is written with slices, not index arrays
    for k in range(NEWTON_MAX_ITER):
        done = r_norm <= NEWTON_TOL
        if np.count_nonzero(done):
            finish(done, "converged", k)
            if not rows.size:
                break
        H = phi.hessian(x)
        try:
            steps = np.linalg.solve(H, -r[..., None])[..., 0]
        except np.linalg.LinAlgError:
            steps, solved = _steps_one_by_one(H, -r)
            finish(~solved, "stalled", k)
            if not rows.size:
                break
            steps = steps[solved]
        accepted = _line_search(phi, P, x, y, r, r_norm, steps)
        if np.count_nonzero(accepted) < len(accepted):
            finish(~accepted, "stalled", k)
        diverged = _max_abs(x) > 1e12
        if np.count_nonzero(diverged):
            finish(diverged, "diverged", k + 1)
        if not rows.size:
            break
    else:
        finish(np.ones(len(rows), dtype=bool), "maxiter", NEWTON_MAX_ITER)
    if single:
        return NewtonSolve(X[0], float(res[0]), str(status[0]), int(iterations[0]))
    return NewtonSolve(X, res, status, iterations)


def _take(phi, P, index):
    """phi and P at the rows index: one given per row is taken, a shared one kept as it is.

    phi and P may be one problem, which is then taken once.
    """
    taken = phi if isinstance(phi, SymplecticPotential) else phi.take(index)
    if P is phi:
        return taken, taken
    return taken, P if isinstance(P, Polytope) else P.take(index)


def _max_abs(a):
    """Infinity norm of each row."""
    return np.maximum.reduce(np.abs(a), axis=1, initial=0.0)


def _steps_one_by_one(H, rhs):
    """Solutions of H_i s_i = rhs_i row by row, and which H_i were nonsingular."""
    steps = np.zeros_like(rhs)
    solved = np.ones(len(H), dtype=bool)
    for i in range(len(H)):
        try:
            steps[i] = np.linalg.solve(H[i], rhs[i])
        except np.linalg.LinAlgError:
            solved[i] = False
    return steps, solved


def _line_search(phi, P, x, y, r, r_norm, steps):
    """Step halving from the iterates x; x, r and r_norm take each accepted step in place.

    Returns which rows accepted a step.
    """
    accepted = np.zeros(len(x), dtype=bool)
    # the rows still halving, compacted, with their potential and polytope;
    # they all share the step length alpha
    todo, xs, ss, ys, ns = np.arange(len(x)), x, steps, y, r_norm
    alpha = 1.0
    for _ in range(60):
        cand = xs + alpha * ss
        ok = np.minimum.reduce(P.facet_values(cand), axis=1, initial=np.inf) >= NEWTON_MARGIN
        inside = np.count_nonzero(ok)
        if inside:
            # the rows inside P: a whole slice, which copies nothing, when that is all of them
            whole = inside == len(ok)
            sel = slice(None) if whole else ok
            try:
                cand_r = (phi if whole else _take(phi, P, ok)[0]).gradient(cand[sel])
            except DomainError:  # phi has log terms other than P's facets
                ok &= np.minimum.reduce(phi.term_values(cand), axis=1, initial=np.inf) > 0
                sel = ok
                cand_r = _take(phi, P, ok)[0].gradient(cand[ok])
            cand_r -= ys[sel]
            cand_norm = _max_abs(cand_r)
            better = cand_norm < ns[sel]
            if np.count_nonzero(better) == len(x):  # the whole batch takes this step
                x[...], r[...], r_norm[...], accepted[...] = cand, cand_r, cand_norm, True
                break
            won = np.zeros(len(todo), dtype=bool)
            won[sel] = better
            if np.count_nonzero(won):
                moved = todo[won]
                x[moved], r[moved], r_norm[moved] = cand[won], cand_r[better], cand_norm[better]
                accepted[moved] = True
                keep = ~won
                todo, xs, ss, ys, ns = todo[keep], xs[keep], ss[keep], ys[keep], ns[keep]
                phi, P = _take(phi, P, keep)
                if not todo.size:
                    break
        alpha *= 0.5
    return accepted


def require_converged(P: Polytope, Y, solve: NewtonSolve):
    """Raise what from_dual raises for the first target of Y whose row of solve did not converge.

    Y is one target (n,) with the one-point solve of it, or a batch (m, n)
    with its batch solve.
    """
    if Y.ndim == 1:
        if solve.status != "converged":
            raise _unsolved(P, Y, *solve)
        return
    for i in np.flatnonzero(solve.status != "converged")[:1]:
        raise _unsolved(
            P, Y[i], solve.x[i], float(solve.residual[i]), str(solve.status[i]),
            int(solve.iterations[i]),
        )


def _unsolved(P: Polytope, y, x, residual, status, iterations) -> NumericalError:
    """The error from_dual raises for a target whose solve ended in `status`."""
    if not P.bounded and (
        status == "diverged"
        or (status == "stalled" and float(np.min(P.facet_values(x))) <= 10 * NEWTON_MARGIN)
    ):
        return NoSolutionError(
            f"dual coordinate {y.tolist()} is not attained by the gradient map "
            f"(iterate escaped toward the boundary or infinity)",
            residual=residual,
            status=status,
            iterations=iterations,
        )
    return NumericalError(
        f"gradient-map inversion did not converge ({status} after {iterations} iterations) "
        f"with residual {residual:.3e}",
        residual=residual,
        status=status,
        iterations=iterations,
    )


def from_dual(phi: SymplecticPotential, P: Polytope, y, x0=None) -> DualPair:
    """Invert the gradient map: the point x with grad phi(x) = y, a target of shape (n,).

    Starts from x0 or P.interior_point (the vertex centroid when P is
    bounded; see newton_solve) and converges to infinity-norm residual
    <= 1e-10, or raises (``require_converged``).  A target of any other
    shape raises InvalidInputError; a batch of targets is one
    ``newton_solve``, checked by ``require_converged``.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (P.dim,):
        raise InvalidInputError(f"from_dual takes one target of shape ({P.dim},), not {y.shape}")
    solve = newton_solve(phi, P, y, X0=x0)
    require_converged(P, y, solve)
    return DualPair(x=tuple(solve.x), y=tuple(y))


def bregman(phi: SymplecticPotential, xi, xi2):
    """Bregman divergence D(xi || xi2) of the potential; nonnegative.

    A float for points of shape (n,), an (m,) array for batches (m, n).
    """
    xi = np.asarray(xi, dtype=float)
    xi2 = np.asarray(xi2, dtype=float)
    d = phi.value(xi) - phi.value(xi2) - rowwise.dot(xi - xi2, phi.gradient(xi2))
    return float(d) if np.ndim(d) == 0 else d


def require_facet_potential(phi: SymplecticPotential, P: Polytope):
    """Raise InvalidInputError unless the log terms of phi pair one to one with the facets of P.

    Each term must have weight 1: the paper's facet potential, up to scale
    and a smooth correction.
    """
    unused, paired = list(phi.log_terms), 0
    for hs in P.halfspaces:
        normal, offset = tuple(float(v) for v in hs.normal), float(hs.offset)
        for term in unused:
            if (
                term.weight == 1.0
                and max(abs(a - b) for a, b in zip(term.normal, normal)) <= 1e-12
                and abs(term.offset - offset) <= 1e-12
            ):
                unused.remove(term)
                paired += 1
                break
    if unused or paired < P.n_facets:
        raise InvalidInputError(
            "the potential's log terms must be the facets of the polytope, each with weight 1"
        )


def bregman_expanded(phi: SymplecticPotential, P: Polytope, xi, xi2):
    """Divergence via the facet-wise expansion

        s * sum_r ( l_r(xi) log(l_r(xi)/l_r(xi2)) - (xi - xi2) . nu_r )
          + (xi2 - xi) . grad f(xi2) + f(xi) - f(xi2)

    valid when the log terms of phi are exactly the facets of P with unit
    weights (plus the polynomial correction f).  Points and results are
    shaped as in ``bregman``.
    """
    require_facet_potential(phi, P)
    xi = np.asarray(xi, dtype=float)
    xi2 = np.asarray(xi2, dtype=float)
    l1 = P.facet_values(xi)
    l2 = P.facet_values(xi2)
    if not (np.all(l1 > 0) and np.all(l2 > 0)):  # also catches nan
        raise DomainError("both points must be interior")
    diff = xi - xi2
    total = np.sum(l1 * np.log(l1 / l2) - rowwise.times(diff, P.normal_matrix.T), axis=-1)
    f = phi.correction
    d = phi.scale * total - rowwise.dot(diff, f.gradient(xi2)) + f(xi) - f(xi2)
    return float(d) if np.ndim(d) == 0 else d


def cosine_residual(phi: SymplecticPotential, p, q, r) -> float:
    """The three-point combination D(p||q) + D(q||r) - D(p||r) as a pairing.

    Returns (x_p - x_q) . (y_r - y_q) and verifies it agrees with the
    divergence combination to 1e-9; a mismatch raises NumericalError.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    r = np.asarray(r, dtype=float)
    pairing = float((p - q) @ (phi.gradient(r) - phi.gradient(q)))
    combo = bregman(phi, p, q) + bregman(phi, q, r) - bregman(phi, p, r)
    if abs(pairing - combo) > 1e-9:
        raise NumericalError(
            f"pairing {pairing:.12e} and divergence combination {combo:.12e} disagree",
            residual=abs(pairing - combo),
        )
    return pairing


def geodesic_point(phi: SymplecticPotential, P: Polytope, spec: GeodesicSpec, t: float):
    """Point at time t: straight in x for flat geodesics, straight in y for dual."""
    if not np.isfinite(t):
        raise InvalidInputError(f"geodesic time {t} must be finite")
    start = np.array(spec.start)
    direction = np.array(spec.direction)
    if spec.kind == "flat":
        point = start + t * direction
        if np.min(P.facet_values(point), initial=np.inf) <= 0:
            exit_t = flat_exit_time(P, start, direction)
            raise DomainError(f"flat geodesic leaves the polytope at t = {exit_t:.12g}")
        return point
    y0 = phi.gradient(start)
    return from_dual(phi, P, y0 + t * direction).x_array
