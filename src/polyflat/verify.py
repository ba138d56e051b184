"""Scenario-driven verification sweeps.

A scenario bundles a polytope, a potential and sampling counts; running it
exercises the boundary continuity, both boundary Pythagorean identities, the
Kullback-Leibler correspondence and the product construction, each against
its tolerance.  All sampling is driven by one seeded generator, so a run is
a pure function of (scenario, seed, tolerances).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boundary import (
    boundary_face,
    boundary_point,
    continuity_check,
    open_face_rows,
    product_boundary_check,
    project_to_face,
    pythagoras_boundary_foot,
    pythagoras_interior_foot,
    random_face_point,
    random_interior,
)
from .dually_flat import (
    NewtonSolve,
    bregman,
    bregman_expanded,
    newton_solve,
    require_converged,
    require_facet_potential,
)
from .errors import InvalidInputError, PolyflatError
from .jsonio import face_name
from .mixture import kl, to_mixture, zero_sum_check
from .polytope import Polytope, validate_delzant
from .potential import SymplecticPotential

DEFAULT_TOLERANCES = {
    "legendre_roundtrip": 1e-9,
    "divergence_expansion": 1e-10,
    "kl_relation": 1e-12,
    "continuity_gap": 1e-5,
    "boundary_foot": 1e-8,
    "interior_identity": 1e-9,
    "interior_orthogonal": 1e-9,
    "product_additivity": 1e-10,
    "product_pythagoras": 1e-9,
}


DEFAULT_SAMPLES = {
    "legendre_points": 25,
    "divergence_pairs": 25,
    "continuity_pairs": 3,
    "boundary_feet": 10,
    "interior_triples": 50,
    "product_samples": 50,
}


def merge_tolerances(overrides=None) -> dict:
    """DEFAULT_TOLERANCES with overrides by name, each a finite number >= 0."""
    return _merge(
        DEFAULT_TOLERANCES, overrides, "tolerance",
        lambda v: isinstance(v, (int, float)) and 0 <= v < math.inf,
        "tolerance {name!r} must be a finite number >= 0: {value!r}",
    )


def _merge(defaults, overrides, what, valid, invalid):
    """defaults updated by overrides, a dict from names to values.

    Any other override would skip or weaken a check in silence, so it raises
    InvalidInputError: an unknown name, a bool, or a value that valid rejects,
    with the message invalid, a format string of name and value.
    """
    overrides = {} if overrides is None else overrides
    if not isinstance(overrides, dict):
        raise InvalidInputError(f"{what} overrides must map names to values: {overrides!r}")
    merged = dict(defaults)
    for name, value in overrides.items():
        if name not in merged:
            raise InvalidInputError(f"{what} {name!r} is unknown; known: {', '.join(merged)}")
        if isinstance(value, bool) or not valid(value):
            raise InvalidInputError(invalid.format(name=name, value=value))
        merged[name] = value
    return merged


@dataclass(frozen=True)
class CheckResult:
    check: str
    inputs: dict
    residual: float
    tolerance: float
    passed: bool

    def as_dict(self):
        return {
            "check": self.check,
            "inputs": self.inputs,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


def run_scenario(
    P: Polytope,
    phi: SymplecticPotential,
    faces=None,
    samples=None,
    tolerances=None,
    seed: int = 0,
    product_check: bool | None = None,
    negative_control: bool = False,
):
    """Run all verification sweeps; returns (results, all_passed).

    phi must be P's facet potential (``require_facet_potential``); kl-relation
    runs when the facet normals sum to zero and the correction is affine.
    The product checks run on a bounded P: product_check defaults to
    P.bounded, and True on an unbounded P raises InvalidInputError.
    faces lists faces of dimension >= 1, each by its non-empty facet indices,
    by default every facet when P.dim >= 2; samples and tolerances override the defaults by name.

    Every face is validated before the first draw.  The sweep then makes
    each face's draws, in face order, and evaluates after them, each face
    reading its own block of rows: one ambient Newton solve for the Legendre
    round trip's targets and, after them, the orthogonal rebuild's of all
    faces; the interior-foot identity of all faces on the drawn and on the
    rebuilt points, in one batch each; and the chart work in one call each
    of ``continuity_check``, ``project_to_face`` and
    ``pythagoras_boundary_foot``, which solve and evaluate the faces of one
    shape together.  No draw reads a result and every batch row gets the
    floats of a one-row call, so batching changes no float: the results are
    those of a face-by-face sweep.  A round-trip row the solve leaves
    unconverged raises what ``from_dual`` raises for its target
    (``require_converged``), after the face draws.
    """
    tol = merge_tolerances(tolerances)
    counts = _merge(
        DEFAULT_SAMPLES, samples, "sample count", lambda v: isinstance(v, int) and v >= 1,
        "sample count {name} must be a positive integer, not {value!r}",
    )
    product_check = P.bounded if product_check is None else product_check
    for name, flag in (("product_check", product_check), ("negative_control", negative_control)):
        if not isinstance(flag, bool):
            raise InvalidInputError(f"scenario key {name!r} must be true or false: {flag!r}")
    if product_check and not P.bounded:
        raise InvalidInputError(
            "scenario key 'product_check' is true, but the product checks need a bounded polytope"
        )
    require_facet_potential(phi, P)
    if faces is None:
        faces = [(r,) for r in range(1, P.n_facets + 1)] if P.dim > 1 else []
    if not isinstance(faces, (list, tuple)):
        raise InvalidInputError(f"scenario key 'faces' must be a list of faces, not {faces!r}")
    faces = [face_name(active, "a face in scenario key 'faces'") for active in faces]
    sweep = [(list(active), boundary_face(P, active)) for active in faces]
    rng = np.random.default_rng(seed)
    results = []

    def verdict(check, inputs, residual, tolerance, holds=True, at=None):
        """Record a check, at the end of results or in the place at.

        It passes when residual <= tolerance and its own condition holds.
        """
        residual = float(residual)
        passed = residual <= tolerance and holds
        result = CheckResult(check, inputs, residual, tolerance, bool(passed))
        if at is None:
            results.append(result)
        else:
            results[at] = result

    report = validate_delzant(P)
    verdict("delzant", {"facets": P.n_facets}, len(report.failures), 0.0, holds=report.valid)

    # the round trip's points; its verdict takes this place after the one solve
    x = random_interior(P, rng, size=counts["legendre_points"])
    legendre = len(results)
    results.append(None)

    a, b = _draw_pairs(counts["divergence_pairs"], P, rng)
    verdict(
        "divergence-expansion",
        {"pairs": counts["divergence_pairs"]},
        _worst(np.abs(bregman(phi, a, b) - bregman_expanded(phi, P, a, b))),
        tol["divergence_expansion"],
    )

    # D = s * sum(lambda) * KL for the facet potential up to an affine correction
    if zero_sum_check(P) and all(sum(e) <= 1 for e, _ in phi.correction.terms):
        theta = to_mixture(P)
        factor = phi.scale * float(sum(float(hs.offset) for hs in P.halfspaces))
        a, b = _draw_pairs(counts["divergence_pairs"], P, rng)
        verdict(
            "kl-relation",
            {"pairs": counts["divergence_pairs"], "factor": factor},
            _worst(np.abs(bregman(phi, a, b) - factor * kl(theta, a, b))),
            tol["kl_relation"],
        )

    # each face's draws, in face order; no draw reads a solve, so the
    # generator gives each face the samples of a face-by-face sweep
    pairs, triples = counts["continuity_pairs"], counts["interior_triples"]
    chart_draws, ambient_draws = [], []
    for active, chart in sweep:
        continuity = random_face_point(chart, rng, size=2 * pairs)
        xi_feet = random_interior(P, rng, size=counts["boundary_feet"])
        eta_feet = random_face_point(chart, rng, size=counts["boundary_feet"])
        steps = 0.05 * _face_steps(chart, rng, len(xi_feet)) if negative_control else None
        chart_draws.append((continuity, xi_feet, eta_feet, steps))
        xi, xi2 = random_interior(P, rng, size=2 * triples).reshape(2, triples, P.dim)
        etas = random_face_point(chart, rng, size=triples)
        # dual velocities orthogonal to the flat segments toward eta
        w = _orthogonal_directions(etas.ambient - xi, rng)
        ambient_draws.append((etas, xi, xi2, w))

    # one Newton solve: the round trip's targets, then every face's rebuild of
    # xi2 so that the dual velocity is orthogonal, a block of triples rows per
    # face; every row gets the floats of a one-row solve
    targets = [phi.gradient(x)]
    if sweep:
        etas, xi, xi2, w = zip(*ambient_draws)
        etas, xi, xi2, w = list(etas), np.concatenate(xi), np.concatenate(xi2), np.concatenate(w)
        targets.append(phi.gradient(xi) + 0.3 * w)
    Y = np.concatenate(targets)
    X, residual, status, iterations = newton_solve(phi, P, Y)
    m = len(x)
    require_converged(P, Y[:m], NewtonSolve(X[:m], residual[:m], status[:m], iterations[:m]))
    verdict(
        "legendre-roundtrip",
        {"points": m},
        _worst(np.abs(X[:m] - x)),
        tol["legendre_roundtrip"],
        at=legendre,
    )

    if sweep:
        # the interior-foot identities of all faces in one batch, a block of
        # triples rows per face; every row gets the floats of a one-row call
        reps = pythagoras_interior_foot(phi, etas, xi, xi2)
        identity = np.abs(reps.residual - reps.perp_value).reshape(-1, triples)
        # a rebuild row Newton does not solve is left out of the residual and
        # fails its face's check
        x_orth, ok = X[m:], status[m:] == "converged"
        solved = ok.reshape(-1, triples)
        solved_etas = [e[mask] for e, mask in zip(etas, solved)]
        reps = pythagoras_interior_foot(phi, solved_etas, xi[ok], x_orth[ok])
        orthogonal = np.zeros(len(ok))
        orthogonal[ok] = np.abs(reps.residual)
        orthogonal = orthogonal.reshape(-1, triples)

        # the chart work of all faces in one call each, the faces of one shape
        # in one batch (``project_to_face``); every row gets its one-face floats
        continuity, xi_feet, eta_feet, steps = zip(*chart_draws)
        gaps = continuity_check(
            phi, [c[:pairs] for c in continuity], [c[pairs:] for c in continuity]
        ).gaps.reshape(len(sweep), pairs, -1)
        feet = project_to_face(phi, [chart for _, chart in sweep], list(xi_feet))
        if negative_control:
            feet = [_moved(f, s) for f, s in zip(feet, steps)]
        foot_residuals = pythagoras_boundary_foot(
            phi, list(eta_feet), feet, np.concatenate(xi_feet)
        ).residual.reshape(len(sweep), -1)

    for j, (active, _) in enumerate(sweep):
        # each pair's last gap is within tolerance, and its last four gaps decrease
        tail = gaps[j][:, -4:]
        verdict(
            "boundary-continuity",
            {"face": active, "pairs": pairs},
            _worst(gaps[j][:, -1]),
            tol["continuity_gap"],
            holds=np.all(tail[:, :-1] > tail[:, 1:]),
        )
        verdict(
            "pythagoras-boundary-foot",
            {"face": active, "draws": counts["boundary_feet"]},
            _worst(np.abs(foot_residuals[j])),
            tol["boundary_foot"],
        )

        inputs = {"face": active, "triples": triples}
        verdict(
            "pythagoras-interior-identity", inputs, _worst(identity[j]), tol["interior_identity"]
        )
        unsolved = int(np.sum(~solved[j]))
        verdict(
            "pythagoras-interior-orthogonal",
            {**inputs, "unconverged": unsolved} if unsolved else inputs,
            _worst(orthogonal[j]),
            tol["interior_orthogonal"],
            holds=not unsolved,
        )

    if product_check:
        rep = product_boundary_check(
            P, scale=phi.scale, samples=counts["product_samples"], seed=seed
        )
        inputs = {"samples": rep.samples}
        verdict("product-additivity", inputs, rep.additivity_max, tol["product_additivity"])
        verdict(
            "product-pythagoras",
            inputs,
            max(rep.side_face_max, rep.bottom_face_max),
            tol["product_pythagoras"],
        )

    return results, all(r.passed for r in results)


def _moved(feet, steps):
    """The feet, each moved off the projection by its step either way that stays on the face.

    Row by row: U + step when that is in the open face, else U - step, else U.
    """
    U = feet.chart_coords
    plus, minus = U + steps, U - steps
    in_plus = open_face_rows(feet.chart, plus)[:, None]
    in_minus = open_face_rows(feet.chart, minus)[:, None]
    moved = np.where(in_plus, plus, np.where(in_minus, minus, U))
    return boundary_point(feet.chart, chart_coords=moved)


def _draw_pairs(count, P, rng):
    """count pairs of interior points, drawn as one block, as two (count, n) arrays."""
    a, b = random_interior(P, rng, size=2 * count).reshape(2, count, P.dim)
    return a, b


def _worst(errors):
    """The largest entry of an array of nonnegative errors, 0.0 when empty."""
    return float(np.max(errors, initial=0.0))


def _face_steps(chart, rng, count):
    """count random unit steps in chart coordinates, as rows (count, k)."""
    u = rng.normal(size=(count, chart.dim_face))
    norm = np.linalg.norm(u, axis=1, keepdims=True)
    return np.divide(u, norm, out=np.ones_like(u), where=norm > 0)


def _orthogonal_directions(seg, rng):
    """Rows of unit vectors, each orthogonal to its row of seg (m, n).

    Each is random in the orthogonal complement of its row; a row whose
    projection has norm at most 1e-9 is redrawn, in row order, for at most
    50 rounds in all.
    """
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
