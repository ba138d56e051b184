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
    boundary_point,
    continuity_check,
    product_boundary_check,
    project_to_face,
    pythagoras_boundary_foot,
    pythagoras_interior_foot,
    random_face_point,
    random_interior,
)
from .dually_flat import bregman, bregman_expanded, from_dual, newton_solve
from .errors import InvalidInputError, PolyflatError
from .mixture import kl, to_mixture, zero_sum_check
from .polytope import Polytope, face_chart, validate_delzant
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


def merge_tolerances(overrides=None) -> dict:
    """DEFAULT_TOLERANCES with overrides by name, each a finite number >= 0.

    Any other override would skip or weaken a check in silence, so it raises
    InvalidInputError: an unknown name, a bool, a non-number, nan, inf or < 0.
    """
    tol = dict(DEFAULT_TOLERANCES)
    for name, value in (overrides or {}).items():
        if name not in tol:
            raise InvalidInputError(f"tolerance {name!r} is unknown; known: {', '.join(tol)}")
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        if not (number and 0 <= value < math.inf):
            raise InvalidInputError(f"tolerance {name!r} must be a finite number >= 0: {value!r}")
        tol[name] = value
    return tol


DEFAULT_SAMPLES = {
    "legendre_points": 25,
    "divergence_pairs": 25,
    "continuity_pairs": 3,
    "boundary_feet": 10,
    "interior_triples": 50,
    "product_samples": 50,
}


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
    product_check: bool = True,
    negative_control: bool = False,
):
    """Run all verification sweeps; returns (results, all_passed)."""
    tol = merge_tolerances(tolerances)
    counts = dict(DEFAULT_SAMPLES)
    counts.update(samples or {})
    for name, count in counts.items():
        if isinstance(count, bool) or not isinstance(count, int) or count < 1:
            raise InvalidInputError(
                f"sample count {name} must be a positive integer, not {count!r}"
            )
    rng = np.random.default_rng(seed)
    results = []

    def verdict(check, inputs, residual, tolerance, passed=None):
        """Record a check; it passes when residual <= tolerance unless passed is given."""
        residual = float(residual)
        passed = residual <= tolerance if passed is None else passed
        results.append(CheckResult(check, inputs, residual, tolerance, bool(passed)))

    report = validate_delzant(P)
    verdict("delzant", {"facets": P.n_facets}, len(report.failures), 0.0, passed=report.valid)

    x = random_interior(P, rng, size=counts["legendre_points"])
    back = np.array([pair.x for pair in from_dual(phi, P, phi.gradient(x))]).reshape(x.shape)
    verdict(
        "legendre-roundtrip",
        {"points": counts["legendre_points"]},
        _worst(np.abs(back - x)),
        tol["legendre_roundtrip"],
    )

    a, b = _draw_pairs(counts["divergence_pairs"], P, rng)
    verdict(
        "divergence-expansion",
        {"pairs": counts["divergence_pairs"]},
        _worst(np.abs(bregman(phi, a, b) - bregman_expanded(phi, P, a, b))),
        tol["divergence_expansion"],
    )

    if zero_sum_check(P):
        theta = to_mixture(P)
        factor = phi.scale * float(sum(float(hs.offset) for hs in P.halfspaces))
        a, b = _draw_pairs(counts["divergence_pairs"], P, rng)
        verdict(
            "kl-relation",
            {"pairs": counts["divergence_pairs"], "factor": factor},
            _worst(np.abs(bregman(phi, a, b) - factor * kl(theta, a, b))),
            tol["kl_relation"],
        )

    if faces is None:
        faces = [(r,) for r in range(1, P.n_facets + 1)] if P.dim > 1 else []
    for active in faces:
        active = tuple(active)
        chart = face_chart(P, active)
        if chart.dim_face < 1:
            continue
        pairs = counts["continuity_pairs"]
        etas = random_face_point(chart, rng, size=2 * pairs)
        rep = continuity_check(
            phi, chart, etas[:pairs], etas[pairs:], tolerance=tol["continuity_gap"]
        )
        verdict(
            "boundary-continuity",
            {"face": list(active), "pairs": pairs},
            _worst(rep.gaps[:, -1]),
            tol["continuity_gap"],
            passed=np.all(rep.passed),
        )

        xi2 = random_interior(P, rng, size=counts["boundary_feet"])
        etas = random_face_point(chart, rng, size=counts["boundary_feet"])
        feet = project_to_face(phi, chart, xi2)
        if negative_control:
            # move each foot off the projection, by a step either way that stays on the face
            U = feet.chart_coords.copy()
            for i, step in enumerate(0.05 * _face_steps(chart, rng, len(U))):
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
            _worst(np.abs(pythagoras_boundary_foot(phi, chart, etas, feet, xi2).residual)),
            tol["boundary_foot"],
        )

        triples = counts["interior_triples"]
        xi, xi2 = random_interior(P, rng, size=2 * triples).reshape(2, triples, P.dim)
        etas = random_face_point(chart, rng, size=triples)
        # dual velocities orthogonal to the flat segments toward eta
        w = _orthogonal_directions(etas.ambient - xi, rng)
        reps = pythagoras_interior_foot(phi, chart, etas, xi, xi2)
        worst_id = _worst(np.abs(reps.residual - reps.perp_value))
        # rebuild xi2 so the dual velocity is orthogonal; skip targets Newton cannot reach
        x_orth, _, status, _ = newton_solve(phi, P, phi.gradient(xi) + 0.3 * w)
        ok = status == "converged"
        reps = pythagoras_interior_foot(phi, chart, etas[ok], xi[ok], x_orth[ok])
        inputs = {"face": list(active), "triples": triples}
        verdict("pythagoras-interior-identity", inputs, worst_id, tol["interior_identity"])
        verdict(
            "pythagoras-interior-orthogonal",
            inputs,
            _worst(np.abs(reps.residual)),
            tol["interior_orthogonal"],
        )

    if product_check and P.bounded:
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
