"""Scenario-driven verification sweeps.

A scenario bundles a polytope, a potential and sampling counts; running it
exercises the boundary continuity, both boundary Pythagorean identities, the
Kullback-Leibler correspondence and the product construction, each against
its tolerance.  All sampling is driven by one seeded generator, so a run is
a pure function of (scenario, seed, tolerances).
"""

from __future__ import annotations

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
from .dually_flat import bregman, bregman_expanded, from_dual, to_dual
from .errors import PolyflatError
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

    def __post_init__(self):
        object.__setattr__(self, "residual", float(self.residual))
        object.__setattr__(self, "passed", bool(self.passed))

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
    name: str = "scenario",
    faces=None,
    samples=None,
    tolerances=None,
    seed: int = 0,
    product_check: bool = True,
    negative_control: bool = False,
):
    """Run all verification sweeps; returns (results, all_passed)."""
    tol = dict(DEFAULT_TOLERANCES)
    tol.update(tolerances or {})
    counts = dict(DEFAULT_SAMPLES)
    counts.update(samples or {})
    rng = np.random.default_rng(seed)
    results = []

    report = validate_delzant(P)
    results.append(
        CheckResult(
            check="delzant",
            inputs={"facets": P.n_facets},
            residual=float(len(report.failures)),
            tolerance=0.0,
            passed=report.valid,
        )
    )

    worst = 0.0
    for _ in range(counts["legendre_points"]):
        x = random_interior(P, rng)
        pair = to_dual(phi, x)
        back = from_dual(phi, P, pair.y_array)
        worst = max(worst, float(np.max(np.abs(back.x_array - x))))
    results.append(
        CheckResult(
            check="legendre-roundtrip",
            inputs={"points": counts["legendre_points"]},
            residual=worst,
            tolerance=tol["legendre_roundtrip"],
            passed=worst <= tol["legendre_roundtrip"],
        )
    )

    worst = 0.0
    for _ in range(counts["divergence_pairs"]):
        a = random_interior(P, rng)
        b = random_interior(P, rng)
        worst = max(worst, abs(bregman(phi, a, b) - bregman_expanded(phi, P, a, b)))
    results.append(
        CheckResult(
            check="divergence-expansion",
            inputs={"pairs": counts["divergence_pairs"]},
            residual=worst,
            tolerance=tol["divergence_expansion"],
            passed=worst <= tol["divergence_expansion"],
        )
    )

    if zero_sum_check(P):
        theta = to_mixture(P)
        factor = phi.scale * float(sum(float(hs.offset) for hs in P.halfspaces))
        worst = 0.0
        for _ in range(counts["divergence_pairs"]):
            a = random_interior(P, rng)
            b = random_interior(P, rng)
            worst = max(worst, abs(bregman(phi, a, b) - factor * kl(theta, a, b)))
        results.append(
            CheckResult(
                check="kl-relation",
                inputs={"pairs": counts["divergence_pairs"], "factor": factor},
                residual=worst,
                tolerance=tol["kl_relation"],
                passed=worst <= tol["kl_relation"],
            )
        )

    if faces is None:
        faces = [
            (r,) for r in range(1, P.n_facets + 1) if P.dim - 1 >= 1
        ]
    for active in faces:
        active = tuple(active)
        chart = face_chart(P, active)
        if chart.dim_face < 1:
            continue
        worst = 0.0
        all_passed = True
        for _ in range(counts["continuity_pairs"]):
            eta = random_face_point(chart, rng)
            eta2 = random_face_point(chart, rng)
            rep = continuity_check(phi, chart, eta, eta2, tolerance=tol["continuity_gap"])
            worst = max(worst, rep.gaps[-1])
            all_passed = all_passed and rep.passed
        results.append(
            CheckResult(
                check="boundary-continuity",
                inputs={"face": list(active), "pairs": counts["continuity_pairs"]},
                residual=worst,
                tolerance=tol["continuity_gap"],
                passed=all_passed,
            )
        )

        worst = 0.0
        for _ in range(counts["boundary_feet"]):
            xi2 = random_interior(P, rng)
            eta = random_face_point(chart, rng)
            foot = project_to_face(phi, chart, xi2)
            if negative_control:
                step = 0.05 * _face_step(chart, rng)
                for cand in (foot.chart_array + step, foot.chart_array - step):
                    try:
                        foot = boundary_point(chart, chart_coords=cand)
                        break
                    except PolyflatError:
                        continue
            rep = pythagoras_boundary_foot(phi, chart, eta, foot, xi2)
            worst = max(worst, abs(rep.residual))
        results.append(
            CheckResult(
                check="pythagoras-boundary-foot",
                inputs={"face": list(active), "draws": counts["boundary_feet"]},
                residual=worst,
                tolerance=tol["boundary_foot"],
                passed=worst <= tol["boundary_foot"],
            )
        )

        worst_id = 0.0
        worst_orth = 0.0
        for _ in range(counts["interior_triples"]):
            eta = random_face_point(chart, rng)
            xi = random_interior(P, rng)
            xi2 = random_interior(P, rng)
            rep = pythagoras_interior_foot(phi, chart, eta, xi, xi2)
            worst_id = max(worst_id, abs(rep.residual - rep.perp_value))
            # rebuild xi2 so the dual velocity is orthogonal to the flat segment
            seg = eta.ambient_array - xi
            w = _orthogonal_direction(seg, rng)
            try:
                x_orth = from_dual(phi, P, phi.gradient(xi) + 0.3 * w)
            except PolyflatError:
                continue
            rep2 = pythagoras_interior_foot(phi, chart, eta, xi, x_orth.x_array)
            worst_orth = max(worst_orth, abs(rep2.residual))
        results.append(
            CheckResult(
                check="pythagoras-interior-identity",
                inputs={"face": list(active), "triples": counts["interior_triples"]},
                residual=worst_id,
                tolerance=tol["interior_identity"],
                passed=worst_id <= tol["interior_identity"],
            )
        )
        results.append(
            CheckResult(
                check="pythagoras-interior-orthogonal",
                inputs={"face": list(active), "triples": counts["interior_triples"]},
                residual=worst_orth,
                tolerance=tol["interior_orthogonal"],
                passed=worst_orth <= tol["interior_orthogonal"],
            )
        )

    if product_check and P.bounded:
        rep = product_boundary_check(
            P,
            scale=phi.scale,
            samples=counts["product_samples"],
            seed=seed,
            tolerance_additivity=tol["product_additivity"],
            tolerance_pythagoras=tol["product_pythagoras"],
        )
        results.append(
            CheckResult(
                check="product-additivity",
                inputs={"samples": rep.samples},
                residual=rep.additivity_max,
                tolerance=tol["product_additivity"],
                passed=rep.additivity_max <= tol["product_additivity"],
            )
        )
        results.append(
            CheckResult(
                check="product-pythagoras",
                inputs={"samples": rep.samples},
                residual=max(rep.side_face_max, rep.bottom_face_max),
                tolerance=tol["product_pythagoras"],
                passed=max(rep.side_face_max, rep.bottom_face_max)
                <= tol["product_pythagoras"],
            )
        )

    return results, all(r.passed for r in results)


def _face_step(chart, rng):
    u = rng.normal(size=chart.dim_face)
    norm = float(np.linalg.norm(u))
    return u / norm if norm > 0 else np.ones(chart.dim_face)


def _orthogonal_direction(seg, rng):
    """A unit vector orthogonal to seg (random in the orthogonal complement)."""
    n = len(seg)
    seg = seg / np.linalg.norm(seg)
    for _ in range(50):
        w = rng.normal(size=n)
        w = w - (w @ seg) * seg
        norm = float(np.linalg.norm(w))
        if norm > 1e-9:
            return w / norm
    raise PolyflatError("could not build an orthogonal direction")
