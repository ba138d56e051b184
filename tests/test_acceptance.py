"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run pytest with -s to see them all).
"""

import math
import time

import numpy as np

from helpers import fd_gradient, fd_jacobian
from polyflat.boundary import (
    boundary_divergence,
    boundary_point,
    continuity_check,
    dual_geodesic_limit,
    limit_divergence,
    product_boundary_check,
    project_to_face,
    pythagoras_boundary_foot,
    pythagoras_interior_foot,
    random_face_point,
    random_interior,
)
from polyflat.dually_flat import (
    GeodesicSpec,
    bregman,
    bregman_expanded,
    from_dual,
    to_dual,
)
from polyflat.mixture import kl, to_mixture, zero_sum_check
from polyflat.polynomial import Polynomial
from polyflat.polytope import face_chart, validate_delzant
from polyflat.potential import SymplecticPotential, guillemin

LOG2 = math.log(2.0)


def _report(name, passed):
    print(f"\nACCEPTANCE {name}: {'PASS' if passed else 'FAIL'}")
    assert passed, name


def test_criterion_1_triangle_golden_values(triangle):
    t0 = time.perf_counter()
    phi = guillemin(triangle, 1.0)
    ok = True

    y = to_dual(phi, (0.25, 0.25)).y_array
    ok &= bool(np.max(np.abs(y - math.log(0.5))) <= 1e-12)

    H = phi.hessian((0.25, 0.25))
    ok &= bool(np.max(np.abs(H - np.array([[6.0, 2.0], [2.0, 6.0]]))) <= 1e-12)

    limit = dual_geodesic_limit(
        phi, triangle, GeodesicSpec(kind="dual", start=(0.25, 0.25), direction=(1.0, 1.0))
    )
    ok &= bool(np.max(np.abs(np.array(limit.point) - 0.5)) <= 1e-8)

    chart = face_chart(triangle, [3])
    foot = boundary_point(chart, ambient=limit.point)
    ok &= abs(limit_divergence(phi, chart, foot, (0.25, 0.25)) - LOG2) <= 1e-8

    eta = boundary_point(chart, ambient=(0.3, 0.7))
    lhs = limit_divergence(phi, chart, eta, (0.25, 0.25))
    rhs = boundary_divergence(phi, chart, eta, foot) + limit_divergence(
        phi, chart, foot, (0.25, 0.25)
    )
    ok &= abs(lhs - rhs) <= 1e-8

    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    _report(f"1 triangle golden values ({elapsed * 1e3:.0f} ms)", ok)


def test_criterion_2_half_line_and_product(triangle, half_line):
    phi_h = guillemin(half_line, 1.0)
    ok = abs(bregman(phi_h, (1.0,), (2.0,)) - (1 - LOG2)) <= 1e-12

    report = product_boundary_check(triangle, scale=1.0, samples=100, seed=2024)
    ok &= report.additivity_max <= 1e-9
    ok &= report.side_face_max <= 1e-9
    ok &= report.bottom_face_max <= 1e-9
    _report(
        "2 half-line divergence and product boundary identities "
        f"(max residual {max(report.additivity_max, report.side_face_max, report.bottom_face_max):.2e})",
        ok,
    )


def test_criterion_3_boundary_continuity(triangle, square):
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    ok = True
    worst = 0.0
    for P, scale in ((triangle, 1.0), (square, 0.5)):
        phi = guillemin(P, scale)
        for facet in range(1, P.n_facets + 1):
            chart = face_chart(P, [facet])
            for _ in range(20):
                eta = random_face_point(chart, rng)
                eta2 = random_face_point(chart, rng)
                report = continuity_check(phi, chart, eta, eta2, k_max=8)
                worst = max(worst, report.gaps[-1])
                ok &= report.gaps[-1] <= 1e-5
                tail = report.gaps[-4:]
                ok &= all(a > b for a, b in zip(tail, tail[1:]))
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10.0
    _report(f"3 boundary continuity (worst gap {worst:.2e}, {elapsed:.2f} s)", ok)


def test_criterion_4_boundary_foot_pythagoras(triangle, square):
    rng = np.random.default_rng(4)
    ok = True
    worst = 0.0
    worst_neg = math.inf
    for P, scale in ((triangle, 1.0), (square, 0.5)):
        phi = guillemin(P, scale)
        charts = [face_chart(P, [r]) for r in range(1, P.n_facets + 1)]
        for _ in range(50):
            chart = charts[int(rng.integers(len(charts)))]
            xi2 = random_interior(P, rng)
            eta = random_face_point(chart, rng)
            foot = project_to_face(phi, chart, xi2)
            report = pythagoras_boundary_foot(phi, chart, eta, foot, xi2)
            worst = max(worst, abs(report.residual))
            ok &= abs(report.residual) <= 1e-8

            # negative control: displace the foot by 0.05 along the face
            step = 0.05 / float(np.linalg.norm(chart.basis_array, axis=0)[0])
            wrong = None
            for delta in (step, -step):
                try:
                    wrong = boundary_point(
                        chart, chart_coords=foot.chart_coords + [delta]
                    )
                    break
                except Exception:
                    continue
            if wrong is None:
                continue
            neg = pythagoras_boundary_foot(phi, chart, eta, wrong, xi2)
            worst_neg = min(worst_neg, abs(neg.residual))
            ok &= abs(neg.residual) >= 1e-4
    _report(
        f"4 boundary-foot pythagoras (worst {worst:.2e}, weakest control {worst_neg:.2e})",
        ok,
    )


def test_criterion_5_interior_foot_pythagoras(triangle):
    rng = np.random.default_rng(5)
    phi = guillemin(triangle, 1.0)
    chart = face_chart(triangle, [3])
    ok = True
    worst_id = 0.0
    for _ in range(1000):
        eta = random_face_point(chart, rng)
        xi = random_interior(triangle, rng)
        xi2 = random_interior(triangle, rng)
        report = pythagoras_interior_foot(phi, chart, eta, xi, xi2)
        worst_id = max(worst_id, abs(report.residual - report.perp_value))
        ok &= abs(report.residual - report.perp_value) <= 1e-9

    worst_orth = 0.0
    done = 0
    while done < 100:
        eta = random_face_point(chart, rng)
        xi = random_interior(triangle, rng, margin=0.02)
        seg = eta.ambient - xi
        w = np.array([-seg[1], seg[0]])
        w /= np.linalg.norm(w)
        xi2 = from_dual(phi, triangle, phi.gradient(xi) + 0.4 * w).x_array
        report = pythagoras_interior_foot(phi, chart, eta, xi, xi2)
        worst_orth = max(worst_orth, abs(report.residual))
        ok &= abs(report.residual) <= 1e-9
        done += 1
    _report(
        f"5 interior-foot pythagoras (identity {worst_id:.2e}, orthogonal {worst_orth:.2e})",
        ok,
    )


def test_criterion_6_mixture_torification(triangle, square, trapezoid):
    rng = np.random.default_rng(6)
    ok = True
    for P, scale in ((triangle, 1.0), (square, 0.5)):
        theta = to_mixture(P)
        phi = guillemin(P, scale)
        factor = scale * float(sum(float(hs.offset) for hs in P.halfspaces))
        for _ in range(100):
            x = random_interior(P, rng)
            x2 = random_interior(P, rng)
            ok &= abs(float(theta.probabilities(x).sum()) - 1.0) <= 1e-14
            ok &= abs(bregman(phi, x, x2) - factor * kl(theta, x, x2)) <= 1e-12
    ok &= validate_delzant(trapezoid).valid
    ok &= not zero_sum_check(trapezoid)
    _report("6 mixture families and zero-sum criterion", ok)


def test_criterion_7_numerical_suite(triangle, square):
    rng = np.random.default_rng(7)
    f = Polynomial.from_monomials(2, [((3, 0), 0.1)])
    tri_phi = guillemin(triangle, 1.0)
    cases = [
        (triangle, tri_phi),
        (square, guillemin(square, 0.5)),
        (
            triangle,
            SymplecticPotential(dim=2, scale=1.0, log_terms=tri_phi.log_terms, correction=f),
        ),
    ]
    ok = True
    worst_rt = worst_fd = worst_exp = 0.0
    for P, phi in cases:
        for _ in range(100):
            x = random_interior(P, rng, margin=1e-4)
            back = from_dual(phi, P, phi.gradient(x)).x_array
            worst_rt = max(worst_rt, float(np.max(np.abs(back - x))))

        for _ in range(100):
            x = random_interior(P, rng, margin=5e-3)
            g = phi.gradient(x)
            fd = fd_gradient(phi.value, x)
            worst_fd = max(
                worst_fd, float(np.max(np.abs(g - fd))) / (1 + float(np.max(np.abs(g))))
            )
            ok &= np.max(np.abs(g - fd)) <= 1e-5 * (1 + np.max(np.abs(g)))
            H = phi.hessian(x)
            fdh = fd_jacobian(phi.gradient, x)
            ok &= np.max(np.abs(H - fdh)) <= 1e-4 * (1 + np.max(np.abs(H)))

        for _ in range(100):
            a = random_interior(P, rng)
            b = random_interior(P, rng)
            gap = abs(bregman(phi, a, b) - bregman_expanded(phi, P, a, b))
            worst_exp = max(worst_exp, gap)
            ok &= gap <= 1e-10
    ok &= worst_rt <= 1e-9
    _report(
        "7 numerical suite "
        f"(roundtrip {worst_rt:.2e}, fd {worst_fd:.2e}, expansion {worst_exp:.2e})",
        ok,
    )
