import math

import numpy as np
import pytest

from helpers import fd_gradient, fd_jacobian
from polyflat.boundary import random_interior
from polyflat.errors import DomainError, InvalidInputError
from polyflat.polynomial import Polynomial
from polyflat.polytope import FaceChart, face_chart, product, restrict_polytope, vertices
from polyflat.potential import (
    AffineLogTerm,
    SymplecticPotential,
    guillemin,
    restrict_potential,
    validity_scan,
)

from fractions import Fraction


def test_guillemin_triangle_values(triangle):
    phi = guillemin(triangle, 1.0)
    assert phi.value((0.25, 0.25)) == pytest.approx(
        0.5 * math.log(0.25) + 0.5 * math.log(0.5), abs=1e-14
    )
    assert phi.value((1 / 3, 1 / 3)) == pytest.approx(math.log(1 / 3), abs=1e-14)


def test_guillemin_interval_and_half_line(interval, half_line):
    phi = guillemin(interval, 0.5)
    x = 0.3
    assert phi.value((x,)) == pytest.approx(
        0.5 * (x * math.log(x) + (1 - x) * math.log(1 - x)), abs=1e-15
    )
    phi_h = guillemin(half_line, 1.0)
    assert phi_h.value((1.0,)) == 0.0
    assert phi_h.hessian((0.25,))[0, 0] == pytest.approx(4.0, abs=1e-12)


def test_value_domain_error(triangle):
    phi = guillemin(triangle, 1.0)
    with pytest.raises(DomainError):
        phi.value((0.0, 0.5))
    with pytest.raises(DomainError):
        phi.value((0.7, 0.7))


@pytest.mark.parametrize("method", ["value", "gradient", "hessian", "value_extended"])
def test_nan_point_is_a_domain_error(triangle, method):
    phi = guillemin(triangle, 1.0)
    with pytest.raises(DomainError):
        getattr(phi, method)((math.nan, 0.25))


@pytest.mark.parametrize("method", ["value", "gradient", "hessian", "value_extended"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_point_without_log_terms_is_a_domain_error(method, bad):
    # the correction alone used to carry nan and inf through silently
    phi = SymplecticPotential(
        dim=2, correction=Polynomial.from_monomials(2, [((1, 0), 1.0), ((0, 2), 0.5)])
    )
    with pytest.raises(DomainError):
        getattr(phi, method)((bad, 0.2))
    with pytest.raises(DomainError):
        getattr(phi, method)([(0.1, 0.2), (0.3, bad)])


@pytest.mark.parametrize("method", ["value", "gradient", "hessian"])
def test_batch_with_one_bad_row_is_a_domain_error(triangle, method):
    phi = guillemin(triangle, 1.0)
    with pytest.raises(DomainError):
        getattr(phi, method)([(0.2, 0.2), (math.nan, 0.25)])
    with pytest.raises(DomainError):
        getattr(phi, method)([(0.2, 0.2), (0.7, 0.7)])


def test_batch_shapes(triangle):
    phi = guillemin(triangle, 1.0)
    pts = np.array([[0.2, 0.3], [0.1, 0.1], [0.5, 0.25]])
    assert phi.value(pts).shape == (3,) and isinstance(phi.value(pts[0]), float)
    assert phi.value_extended(pts).shape == (3,)
    assert phi.gradient(pts).shape == (3, 2) and phi.hessian(pts).shape == (3, 2, 2)
    assert phi.term_values(pts).shape == (3, 3)
    for bad in (np.zeros(3), np.zeros((2, 3)), np.zeros((1, 2, 2))):
        with pytest.raises(InvalidInputError):
            phi.value(bad)


def test_value_extended_boundary(triangle, half_line):
    phi = guillemin(triangle, 1.0)
    assert phi.value_extended((1.0, 0.0)) == 0.0
    assert phi.value_extended((0.5, 0.5)) == pytest.approx(-math.log(2), abs=1e-14)
    assert guillemin(half_line, 1.0).value_extended((0.0,)) == 0.0
    with pytest.raises(DomainError):
        phi.value_extended((0.6, 0.6))


def test_value_extended_continuity(triangle):
    # interior points approaching a boundary point with active value 10^-k
    phi = guillemin(triangle, 1.0)
    eta = np.array([0.5, 0.5])
    target = phi.value_extended(eta)
    w = np.array([1 / 3, 1 / 3]) - eta
    errors = []
    for k in range(4, 14):
        # active facet value at eta + s*w equals s * l3(anchor) = s
        xk = eta + (10.0**-k) * w
        errors.append(abs(phi.value(xk) - target))
    assert all(a > b for a, b in zip(errors, errors[1:]))
    assert errors[-1] < 1e-11  # ~ delta * |log delta| at the last step


def test_value_extended_tiny_arguments(half_line):
    # x log x is evaluated directly for subnormal-range x; it underflows to 0
    phi = guillemin(half_line, 1.0)
    v = phi.value_extended((1e-310,))
    assert abs(v) < 1e-305
    assert phi.value_extended((0.0,)) == 0.0


def test_gradient_against_finite_differences(triangle, square, rng):
    for P, scale in ((triangle, 1.0), (square, 0.5)):
        phi = guillemin(P, scale)
        for _ in range(100):
            x = random_interior(P, rng, margin=5e-3)
            g = phi.gradient(x)
            fd = fd_gradient(phi.value, x)
            assert np.max(np.abs(g - fd)) <= 1e-5 * (1 + np.max(np.abs(g)))


def test_gradient_triangle_golden(triangle):
    phi = guillemin(triangle, 1.0)
    np.testing.assert_allclose(
        phi.gradient((0.25, 0.25)), [math.log(0.5)] * 2, rtol=0, atol=1e-14
    )
    np.testing.assert_allclose(phi.gradient((1 / 3, 1 / 3)), [0, 0], rtol=0, atol=1e-14)


def test_hessian_against_finite_differences(triangle, square, rng):
    for P, scale in ((triangle, 1.0), (square, 0.5)):
        phi = guillemin(P, scale)
        for _ in range(25):
            x = random_interior(P, rng, margin=1e-2)
            H = phi.hessian(x)
            fd = fd_jacobian(phi.gradient, x)
            assert np.max(np.abs(H - fd)) <= 1e-4 * (1 + np.max(np.abs(H)))
            np.testing.assert_array_equal(H, H.T)
            assert np.all(np.linalg.eigvalsh(H) > 0)


def test_hessian_triangle_golden(triangle):
    phi = guillemin(triangle, 1.0)
    np.testing.assert_allclose(
        phi.hessian((0.25, 0.25)), [[6, 2], [2, 6]], rtol=0, atol=1e-12
    )


def test_zero_sum_gradient_simplification(triangle, square, rng):
    # with sum of weighted normals zero the "+1" terms cancel:
    # grad phi = s * sum nu_r log l_r exactly
    for P, scale in ((triangle, 1.0), (square, 0.5)):
        phi = guillemin(P, scale)
        N = P.normal_matrix
        assert np.all(N.sum(axis=0) == 0)
        for _ in range(20):
            x = random_interior(P, rng)
            values = P.facet_values(x)
            simplified = scale * (np.log(values) @ N)
            np.testing.assert_allclose(phi.gradient(x), simplified, rtol=0, atol=1e-12)


def test_correction_terms(triangle, rng):
    f = Polynomial.from_monomials(2, [((3, 0), 0.1), ((1, 1), -0.2)])
    phi = SymplecticPotential(
        dim=2, scale=1.0, log_terms=guillemin(triangle, 1.0).log_terms, correction=f
    )
    for _ in range(20):
        x = random_interior(triangle, rng, margin=1e-2)
        fd = fd_gradient(phi.value, x)
        np.testing.assert_allclose(phi.gradient(x), fd, rtol=0, atol=1e-5)
        fdh = fd_jacobian(phi.gradient, x)
        np.testing.assert_allclose(phi.hessian(x), fdh, rtol=0, atol=1e-4)


def test_restrict_potential_triangle_edge(triangle):
    phi = guillemin(triangle, 1.0)
    chart = face_chart(triangle, [3])
    phi_f = restrict_potential(phi, chart)
    # at the ambient point (eta, 1-eta) the value is eta log eta + (1-eta) log(1-eta)
    for eta in (0.2, 0.5, 0.9):
        u = chart.to_chart((eta, 1 - eta))
        assert phi_f.value(u) == pytest.approx(
            eta * math.log(eta) + (1 - eta) * math.log(1 - eta), abs=1e-12
        )


def test_restrict_potential_paper_chart(triangle):
    phi = guillemin(triangle, 1.0)
    chart = FaceChart(
        polytope=triangle,
        face_active=(3,),
        origin=(Fraction(0), Fraction(1)),
        basis=((1, -1),),
    )
    phi_f = restrict_potential(phi, chart)
    assert phi_f.value((0.3,)) == pytest.approx(
        0.3 * math.log(0.3) + 0.7 * math.log(0.7), abs=1e-14
    )
    # this origin and basis keep the terms face_chart's do: x1 and x2, not term 3
    assert [(t.normal, t.offset) for t in phi_f.log_terms] == [((1.0,), 0.0), ((-1.0,), 1.0)]
    assert len(restrict_potential(phi, face_chart(triangle, [3])).log_terms) == 2


def test_restrict_potential_identity_chart(triangle, rng):
    phi = guillemin(triangle, 1.0)
    chart = face_chart(triangle, [])
    phi_f = restrict_potential(phi, chart)
    for _ in range(10):
        x = random_interior(triangle, rng)
        u = chart.to_chart(x)
        assert phi_f.value(u) == pytest.approx(phi.value(x), abs=1e-12)


def test_restrict_potential_face_hessian(triangle, square, rng):
    # chart Hessian equals B^T Hess(phi) B in the limit onto the face
    for P in (triangle, square):
        phi = guillemin(P, 1.0)
        chart = face_chart(P, [P.n_facets])
        phi_f = restrict_potential(phi, chart)
        u = np.array([0.1] * chart.dim_face)
        H_chart = phi_f.hessian(u)
        fd = fd_jacobian(phi_f.gradient, u)
        np.testing.assert_allclose(H_chart, fd, rtol=0, atol=1e-4)


def test_restriction_decomposes_as_guillemin_plus_smooth(
    triangle, square, simplex3, scaled_triangle, trapezoid
):
    # restricted canonical potential = canonical potential of the face polytope
    # + remainder smooth up to the face boundary (bounded value and FD-gradient)
    for P in (triangle, square, simplex3, scaled_triangle, trapezoid):
        phi = guillemin(P, 1.0)
        for r in range(1, P.n_facets + 1):
            chart = face_chart(P, [r])
            if chart.dim_face < 1:
                continue
            phi_f = restrict_potential(phi, chart)
            face_poly = restrict_polytope(P, chart)
            phi_face = guillemin(face_poly, 1.0)

            def remainder(u):
                return phi_f.value(u) - phi_face.value(u)

            verts = [v.array for v in vertices(face_poly)]
            samples = []
            for v in verts:
                for eps in (1e-3, 1e-5, 1e-7):
                    c = np.mean(verts, axis=0)
                    samples.append(v + eps * (c - v))
            values = [remainder(u) for u in samples]
            grads = [fd_gradient(remainder, u, h=1e-9) for u in samples]
            assert np.max(np.abs(values)) < 1e3
            assert np.max(np.abs(grads)) < 1e3


def test_potential_refuses_a_term_or_correction_of_another_dimension():
    with pytest.raises(InvalidInputError, match="correction polynomial has wrong variable count"):
        SymplecticPotential(dim=2, correction=Polynomial.from_monomials(3, [((1, 0, 0), 1.0)]))
    with pytest.raises(InvalidInputError, match="log term normal has wrong length"):
        SymplecticPotential(dim=2, log_terms=(AffineLogTerm((1.0,), 0.0),))


def test_validity_scan_refuses_an_unbounded_polyhedron(half_line):
    with pytest.raises(InvalidInputError, match="validity scan requires a bounded polytope"):
        validity_scan(guillemin(half_line, 1.0), half_line)


def test_validity_scan_guillemin(triangle):
    phi = guillemin(triangle, 1.0)
    report = validity_scan(phi, triangle, samples=150, seed=3)
    assert report.passed
    # det(G) l1 l2 l3 is identically 1or this polytope at unit scale
    assert report.det_product_min == pytest.approx(1.0, abs=1e-6)
    assert report.det_product_max == pytest.approx(1.0, abs=1e-6)


def test_validity_scan_convex_correction(triangle):
    f = Polynomial.from_monomials(2, [((2, 0), 10.0)])
    phi = SymplecticPotential(
        dim=2, scale=1.0, log_terms=guillemin(triangle, 1.0).log_terms, correction=f
    )
    assert validity_scan(phi, triangle, samples=100, seed=4).passed


def test_validity_scan_negative_scale_fails(triangle):
    # a negative scale is refused where it is read; a potential made concave by
    # its correction instead still fails the scan
    with pytest.raises(InvalidInputError, match="scale -1.0 is not a finite number > 0"):
        guillemin(triangle, -1.0)
    f = Polynomial.from_monomials(2, [((2, 0), -50.0)])
    phi = SymplecticPotential(
        dim=2, scale=1.0, log_terms=guillemin(triangle, 1.0).log_terms, correction=f
    )
    assert not validity_scan(phi, triangle, samples=50, seed=5).passed


def test_validity_scan_reports_the_points_it_tested(triangle, monkeypatch):
    # the log terms of the inner triangle {x1, x2 >= 0.2, x1 + x2 <= 0.9}: most
    # draws in the outer triangle lie outside phi's domain and are not tested
    inner = (((1.0, 0.0), -0.2), ((0.0, 1.0), -0.2), ((-1.0, -1.0), 0.9))
    phi = SymplecticPotential(
        dim=2, scale=1.0, log_terms=tuple(AffineLogTerm(normal=n, offset=o) for n, o in inner)
    )
    rows = []
    hessian = SymplecticPotential.hessian

    def counted(self, x):
        rows.append(len(x))
        return hessian(self, x)

    monkeypatch.setattr(SymplecticPotential, "hessian", counted)
    report = validity_scan(phi, triangle)
    assert report.samples == sum(rows) < 200


def test_restrict_potential_rejects_negative_terms(triangle):
    chart = face_chart(triangle, [3])
    bad = SymplecticPotential(
        dim=2,
        scale=1.0,
        log_terms=(AffineLogTerm(normal=(1.0, 0.0), offset=-0.25),),
    )
    with pytest.raises(DomainError):
        restrict_potential(bad, chart)


def test_restrict_potential_names_the_term_at_fault(triangle):
    # term 1 (x1) vanishes on facet 1 and is dropped; term 4 is negative at
    # the face's vertex (0, 0): x2 - 1/2 there, and x1 - 1/4, constant on the
    # face, everywhere on it
    for normal, offset in [((0.0, 1.0), -0.5), ((1.0, 0.0), -0.25)]:
        terms = guillemin(triangle, 1.0).log_terms + (AffineLogTerm(normal, offset),)
        bad = SymplecticPotential(dim=2, scale=1.0, log_terms=terms)
        with pytest.raises(DomainError, match="^log term 4 is negative at a vertex of the face$"):
            restrict_potential(bad, face_chart(triangle, [1]))


def test_restrict_potential_tests_terms_at_the_ambient_vertices(triangle):
    # the pulled-back terms are tested at the face's own vertices, which needs no chart projection
    chart = face_chart(triangle, [3])
    restrict_potential(guillemin(triangle), chart)
    assert "left_inverse" not in chart.__dict__


def test_restrict_potential_is_memoized_per_chart(triangle):
    phi = guillemin(triangle, 1.0)
    chart = face_chart(triangle, [3])
    assert restrict_potential(phi, chart) is restrict_potential(phi, chart)
    twin = guillemin(triangle, 1.0)  # equal to phi, but its own memo
    assert restrict_potential(twin, chart) is not restrict_potential(phi, chart)


def test_restrict_potential_checks_faces_of_unbounded_polytopes(triangle, half_line):
    prod = product(triangle, half_line)
    bad = SymplecticPotential(
        dim=3, scale=1.0, log_terms=(AffineLogTerm(normal=(1.0, 0.0, 0.0), offset=-0.25),)
    )
    # bottom face triangle x {0}: bounded, negative at the vertex (0, 0, 0)
    bottom = face_chart(prod, [4])
    assert restrict_polytope(prod, bottom).bounded
    with pytest.raises(DomainError):
        restrict_potential(bad, bottom)
    # side face (edge x1 + x2 = 1) x ray: unbounded, negative at the vertex (0, 1, 0)
    side = face_chart(prod, [3])
    assert not restrict_polytope(prod, side).bounded
    with pytest.raises(DomainError):
        restrict_potential(bad, side)
    phi_f = restrict_potential(guillemin(prod, 1.0), side)
    assert phi_f.dim == 2 and len(phi_f.log_terms) == 3


def test_restrict_potential_checks_the_rays_of_a_face(triangle, half_line):
    # -x3 + 5 is positive at every vertex of the side face [3] of the
    # triangle x ray, but negative past x3 = 5 along the face's ray
    prod = product(triangle, half_line)
    side = face_chart(prod, [3])
    falling = SymplecticPotential(
        dim=3, scale=1.0, log_terms=(AffineLogTerm(normal=(0.0, 0.0, -1.0), offset=5.0),)
    )
    with pytest.raises(DomainError, match="term 1 .* ray of the face"):
        restrict_potential(falling, side)
    # a term that grows along the ray, or is constant on it, is kept
    rising = SymplecticPotential(
        dim=3, scale=1.0,
        log_terms=(AffineLogTerm(normal=(0.0, 0.0, 1.0), offset=0.0),
                   AffineLogTerm(normal=(1.0, 0.0, 0.0), offset=0.5)),
    )
    assert len(restrict_potential(rising, side).log_terms) == 2
