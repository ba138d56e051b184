import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings

from helpers import delzant_products, random_unimodular, transform_polytope
from polyflat.boundary import random_interior
from polyflat.dually_flat import bregman
from polyflat.errors import DegenerateError, DomainError, InvalidInputError, NotTorifiableError
from polyflat.mixture import MixtureFamily, from_mixture, kl, to_mixture, zero_sum_check
from polyflat import polytope
from polyflat.polytope import Polytope, halfspace, vertices
from polyflat.potential import SymplecticPotential, AffineLogTerm, guillemin


def test_zero_sum_check(triangle, square, trapezoid, scaled_triangle):
    assert zero_sum_check(triangle)
    assert zero_sum_check(square)
    assert zero_sum_check(scaled_triangle)
    assert not zero_sum_check(trapezoid)


def test_zero_sum_invariance(triangle, trapezoid, rng):
    for P in (triangle, trapezoid):
        base = zero_sum_check(P)
        perm = Polytope(dim=P.dim, halfspaces=P.halfspaces[::-1])
        assert zero_sum_check(perm) == base
        for _ in range(5):
            M = random_unimodular(rng, P.dim)
            moved = transform_polytope(P, M, [Fraction(0)] * P.dim)
            assert zero_sum_check(moved) == base


def test_to_mixture_triangle(triangle, rng):
    theta = to_mixture(triangle)
    np.testing.assert_allclose(theta.probabilities((0.25, 0.25)), [0.25, 0.25, 0.5])
    for _ in range(100):
        x = random_interior(triangle, rng)
        p = theta.probabilities(x)
        assert abs(p.sum() - 1) <= 1e-14
        np.testing.assert_allclose(p, [x[0], x[1], 1 - x[0] - x[1]], atol=1e-15)


def test_to_mixture_square_and_scaled(square, scaled_triangle, rng):
    theta = to_mixture(square)
    x = (0.3, 0.8)
    np.testing.assert_allclose(
        theta.probabilities(x), np.array([0.3, 0.7, 0.8, 0.2]) / 2, atol=1e-15
    )
    theta2 = to_mixture(scaled_triangle)
    np.testing.assert_allclose(
        theta2.probabilities(x), [0.15, 0.4, (2 - 1.1) / 2], atol=1e-15
    )
    for th, P in ((theta, square), (theta2, scaled_triangle)):
        for _ in range(100):
            p = th.probabilities(random_interior(P, rng))
            assert abs(p.sum() - 1) <= 1e-14


def test_to_mixture_rejects(trapezoid):
    with pytest.raises(NotTorifiableError):
        to_mixture(trapezoid)
    shifted = Polytope(
        dim=1, halfspaces=(halfspace((1,), Fraction(-1, 2)), halfspace((-1,), Fraction(1, 2)))
    )
    with pytest.raises(DegenerateError):
        to_mixture(shifted)  # offsets sum to zero


def test_mixture_invariants():
    with pytest.raises(InvalidInputError):
        MixtureFamily(alphas=((1, 0), (0, 1)), betas=(Fraction(1, 2), Fraction(1, 2)))
    with pytest.raises(InvalidInputError):
        MixtureFamily(alphas=((1, 0), (-1, 0)), betas=(Fraction(1, 2), Fraction(1, 4)))
    with pytest.raises(InvalidInputError, match="equal, positive length"):
        MixtureFamily(alphas=((1,), (-1,)), betas=(1,))
    with pytest.raises(InvalidInputError, match="common length"):
        MixtureFamily(alphas=((1, 0), (-1,)), betas=(Fraction(1, 2), Fraction(1, 2)))
    with pytest.raises(InvalidInputError, match="boolean"):
        MixtureFamily(alphas=((True,), (-1,)), betas=(Fraction(1, 2), Fraction(1, 2)))


def test_to_mixture_refuses_a_half_space_that_is_not_a_facet(square):
    cut = Polytope(dim=2, halfspaces=square.halfspaces + (halfspace((1, 1), 5), halfspace((-1, -1), 5)))
    with pytest.raises(InvalidInputError, match="half-space 5 is not a facet of the region"):
        to_mixture(cut)


@settings(max_examples=30, deadline=None)
@given(delzant_products())
def test_the_round_trip_records_the_region_a_fresh_read_finds(case):
    # from_mixture of to_mixture(P) takes its polytope's region from P's; it
    # is the one a family with the same weights reads afresh
    P, _ = case
    if not zero_sum_check(P):
        return
    theta = to_mixture(P)
    got = from_mixture(theta).polytope
    fresh = from_mixture(MixtureFamily(alphas=theta.alphas, betas=theta.betas)).polytope
    assert got.halfspaces == fresh.halfspaces and set(got.halfspaces) == set(P.halfspaces)
    assert got.vertex_list == fresh.vertex_list
    assert got.rays == fresh.rays and got.bounded == fresh.bounded
    assert got._region[1] == fresh._region[1]


def test_kl_basic(triangle, rng):
    theta = to_mixture(triangle)
    for _ in range(20):
        x = random_interior(triangle, rng)
        assert kl(theta, x, x) == 0.0
    assert kl(theta, (0.25, 0.25), (1 / 3, 1 / 3)) == pytest.approx(
        0.5 * math.log(0.75) + 0.5 * math.log(1.5), abs=1e-12
    )


def test_kl_zero_probability_conventions(triangle):
    theta = to_mixture(triangle)
    # zero weight on the first outcome at xi contributes nothing
    finite = kl(theta, (0.0, 0.5), (0.25, 0.25))
    assert math.isfinite(finite)
    # positive weight against zero weight diverges
    assert kl(theta, (0.25, 0.25), (0.0, 0.5)) == math.inf
    # both zero on the same outcome: that term contributes 0
    assert math.isfinite(kl(theta, (0.0, 0.5), (0.0, 0.25)))
    with pytest.raises(DomainError):
        kl(theta, (0.7, 0.7), (0.25, 0.25))


@pytest.mark.parametrize("xi, xi2", [((math.nan, 0.2), (0.2, 0.2)), ((0.2, 0.2), (0.2, math.nan))])
def test_kl_rejects_nan(triangle, xi, xi2):
    theta = to_mixture(triangle)
    with pytest.raises(DomainError):
        kl(theta, xi, xi2)
    with pytest.raises(DomainError):
        kl(theta, [(0.25, 0.25), xi], [(0.25, 0.25), xi2])


def test_kl_bregman_relation(triangle, square, scaled_triangle, rng):
    # D = scale * sum(lambda) * KL, exactly, for zero-sum polytopes
    for P, scale in ((triangle, 1.0), (square, 0.5), (scaled_triangle, 0.5)):
        phi = guillemin(P, scale)
        theta = to_mixture(P)
        factor = scale * float(sum(float(hs.offset) for hs in P.halfspaces))
        for _ in range(100):
            a = random_interior(P, rng)
            b = random_interior(P, rng)
            assert abs(bregman(phi, a, b) - factor * kl(theta, a, b)) <= 1e-12


def test_fisher_hessian_identification(triangle, square, rng):
    # Hess of sum p log p equals Hess of the unit-scale canonical potential
    # divided by the offset sum
    for P in (triangle, square):
        theta = to_mixture(P)
        total = float(sum(float(hs.offset) for hs in P.halfspaces)) or 1.0
        entropy_potential = SymplecticPotential(
            dim=P.dim,
            scale=1.0,
            log_terms=tuple(
                AffineLogTerm(normal=tuple(map(float, row)), offset=float(b))
                for row, b in zip(theta._alpha_array, theta._beta_array)
            ),
        )
        phi1 = guillemin(P, 1.0)
        for _ in range(50):
            x = random_interior(P, rng)
            np.testing.assert_allclose(
                entropy_potential.hessian(x),
                phi1.hessian(x) / total,
                rtol=0,
                atol=1e-8,
            )


def test_from_mixture_categorical(triangle):
    theta = to_mixture(triangle)
    report = from_mixture(theta)
    assert report.torifiable
    assert report.delzant.valid
    got = {(hs.normal, hs.offset) for hs in report.polytope.halfspaces}
    expected = {(hs.normal, hs.offset) for hs in triangle.halfspaces}
    assert got == expected  # roundtrip up to constraint order
    back = to_mixture(report.polytope)
    assert set(zip(back.alphas, back.betas)) == set(zip(theta.alphas, theta.betas))


def test_from_mixture_enumerates_vertices_once(monkeypatch):
    # reduced_polytope finds the cube's vertices and proves it bounded from
    # their tight sets; the Delzant check reads the vertices from the
    # polytope instead of enumerating again
    cube = Polytope(
        dim=3,
        halfspaces=tuple(
            halfspace(tuple(s * (i == j) for j in range(3)), int(s < 0))
            for i in range(3)
            for s in (1, -1)
        ),
    )
    calls = {"_feasible_solutions": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(polytope, "_feasible_solutions")
    report = from_mixture(to_mixture(cube))
    assert report.torifiable
    assert calls == {"_feasible_solutions": 1}
    P = report.polytope
    assert vertices(P) == vertices(Polytope(dim=P.dim, halfspaces=P.halfspaces))


def test_from_mixture_non_unimodular():
    theta = MixtureFamily(
        alphas=((1, 0), (0, 1), (-2, -1), (1, 0)),
        betas=(Fraction(0), Fraction(0), Fraction(3, 4), Fraction(1, 4)),
    )
    report = from_mixture(theta)
    assert report.bounded
    assert not report.delzant.valid
    assert not report.torifiable
    assert any(f.determinant not in (1, -1) for f in report.delzant.failures)
    # the slack duplicate of the first constraint was dropped
    assert report.polytope.n_facets == 3


def test_from_mixture_constant_outcome_dropped():
    theta = MixtureFamily(
        alphas=((1,), (-1,), (0,)),
        betas=(Fraction(0), Fraction(1, 2), Fraction(1, 2)),
    )
    # constraints x >= 0 and x <= 1/2; the constant outcome adds no constraint
    report = from_mixture(theta)
    assert report.bounded and report.torifiable
    assert report.polytope.n_facets == 2


def test_from_mixture_unbounded_closure():
    # the second coordinate is unconstrained, so the closure is a strip: the
    # weights are not linearly independent, and the region has no vertex
    theta = MixtureFamily(
        alphas=(((1, 0)), ((-1, 0)), ((0, 0))),
        betas=(Fraction(0), Fraction(1, 2), Fraction(1, 2)),
    )
    with pytest.raises(DegenerateError, match="no vertex or no interior point"):
        from_mixture(theta)


def test_from_mixture_denominator_clearing():
    theta = MixtureFamily(
        alphas=((Fraction(1, 2), 0), (0, Fraction(1, 3)), (Fraction(-1, 2), Fraction(-1, 3))),
        betas=(Fraction(0), Fraction(0), Fraction(1)),
    )
    report = from_mixture(theta)
    normals = {hs.normal for hs in report.polytope.halfspaces}
    assert normals == {(1, 0), (0, 1), (-3, -2)}
