import math

import numpy as np
import pytest

from polyflat.boundary import dual_geodesic_limit, random_interior
from polyflat.dually_flat import (
    GeodesicSpec,
    bregman,
    bregman_expanded,
    cosine_residual,
    flat_exit_time,
    from_dual,
    geodesic_point,
    newton_solve,
    to_dual,
)
from polyflat.errors import (
    DomainError,
    InvalidInputError,
    NoSolutionError,
    NumericalError,
)
from polyflat.polynomial import Polynomial

from polyflat.potential import AffineLogTerm, SymplecticPotential, guillemin


def test_to_dual_triangle(triangle):
    phi = guillemin(triangle, 1.0)
    np.testing.assert_allclose(to_dual(phi, (1 / 3, 1 / 3)).y, [0, 0], atol=1e-14)
    np.testing.assert_allclose(
        to_dual(phi, (0.25, 0.25)).y, [math.log(0.5)] * 2, atol=1e-14
    )


def test_to_dual_half_line(half_line):
    phi = guillemin(half_line, 1.0)
    assert to_dual(phi, (math.exp(-1),)).y[0] == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(DomainError):
        to_dual(phi, (0.0,))


def test_from_dual_triangle(triangle):
    phi = guillemin(triangle, 1.0)
    np.testing.assert_allclose(
        from_dual(phi, triangle, (0.0, 0.0)).x, [1 / 3, 1 / 3], atol=1e-10
    )
    # closed form: x = (e^y1, e^y2) / (1 + e^y1 + e^y2)
    np.testing.assert_allclose(
        from_dual(phi, triangle, (math.log(2), 0.0)).x, [0.5, 0.25], atol=1e-10
    )


def test_from_dual_roundtrip(triangle, square, rng):
    for P, scale in ((triangle, 1.0), (square, 0.5)):
        phi = guillemin(P, scale)
        for _ in range(100):
            x = random_interior(P, rng, margin=1e-4)
            back = from_dual(phi, P, to_dual(phi, x).y_array)
            assert np.max(np.abs(back.x_array - x)) <= 1e-9


def test_from_dual_no_solution_on_unbounded(half_line):
    phi = guillemin(half_line, 1.0)
    with pytest.raises(NoSolutionError):
        from_dual(phi, half_line, (-1000.0,))


def test_singular_hessian_stalls(triangle):
    # one log term x1 log x1: Hess phi = [[1/x1, 0], [0, 0]] is singular everywhere
    phi = SymplecticPotential(dim=2, scale=1.0, log_terms=(AffineLogTerm((1, 0), 0),))
    one = newton_solve(phi, triangle, (0.5, 0.5))
    assert (one.status, one.iterations) == ("stalled", 0)
    batch = newton_solve(phi, triangle, [(0.5, 0.5), (-1.0, 2.0), (0.0, 1.0)])
    assert list(batch.status) == ["stalled"] * 3
    with pytest.raises(NumericalError):
        from_dual(phi, triangle, (0.5, 0.5))


def test_unsolved_error_carries_solver_status(triangle):
    # the singular-Hessian potential above: every row stalls before its first step
    phi = SymplecticPotential(dim=2, scale=1.0, log_terms=(AffineLogTerm((1, 0), 0),))
    with pytest.raises(NumericalError) as err:
        from_dual(phi, triangle, (0.5, 0.5))
    assert (err.value.status, err.value.iterations) == ("stalled", 0)
    assert err.value.residual > 0


@pytest.mark.parametrize("y", [[(0.5, 0.5), (0.2, 0.2)], [(0.5, 0.5)], (0.5, 0.5, 0.5), 0.5])
def test_from_dual_takes_one_target_of_the_polytope_dimension(triangle, y):
    # a batch is not read as a tuple of pairs, nor a target of another length truncated
    with pytest.raises(InvalidInputError) as err:
        from_dual(guillemin(triangle, 1.0), triangle, y)
    assert str(err.value) == f"from_dual takes one target of shape (2,), not {np.shape(y)}"


def test_singular_hessian_leaves_other_rows_solving(triangle):
    # Hess phi = diag(1/x1 - 2, 1/x2) is singular on the line x1 = 1/2
    phi = SymplecticPotential(
        dim=2,
        scale=1.0,
        log_terms=(AffineLogTerm((1, 0), 0), AffineLogTerm((0, 1), 0)),
        correction=Polynomial.from_monomials(2, [((2, 0), -1.0)]),
    )
    y = phi.gradient(np.array([(0.3, 0.3), (0.25, 0.25)]))
    batch = newton_solve(phi, triangle, y, X0=[(0.5, 0.2), (0.2, 0.2)])
    assert list(batch.status) == ["stalled", "converged"]
    np.testing.assert_array_equal(batch.x[0], [0.5, 0.2])
    alone = newton_solve(phi, triangle, y[1], X0=(0.2, 0.2))
    assert batch.iterations[1] == alone.iterations
    np.testing.assert_allclose(batch.x[1], [0.25, 0.25], atol=1e-10)


def test_line_search_keeps_steps_in_the_domain_of_phi(triangle):
    # phi's log terms cut out the inner triangle x1, x2 >= 0.2, x1 + x2 <= 0.9 of
    # P; near its side x1 = 0.2 a full step leaves phi's domain though not P
    inner = ((1.0, 0.0), -0.2), ((0.0, 1.0), -0.2), ((-1.0, -1.0), 0.9)
    phi = SymplecticPotential(
        dim=2, scale=1.0, log_terms=tuple(AffineLogTerm(nu, c) for nu, c in inner)
    )
    x = (0.2001, 0.35)
    np.testing.assert_allclose(from_dual(phi, triangle, phi.gradient(x)).x, x, atol=1e-9)


def test_legendre_involution(triangle, square, rng):
    # conjugating the dual potential numerically recovers phi
    for P, scale in ((triangle, 1.0), (square, 0.5)):
        phi = guillemin(P, scale)
        for _ in range(20):
            x = random_interior(P, rng)
            y = phi.gradient(x)
            x_hat = from_dual(phi, P, y).x_array  # numeric inversion
            psi = -phi.value(x_hat) + x_hat @ y
            assert abs((x @ y - psi) - phi.value(x)) <= 1e-9


def test_bregman_triangle_value(triangle):
    phi = guillemin(triangle, 1.0)
    expected = 0.5 * math.log(0.75) + 0.5 * math.log(1.5)
    assert bregman(phi, (0.25, 0.25), (1 / 3, 1 / 3)) == pytest.approx(expected, abs=1e-12)


def test_bregman_zero_and_positive(triangle, rng):
    phi = guillemin(triangle, 1.0)
    for _ in range(100):
        x = random_interior(triangle, rng)
        assert bregman(phi, x, x) == 0.0
        y = random_interior(triangle, rng)
        if not np.allclose(x, y):
            assert bregman(phi, x, y) > 0


def test_bregman_categorical_form(triangle, rng):
    # sum of three x log(x/x') terms, including the implicit third coordinate
    phi = guillemin(triangle, 1.0)
    for _ in range(20):
        a = random_interior(triangle, rng)
        b = random_interior(triangle, rng)
        p = np.append(a, 1 - a.sum())
        q = np.append(b, 1 - b.sum())
        expected = float(np.sum(p * np.log(p / q)))
        assert bregman(phi, a, b) == pytest.approx(expected, abs=1e-12)


def test_bregman_half_line(half_line):
    phi = guillemin(half_line, 1.0)
    assert bregman(phi, (1.0,), (2.0,)) == pytest.approx(1 - math.log(2), abs=1e-14)


def test_bregman_lower_bound_by_hessian(triangle, rng):
    # locally D(p||q) >= 1/2 lambda_min |p - q|^2 with lambda_min on the segment
    phi = guillemin(triangle, 1.0)
    checked = 0
    while checked < 50:
        q = random_interior(triangle, rng, margin=1e-2)
        d = rng.normal(size=2)
        d *= 10.0 ** rng.uniform(-4, -2) / np.linalg.norm(d)
        p = q + d
        if np.min(triangle.facet_values(p)) <= 0:
            continue
        lam = min(
            float(np.min(np.linalg.eigvalsh(phi.hessian(q + t * d))))
            for t in np.linspace(0, 1, 11)
        )
        assert bregman(phi, p, q) >= 0.5 * lam * float(d @ d) * (1 - 1e-6)
        checked += 1


def test_bregman_expanded_matches(triangle, square, rng):
    cases = [
        (triangle, guillemin(triangle, 1.0)),
        (square, guillemin(square, 0.5)),
    ]
    f = Polynomial.from_monomials(2, [((3, 0), 0.1)])
    cases.append(
        (
            triangle,
            SymplecticPotential(
                dim=2, scale=1.0, log_terms=guillemin(triangle, 1.0).log_terms, correction=f
            ),
        )
    )
    for P, phi in cases:
        for _ in range(100):
            a = random_interior(P, rng)
            b = random_interior(P, rng)
            assert abs(bregman(phi, a, b) - bregman_expanded(phi, P, a, b)) <= 1e-10


def test_bregman_expanded_zero_sum_terms_cancel(triangle, rng):
    # for zero-sum normals the -(xi - xi') . nu_r terms cancel in total
    phi = guillemin(triangle, 1.0)
    for _ in range(20):
        a = random_interior(triangle, rng)
        b = random_interior(triangle, rng)
        l1, l2 = triangle.facet_values(a), triangle.facet_values(b)
        no_linear = float(np.sum(l1 * np.log(l1 / l2)))
        assert bregman_expanded(phi, triangle, a, b) == pytest.approx(no_linear, abs=1e-12)


def test_bregman_expanded_rejects_mismatch(triangle, square):
    phi = guillemin(triangle, 1.0)
    with pytest.raises(InvalidInputError):
        bregman_expanded(phi, square, (0.1, 0.1), (0.2, 0.2))


def test_cosine_residual_identity(triangle, square, rng):
    for P, scale in ((triangle, 1.0), (square, 0.5)):
        phi = guillemin(P, scale)
        for _ in range(1000):
            p, q, r = (random_interior(P, rng) for _ in range(3))
            pairing = cosine_residual(phi, p, q, r)  # raises if identity fails at 1e-9
            combo = bregman(phi, p, q) + bregman(phi, q, r) - bregman(phi, p, r)
            assert pairing == pytest.approx(combo, abs=1e-9)


def test_cosine_residual_degenerate(triangle, rng):
    phi = guillemin(triangle, 1.0)
    q = random_interior(triangle, rng)
    assert cosine_residual(phi, (0.2, 0.3), q, q) == 0.0


def test_cosine_orthogonal_gives_pythagoras(triangle, rng):
    phi = guillemin(triangle, 1.0)
    for _ in range(20):
        q = random_interior(triangle, rng, margin=0.05)
        r = random_interior(triangle, rng, margin=0.05)
        yq, yr = phi.gradient(q), phi.gradient(r)
        w = np.array([-(yq - yr)[1], (yq - yr)[0]])  # orthogonal to y_q - y_r
        norm = np.linalg.norm(w)
        if norm < 1e-9:
            continue
        p = q + 0.05 * w / norm
        if np.min(triangle.facet_values(p)) <= 1e-6:
            continue
        total = bregman(phi, p, q) + bregman(phi, q, r)
        assert total == pytest.approx(bregman(phi, p, r), abs=1e-9)


def test_geodesic_point_flat(triangle):
    phi = guillemin(triangle, 1.0)
    spec = GeodesicSpec(kind="flat", start=(1 / 3, 1 / 3), direction=(1.0, 0.0))
    np.testing.assert_allclose(geodesic_point(phi, triangle, spec, 0.0), [1 / 3, 1 / 3])
    np.testing.assert_allclose(
        geodesic_point(phi, triangle, spec, 0.1), [1 / 3 + 0.1, 1 / 3], atol=1e-15
    )
    with pytest.raises(DomainError):
        geodesic_point(phi, triangle, spec, 0.5)
    assert flat_exit_time(triangle, spec.start, spec.direction) == pytest.approx(1 / 3)


def test_geodesic_point_dual_paper_formula(triangle):
    # the curve with exponential parameters (a, b) starts at (a, b)/(1 + a + b)
    phi = guillemin(triangle, 1.0)
    a = b = 0.25
    start = np.array([a, b]) / (1 + a + b)
    np.testing.assert_allclose(phi.gradient(start), [math.log(a), math.log(b)], atol=1e-14)
    spec = GeodesicSpec(kind="dual", start=tuple(start), direction=(1.0, 1.0))
    for t in (0.5, 1.0, 2.0):
        expected = np.array([a, b]) * math.exp(t) / (1 + (a + b) * math.exp(t))
        np.testing.assert_allclose(
            geodesic_point(phi, triangle, spec, t), expected, atol=1e-9
        )


def test_geodesic_point_dual_contract(triangle):
    # y(t) = grad phi(start) + t v by definition
    phi = guillemin(triangle, 1.0)
    spec = GeodesicSpec(kind="dual", start=(0.25, 0.25), direction=(1.0, 1.0))
    x1 = geodesic_point(phi, triangle, spec, 1.0)
    expected_y = phi.gradient((0.25, 0.25)) + np.array([1.0, 1.0])
    np.testing.assert_allclose(phi.gradient(x1), expected_y, atol=1e-9)
    # v = 0 is rejected as a degenerate direction
    with pytest.raises(InvalidInputError):
        GeodesicSpec(kind="dual", start=(0.25, 0.25), direction=(0.0, 0.0))


def test_dual_geodesics_straight_in_y(triangle, square, rng):
    for P, scale in ((triangle, 1.0), (square, 0.5)):
        phi = guillemin(P, scale)
        for _ in range(10):
            start = random_interior(P, rng, margin=0.05)
            v = rng.normal(size=2)
            spec = GeodesicSpec(kind="dual", start=tuple(start), direction=tuple(v))
            y0 = phi.gradient(start)
            for t in (0.5, 1.0, 5.0):
                x = geodesic_point(phi, P, spec, t)
                np.testing.assert_allclose(phi.gradient(x), y0 + t * v, atol=1e-9)


def test_divergence_monotone_along_dual_geodesic(triangle, rng):
    phi = guillemin(triangle, 1.0)
    for _ in range(10):
        start = random_interior(triangle, rng, margin=0.05)
        v = rng.normal(size=2)
        spec = GeodesicSpec(kind="dual", start=tuple(start), direction=tuple(v))
        values = [
            bregman(phi, geodesic_point(phi, triangle, spec, t), start)
            for t in np.linspace(0, 3, 13)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_dual_geodesic_limit_symmetric(triangle):
    phi = guillemin(triangle, 1.0)
    spec = GeodesicSpec(kind="dual", start=(0.25, 0.25), direction=(1.0, 1.0))
    limit = dual_geodesic_limit(phi, triangle, spec)
    np.testing.assert_allclose(limit.point, [0.5, 0.5], atol=1e-8)
    assert limit.face == (3,)


def test_dual_geodesic_limit_general_start(triangle):
    # exponential parameters (a, b): tied components give the limit (a, b)/(a+b)
    phi = guillemin(triangle, 1.0)
    a, b = 0.2, 0.6
    start = np.array([a, b]) / (1 + a + b)
    spec = GeodesicSpec(kind="dual", start=tuple(start), direction=(1.0, 1.0))
    limit = dual_geodesic_limit(phi, triangle, spec)
    np.testing.assert_allclose(limit.point, [a / (a + b), b / (a + b)], atol=1e-8)
    assert limit.face == (3,)


def test_dual_geodesic_limit_vertex_cases(triangle):
    phi = guillemin(triangle, 1.0)
    for v in ((1.0, 0.0), (2.0, 1.0)):
        spec = GeodesicSpec(kind="dual", start=(0.25, 0.25), direction=v)
        limit = dual_geodesic_limit(phi, triangle, spec)
        np.testing.assert_allclose(limit.point, [1.0, 0.0], atol=1e-8)
        assert limit.face == (2, 3)


def test_dual_geodesic_limit_near_tie(triangle):
    # components agreeing within 1e-12 behave as an exact tie: the limit
    # lands in the edge rather than drifting toward a vertex
    phi = guillemin(triangle, 1.0)
    spec = GeodesicSpec(kind="dual", start=(0.25, 0.25), direction=(1.0, 1.0 + 1e-13))
    limit = dual_geodesic_limit(phi, triangle, spec)
    np.testing.assert_allclose(limit.point, [0.5, 0.5], atol=1e-8)
    assert limit.face == (3,)


def test_dual_geodesic_limit_slow_gap_exact(triangle):
    # a gap above the tie tolerance picks the single top vertex, however slowly
    # the geodesic would reach it
    phi = guillemin(triangle, 1.0)
    spec = GeodesicSpec(kind="dual", start=(0.25, 0.25), direction=(1.0, 1.0 + 1e-9))
    limit = dual_geodesic_limit(phi, triangle, spec)
    assert limit.point == (0.0, 1.0)
    assert limit.face == (1, 3)


def test_dual_geodesic_limit_requires_bounded(half_line):
    phi = guillemin(half_line, 1.0)
    spec = GeodesicSpec(kind="dual", start=(1.0,), direction=(1.0,))
    with pytest.raises(InvalidInputError):
        dual_geodesic_limit(phi, half_line, spec)


def test_dual_geodesic_limit_refuses_a_flat_spec(triangle):
    phi = guillemin(triangle, 1.0)
    spec = GeodesicSpec(kind="flat", start=(0.2, 0.2), direction=(1.0, 0.0))
    with pytest.raises(InvalidInputError, match="limits are defined for dual geodesics"):
        dual_geodesic_limit(phi, triangle, spec)


@pytest.mark.parametrize("start", [(0.0, 0.5), (0.7, 0.7)])
def test_dual_geodesic_limit_requires_interior_start(triangle, start):
    # the direction picks a single vertex, so no potential evaluation sees the start
    phi = guillemin(triangle, 1.0)
    spec = GeodesicSpec(kind="dual", start=start, direction=(1.0, 0.0))
    with pytest.raises(DomainError):
        dual_geodesic_limit(phi, triangle, spec)


@pytest.mark.parametrize(
    "start, direction",
    [((math.nan, 0.2), (1.0, 0.0)), ((0.2, 0.2), (math.nan, 0.0)), ((0.2, 0.2), (math.inf, 0.0))],
)
@pytest.mark.parametrize("kind", ["flat", "dual"])
def test_geodesic_spec_rejects_non_finite(kind, start, direction):
    with pytest.raises(InvalidInputError):
        GeodesicSpec(kind=kind, start=start, direction=direction)


@pytest.mark.parametrize("kind", ["flat", "dual"])
def test_geodesic_point_rejects_non_finite_time(triangle, kind):
    phi = guillemin(triangle, 1.0)
    spec = GeodesicSpec(kind=kind, start=(0.2, 0.2), direction=(1.0, 0.0))
    with pytest.raises(InvalidInputError):
        geodesic_point(phi, triangle, spec, math.nan)
