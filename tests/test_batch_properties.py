"""Batched evaluation equals stacking the calls on single points.

Every float-layer function that takes an (m, n) batch must give, row by row,
what it gives for that row alone; Newton solves of a batch must end each row
in the state the one-row solve ends it; a batch of boundary points is built
and rejected as its rows are one by one, its divergences and Pythagorean
reports equal those of its rows, and block draws clear their margin.
Checked on random Delzant products of simplices moved by a random lattice
automorphism.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import delzant_products, potential
from polyflat.boundary import (
    boundary_divergence,
    boundary_point,
    extended_divergence,
    pythagoras_boundary_foot,
    pythagoras_interior_foot,
    random_face_point,
    random_interior,
)
from polyflat.dually_flat import bregman, newton_solve
from polyflat.errors import DomainError
from polyflat.mixture import kl, to_mixture
from polyflat.polytope import Polytope, face_chart, halfspace, product
from polyflat.potential import guillemin

PROPERTY = settings(max_examples=25, deadline=None)


def interior(P, rng, m):
    return np.array([random_interior(P, rng) for _ in range(m)])


def closure(P, rng, m):
    """Interior points mixed with points of the open facets."""
    charts = [face_chart(P, (r,)) for r in range(1, P.n_facets + 1)]
    rows = []
    for _ in range(m):
        if rng.random() < 0.5:
            rows.append(random_interior(P, rng))
        else:
            rows.append(random_face_point(charts[int(rng.integers(len(charts)))], rng).ambient)
    return np.array(rows)


def assert_rows(batch, rows):
    np.testing.assert_allclose(batch, np.array(rows), rtol=1e-12, atol=0)


@PROPERTY
@given(delzant_products(), st.integers(1, 8))
def test_potential_batches_equal_rows(case, m):
    P, rng = case
    phi = potential(P, rng)
    x = interior(P, rng, m)
    for method in ("value", "gradient", "hessian", "term_values"):
        f = getattr(phi, method)
        assert_rows(f(x), [f(row) for row in x])
    c = closure(P, rng, m)
    assert_rows(phi.value_extended(c), [phi.value_extended(row) for row in c])


@PROPERTY
@given(delzant_products(), st.integers(1, 8))
def test_divergence_batches_equal_rows(case, m):
    P, rng = case
    phi = potential(P, rng)
    a, b, c = interior(P, rng, m), interior(P, rng, m), closure(P, rng, m)
    assert_rows(bregman(phi, a, b), [bregman(phi, p, q) for p, q in zip(a, b)])
    assert_rows(
        extended_divergence(phi, c, b), [extended_divergence(phi, p, q) for p, q in zip(c, b)]
    )
    theta = to_mixture(P)  # the normals of a product of simplices sum to zero
    assert_rows(kl(theta, c, b), [kl(theta, p, q) for p, q in zip(c, b)])


@PROPERTY
@given(delzant_products(), st.integers(1, 6))
def test_newton_batches_equal_rows(case, m):
    base, rng = case
    # the half-line factor makes a strongly negative last target unreachable
    ray = Polytope(dim=1, halfspaces=(halfspace((1,), 0),))
    P = product(base, ray)
    phi = guillemin(P, 1.0)
    x = np.column_stack([interior(base, rng, m), rng.uniform(0.2, 3.0, size=m)])
    y = phi.gradient(x) + 0.1 * rng.normal(size=x.shape)
    y[rng.random(m) < 0.3, -1] = -1000.0
    batch = newton_solve(phi, P, y)
    for i, target in enumerate(y):
        one = newton_solve(phi, P, target)
        assert batch.status[i] == one.status
        assert batch.iterations[i] == one.iterations
        np.testing.assert_allclose(batch.x[i], one.x, rtol=1e-12, atol=0)
        np.testing.assert_allclose(batch.residual[i], one.residual, rtol=1e-12, atol=0)
    assert set(batch.status) <= {"converged", "stalled", "diverged", "maxiter"}


def random_face(P, rng):
    """The chart of a random face: some of the facets through a random vertex."""
    active = P.vertex_list[int(rng.integers(len(P.vertex_list)))].active
    return face_chart(P, [r for r in active if rng.random() < 0.5])


@PROPERTY
@given(delzant_products(), st.integers(1, 8))
def test_boundary_point_batches_equal_rows(case, m):
    P, rng = case
    chart = random_face(P, rng)
    U = random_face_point(chart, rng, size=m).chart_coords
    X = chart.to_ambient(U)
    for coords, rows in (("chart_coords", U), ("ambient", X)):
        batch = boundary_point(chart, **{coords: rows})
        assert len(batch) == m
        for point, row in zip(batch, rows):
            alone = boundary_point(chart, **{coords: row})
            np.testing.assert_array_equal(point.ambient, alone.ambient)
            np.testing.assert_array_equal(point.chart_coords, alone.chart_coords)


@PROPERTY
@given(delzant_products(), st.integers(1, 8))
def test_boundary_reports_batches_equal_rows(case, m):
    P, rng = case
    phi = potential(P, rng)
    chart = random_face(P, rng)
    eta, eta2 = random_face_point(chart, rng, size=m), random_face_point(chart, rng, size=m)
    xi, xi2 = interior(P, rng, m), interior(P, rng, m)
    assert_rows(
        boundary_divergence(phi, eta, eta2),
        [boundary_divergence(phi, eta[i], eta2[i]) for i in range(m)],
    )
    for check, args in (
        (pythagoras_boundary_foot, (eta, eta2, xi2)),
        (pythagoras_interior_foot, (eta, xi, xi2)),
    ):
        batch = check(phi, *args)
        rows = [check(phi, *(a[i] for a in args)) for i in range(m)]
        assert_rows(batch.residual, [r.residual for r in rows])
        assert_rows(batch.perp_value, [r.perp_value for r in rows])
        assert_rows(np.array(batch.terms).T, [r.terms for r in rows])


@PROPERTY
@given(delzant_products(), st.integers(2, 8))
def test_boundary_point_batch_raises_first_bad_row(case, m):
    P, rng = case
    chart = random_face(P, rng)
    X = random_face_point(chart, rng, size=m).ambient.copy()
    # mostly points off the affine hull or outside the open face, and nan
    defects = [P.interior_point, 2 * P.vertex_array[0] - X[0], 10 * X[0], np.nan]
    for i in rng.choice(m, size=2, replace=False):
        X[i] = defects[int(rng.integers(len(defects)))]
    errors = []
    for row in X:
        try:
            boundary_point(chart, ambient=row)
        except DomainError as exc:
            errors.append(str(exc))
    if not errors:
        assert len(boundary_point(chart, ambient=X)) == m
        return
    with pytest.raises(DomainError) as batch:
        boundary_point(chart, ambient=X)
    assert str(batch.value) == errors[0]


@PROPERTY
@given(delzant_products(), st.integers(0, 8), st.sampled_from([1e-3, 1e-2, 5e-2]))
def test_block_draws_clear_the_margin(case, m, margin):
    P, rng = case
    X = random_interior(P, rng, margin=margin, size=m)
    assert X.shape == (m, P.dim)
    assert np.all(P.facet_values(X) > margin)
    chart = random_face(P, rng)
    points = random_face_point(chart, rng, margin=margin, size=m)
    assert len(points) == m
    for point in points:
        values = P.facet_values(point.ambient)
        for r, v in enumerate(values, start=1):
            assert abs(v) <= 1e-12 if r in chart.vanishing else v > margin


@PROPERTY
@given(delzant_products(), st.integers(0, 2**32 - 1))
def test_one_point_draw_is_a_block_of_one(case, seed):
    P, rng = case
    chart = random_face(P, rng)
    one, block = np.random.default_rng(seed), np.random.default_rng(seed)
    np.testing.assert_array_equal(random_interior(P, one), random_interior(P, block, size=1)[0])
    point, first = random_face_point(chart, one), random_face_point(chart, block, size=1)[0]
    np.testing.assert_array_equal(point.ambient, first.ambient)
    np.testing.assert_array_equal(point.chart_coords, first.chart_coords)
    assert one.random() == block.random()  # both drew the same stream


@PROPERTY
@given(delzant_products(), st.integers(1, 8))
def test_chart_round_trip(case, m):
    P, rng = case
    chart = random_face(P, rng)
    U = rng.uniform(-2.0, 2.0, size=(m, chart.dim_face))
    np.testing.assert_allclose(chart.to_chart(chart.to_ambient(U)), U, rtol=0, atol=1e-12)
    np.testing.assert_allclose(chart.to_chart(chart.to_ambient(U[0])), U[0], rtol=0, atol=1e-12)
