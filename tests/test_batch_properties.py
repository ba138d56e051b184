"""Batched evaluation equals stacking the calls on single points.

Every float-layer function that takes an (m, n) batch must give, row by row,
what it gives for that row alone; Newton solves of a batch must end each row
in the state the one-row solve ends it.  Checked on random Delzant products
of simplices moved by a random lattice automorphism.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import delzant_products, potential
from polyflat.boundary import extended_divergence, random_face_point, random_interior
from polyflat.dually_flat import bregman, newton_solve
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
    ray = Polytope(dim=1, halfspaces=(halfspace((1,), 0),), bounded=False)
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
