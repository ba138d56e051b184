"""Boundary machinery on faces of dimension > 1 and desk-scale limits."""

import time
from itertools import product as iproduct

import numpy as np
import pytest

from helpers import continuity_passes
from polyflat.boundary import (
    boundary_divergence,
    boundary_point,
    continuity_check,
    limit_divergence,
    project_to_face,
    pythagoras_boundary_foot,
    pythagoras_interior_foot,
    random_face_point,
    random_interior,
)
from polyflat.dually_flat import bregman, from_dual, to_dual
from polyflat.polytope import Polytope, face_chart, halfspace, validate_delzant, vertices
from polyflat.potential import guillemin, restrict_potential


@pytest.fixture
def simplex3_setup(simplex3):
    phi = guillemin(simplex3, 1.0)
    chart = face_chart(simplex3, [4])  # the 2-dimensional slanted facet
    return simplex3, phi, chart


def test_simplex_facet_divergence_matches_categorical(simplex3_setup, rng):
    # on the slanted facet the restriction is the 2-simplex structure: the
    # face divergence is the three-outcome KL in the face coordinates
    P, phi, chart = simplex3_setup
    for _ in range(20):
        a = random_face_point(chart, rng)
        b = random_face_point(chart, rng)
        d = boundary_divergence(phi, a, b)
        a, b = a.ambient, b.ambient
        expected = float(np.sum(a * np.log(a / b)))  # coordinates sum to 1 on the facet
        assert d == pytest.approx(expected, abs=1e-10)


def test_simplex_facet_projection_normalizes(simplex3_setup, rng):
    # projecting onto the probability facet renormalizes the coordinates
    P, phi, chart = simplex3_setup
    for _ in range(20):
        xi = random_interior(P, rng)
        foot = project_to_face(phi, chart, xi)
        np.testing.assert_allclose(foot.ambient, xi / xi.sum(), atol=1e-9)


def test_simplex_facet_pythagoras(simplex3_setup, rng):
    P, phi, chart = simplex3_setup
    for _ in range(25):
        xi = random_interior(P, rng)
        foot = project_to_face(phi, chart, xi)
        eta = random_face_point(chart, rng)
        report = pythagoras_boundary_foot(phi, eta, foot, xi)
        assert abs(report.residual) <= 1e-8
        assert report.perp_value <= 1e-8


def test_simplex_facet_interior_identity(simplex3_setup, rng):
    P, phi, chart = simplex3_setup
    for _ in range(200):
        eta = random_face_point(chart, rng)
        xi = random_interior(P, rng)
        xi2 = random_interior(P, rng)
        report = pythagoras_interior_foot(phi, eta, xi, xi2)
        assert report.residual == pytest.approx(report.perp_value, abs=1e-9)


def test_simplex_facet_continuity(simplex3_setup, rng):
    P, phi, chart = simplex3_setup
    eta = random_face_point(chart, rng)
    eta2 = random_face_point(chart, rng)
    report = continuity_check(phi, eta, eta2)
    assert continuity_passes(report.gaps).all()


def test_simplex_edge_operations(simplex3, rng):
    # codimension-2 face: an edge of the 3-simplex
    phi = guillemin(simplex3, 1.0)
    chart = face_chart(simplex3, [1, 2])
    assert chart.dim_face == 1
    phi_f = restrict_potential(phi, chart)
    a = boundary_point(chart, ambient=(0.0, 0.0, 0.3))
    b = boundary_point(chart, ambient=(0.0, 0.0, 0.6))
    d = boundary_divergence(phi, a, b)
    # the restricted structure on the edge is the interval potential
    # x3 log x3 + (1-x3) log(1-x3)
    expected = (
        0.3 * np.log(0.3 / 0.6) + 0.7 * np.log(0.7 / 0.4)
    )
    assert d == pytest.approx(expected, abs=1e-10)
    xi = random_interior(simplex3, rng)
    assert limit_divergence(phi, a, xi) > 0


def test_six_dimensional_cube_desk_scale():
    t0 = time.perf_counter()
    halfspaces = []
    for i in range(6):
        e = [0] * 6
        e[i] = 1
        halfspaces.append(halfspace(tuple(e), 0))
        halfspaces.append(halfspace(tuple(-v for v in e), 1))
    cube = Polytope(dim=6, halfspaces=tuple(halfspaces))
    verts = vertices(cube)
    assert len(verts) == 64
    assert validate_delzant(cube).valid
    phi = guillemin(cube, 0.5)
    x = np.full(6, 0.3)
    pair = to_dual(phi, x)
    back = from_dual(phi, cube, pair.y_array)
    assert np.max(np.abs(back.x_array - x)) <= 1e-9
    assert bregman(phi, np.full(6, 0.3), np.full(6, 0.5)) > 0
    chart = face_chart(cube, [1])
    foot = project_to_face(phi, chart, np.full(6, 0.25))
    np.testing.assert_allclose(foot.ambient[1:], [0.25] * 5, atol=1e-9)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0


def test_product_of_intervals_is_square(interval, square):
    from polyflat.polytope import product

    assert product(interval, interval) == square
