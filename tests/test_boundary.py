import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings

from helpers import (
    continuity_passes,
    cube,
    cube_faces,
    delzant_products,
    potential,
    pyramid_prism,
    simplex,
)
from polyflat.boundary import (
    ContinuityReport,
    PythagorasReport,
    boundary_divergence,
    boundary_point,
    continuity_check,
    dual_geodesic_limit,
    extended_divergence,
    limit_divergence,
    product_boundary_check,
    project_to_face,
    pythagoras_boundary_foot,
    pythagoras_interior_foot,
    random_face_point,
    random_interior,
)
from polyflat.dually_flat import GeodesicSpec, bregman, from_dual
from polyflat.errors import DomainError, FaceBoundaryError, InvalidInputError
from polyflat.polynomial import Polynomial
from polyflat.polytope import FaceChart, Polytope, face_chart, halfspace, product
from polyflat.potential import AffineLogTerm, SymplecticPotential, guillemin
from polyflat.verify import DEFAULT_TOLERANCES


@pytest.fixture
def tri_setup(triangle):
    phi = guillemin(triangle, 1.0)
    chart = face_chart(triangle, [3])
    return triangle, phi, chart


def test_boundary_point_validation(tri_setup):
    _, _, chart = tri_setup
    bp = boundary_point(chart, ambient=(0.5, 0.5))
    np.testing.assert_allclose(bp.chart.to_ambient(bp.chart_coords), bp.ambient, atol=1e-12)
    with pytest.raises(DomainError):
        boundary_point(chart, ambient=(0.4, 0.5))  # not on the face
    with pytest.raises(DomainError):
        boundary_point(chart, ambient=(0.0, 1.0))  # on the face boundary


def test_boundary_point_batch_rows_and_single_point(tri_setup):
    _, _, chart = tri_setup
    rows = [(0.5, 0.5), (0.3, 0.7), (0.8, 0.2)]
    batch = boundary_point(chart, ambient=rows)
    assert len(batch) == 3
    assert not batch.ambient.flags.writeable and not batch.chart_coords.flags.writeable
    for i, row in enumerate(rows):
        alone = boundary_point(chart, ambient=row)
        np.testing.assert_array_equal(batch[i].ambient, alone.ambient)
        np.testing.assert_array_equal(batch[i].chart_coords, alone.chart_coords)
    for picked in (batch[1:], batch[np.array([False, True, True])]):
        assert picked.chart is chart and len(picked) == 2
        assert not picked.ambient.flags.writeable
        np.testing.assert_array_equal(picked.ambient, batch.ambient[1:])
        np.testing.assert_array_equal(picked.chart_coords, batch.chart_coords[1:])
    single = batch[0]
    with pytest.raises(TypeError):
        len(single)
    with pytest.raises(TypeError):
        single[0]


@pytest.mark.parametrize("face", [(2,), (3,)])
@pytest.mark.parametrize("coords", ["ambient", "chart_coords"])
def test_boundary_point_rejects_nan(triangle, face, coords):
    chart = face_chart(triangle, face)
    point = (math.nan, 0.0) if coords == "ambient" else (math.nan,)
    with pytest.raises(DomainError):
        boundary_point(chart, **{coords: point})


def test_boundary_divergence_edge_formula(tri_setup):
    _, phi, chart = tri_setup
    eta = boundary_point(chart, ambient=(0.5, 0.5))
    eta2 = boundary_point(chart, ambient=(0.4, 0.6))
    expected = 0.5 * math.log(0.5 / 0.4) + 0.5 * math.log(0.5 / 0.6)
    assert boundary_divergence(phi, eta, eta2) == pytest.approx(expected, abs=1e-12)
    assert boundary_divergence(phi, eta, eta) == 0.0


def test_boundary_divergence_codim0_equals_bregman(triangle, rng):
    phi = guillemin(triangle, 1.0)
    chart = face_chart(triangle, [])
    for _ in range(10):
        a = random_interior(triangle, rng)
        b = random_interior(triangle, rng)
        pa = boundary_point(chart, ambient=a)
        pb = boundary_point(chart, ambient=b)
        assert boundary_divergence(phi, pa, pb) == pytest.approx(
            bregman(phi, a, b), abs=1e-12
        )


def test_boundary_divergence_chart_invariance(tri_setup, square, rng):
    # a different valid chart (shifted origin, flipped basis) gives the same D_F
    triangle, phi, chart = tri_setup
    alt = FaceChart(
        polytope=triangle,
        face_active=(3,),
        origin=(Fraction(1, 4), Fraction(3, 4)),
        basis=((-1, 1),),
    )
    for _ in range(20):
        a = random_face_point(chart, rng)
        b = random_face_point(chart, rng)
        d1 = boundary_divergence(phi, a, b)
        d2 = boundary_divergence(phi, boundary_point(alt, ambient=a.ambient),
                                 boundary_point(alt, ambient=b.ambient))
        assert abs(d1 - d2) < 1e-10


def test_boundary_functions_take_the_chart_of_their_points(tri_setup):
    # the chart is read from the BoundaryPoints, which must share it
    triangle, phi, chart = tri_setup
    eta = boundary_point(chart, ambient=(0.5, 0.5))
    other = boundary_point(face_chart(triangle, [1]), ambient=(0.0, 0.5))
    xi2 = (0.25, 0.25)
    for call in (
        lambda: boundary_divergence(phi, eta, other),
        lambda: limit_divergence(phi, (0.5, 0.5), xi2),
        lambda: continuity_check(phi, eta, other),
        lambda: pythagoras_boundary_foot(phi, eta, other, xi2),
        lambda: pythagoras_interior_foot(phi, np.array([0.5, 0.5]), xi2, xi2),
    ):
        with pytest.raises(InvalidInputError):
            call()
    # the reports hold measurements only; their callers judge them
    assert list(ContinuityReport.__dataclass_fields__) == ["target", "estimates", "gaps"]
    assert list(PythagorasReport.__dataclass_fields__) == ["residual", "perp_value", "terms"]


def test_limit_divergence_golden(tri_setup):
    _, phi, chart = tri_setup
    a = b = 0.25
    eta_prime = boundary_point(chart, ambient=(a / (a + b), b / (a + b)))
    assert limit_divergence(phi, eta_prime, (a, b)) == pytest.approx(
        math.log(2), abs=1e-12
    )
    # general face point: eta log(eta/a) + (1-eta) log((1-eta)/b)
    for eta in (0.3, 0.62):
        bp = boundary_point(chart, ambient=(eta, 1 - eta))
        expected = eta * math.log(eta / a) + (1 - eta) * math.log((1 - eta) / b)
        assert limit_divergence(phi, bp, (a, b)) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("xi2", [(0.0, 0.5), (0.7, 0.7), (math.nan, 0.2)], ids=["facet", "outside", "nan"])
def test_a_second_point_that_is_not_interior_is_refused(tri_setup, xi2):
    _, phi, chart = tri_setup
    with pytest.raises(DomainError, match="second argument must be interior"):
        limit_divergence(phi, boundary_point(chart, ambient=(0.5, 0.5)), xi2)
    with pytest.raises(DomainError, match="projection argument must be interior"):
        project_to_face(phi, chart, xi2)


def test_limit_divergence_matches_numeric_limit(tri_setup, rng):
    # sequence oracle along a facet-normal approach path
    _, phi, chart = tri_setup
    eta = boundary_point(chart, ambient=(0.45, 0.55))
    xi2 = np.array([0.3, 0.25])
    closed = limit_divergence(phi, eta, xi2)
    direction = np.array([1 / 3, 1 / 3]) - eta.ambient
    seq = [
        bregman(phi, eta.ambient + 10.0**-k * direction, xi2) for k in range(4, 9)
    ]
    assert abs(seq[-1] - closed) < 1e-6
    errors = [abs(s - closed) for s in seq]
    assert all(a > b for a, b in zip(errors, errors[1:]))


def test_limit_divergence_path_independent(tri_setup, rng):
    # approach along several non-normal interior paths; distance 1e-8
    _, phi, chart = tri_setup
    eta = boundary_point(chart, ambient=(0.5, 0.5))
    xi2 = np.array([0.2, 0.4])
    closed = limit_divergence(phi, eta, xi2)
    for _ in range(10):
        d = np.array([-(0.2 + rng.uniform(0, 1)), -(0.2 + rng.uniform(0, 1))])
        d /= np.linalg.norm(d) * 1  # interior-pointing direction
        xk = eta.ambient + 1e-8 * d
        assert np.min(chart.polytope.facet_values(xk)) > 0
        assert abs(bregman(phi, xk, xi2) - closed) < 1e-5


def test_limit_divergence_strictly_positive(tri_setup, rng):
    _, phi, chart = tri_setup
    for _ in range(50):
        eta = random_face_point(chart, rng)
        xi2 = random_interior(chart.polytope, rng)
        assert limit_divergence(phi, eta, xi2) > 0


def test_limit_divergence_zero_probability_terms(tri_setup, rng):
    # per-outcome split: the active facet contributes s * l_r(xi2), the rest is
    # the inactive Poisson-style sum
    triangle, phi, chart = tri_setup
    s = phi.scale
    for _ in range(20):
        eta = random_face_point(chart, rng)
        xi2 = random_interior(triangle, rng)
        l_eta = triangle.facet_values(eta.ambient)
        l_xi = triangle.facet_values(xi2)
        inactive = [r for r in range(1, 4) if r not in chart.vanishing]
        inactive_sum = s * sum(
            l_eta[r - 1] * math.log(l_eta[r - 1] / l_xi[r - 1]) + l_xi[r - 1] - l_eta[r - 1]
            for r in inactive
        )
        active_sum = s * sum(l_xi[r - 1] for r in chart.vanishing)
        total = limit_divergence(phi, eta, xi2)
        assert total - inactive_sum == pytest.approx(active_sum, abs=1e-12)


def test_continuity_check_triangle(tri_setup):
    _, phi, chart = tri_setup
    eta = boundary_point(chart, ambient=(0.5, 0.5))
    eta2 = boundary_point(chart, ambient=(0.4, 0.6))
    report = continuity_check(phi, eta, eta2)
    assert continuity_passes(report.gaps).all()
    assert report.target == pytest.approx(0.020410997260, abs=1e-9)
    assert report.gaps[-1] <= 1e-5


def test_continuity_check_identical_points(tri_setup):
    _, phi, chart = tri_setup
    eta = boundary_point(chart, ambient=(0.45, 0.55))
    report = continuity_check(phi, eta, eta)
    assert continuity_passes(report.gaps).all()
    assert report.target == 0.0


def test_continuity_check_batches_equal_pairs(triangle, rng):
    # a batch of pairs gives each row the floats of the call on that pair alone,
    # also on faces cut out by non-unit normals
    trapezoid = Polytope(
        dim=2,
        halfspaces=(
            halfspace((1, 0), 0), halfspace((0, 1), 0), halfspace((0, -1), 1),
            halfspace((-1, -2), 3),
        ),
    )
    interval = Polytope(dim=1, halfspaces=(halfspace((1,), 0), halfspace((-1,), 1)))
    prism = product(trapezoid, interval)
    for P, scale, face in ((triangle, 1.0, (3,)), (prism, 0.5, (4,)), (prism, 0.5, (4, 6))):
        phi = guillemin(P, scale)
        chart = face_chart(P, face)
        etas = random_face_point(chart, rng, size=6)
        batch = continuity_check(phi, etas[:3], etas[3:])
        assert batch.target.shape == (3,)
        assert batch.estimates.shape == batch.gaps.shape == (3, 8)
        assert continuity_passes(batch.gaps).all()
        for i in range(3):
            one = continuity_check(phi, etas[i], etas[3 + i])
            assert isinstance(one.target, float) and one.gaps.shape == (8,)
            np.testing.assert_array_equal(one.target, batch.target[i])
            np.testing.assert_array_equal(one.estimates, batch.estimates[i])
            np.testing.assert_array_equal(one.gaps, batch.gaps[i])


def test_continuity_check_square_edge(square):
    phi = guillemin(square, 0.5)
    chart = face_chart(square, [3])  # x2 = 0
    eta = boundary_point(chart, ambient=(0.3, 0.0))
    eta2 = boundary_point(chart, ambient=(0.7, 0.0))
    report = continuity_check(phi, eta, eta2)
    assert continuity_passes(report.gaps).all()
    # 1-d oracle: interval divergence of the restricted potential
    a, b = 0.3, 0.7
    expected = 0.5 * (
        a * math.log(a / b) + (1 - a) * math.log((1 - a) / (1 - b))
    )
    assert report.target == pytest.approx(expected, abs=1e-12)


def test_project_to_face_golden(tri_setup):
    triangle, phi, chart = tri_setup
    for a, b in ((0.25, 0.25), (0.2, 0.55), (0.4, 0.15)):
        foot = project_to_face(phi, chart, (a, b))
        np.testing.assert_allclose(
            foot.ambient, [a / (a + b), b / (a + b)], atol=1e-9
        )
    np.testing.assert_allclose(
        project_to_face(phi, chart, (1 / 3, 1 / 3)).ambient, [0.5, 0.5], atol=1e-10
    )


def test_project_to_face_starts_outside_rows_at_the_chart_origin():
    # trapezoid y >= 0, y <= 1, x >= 0, x + y <= 3; the Euclidean projection
    # (2.8, 1) of xi2 onto the line y = 1 lies past the end (2, 1) of facet 2
    P = Polytope(
        dim=2,
        halfspaces=(
            halfspace((0, 1), 0),
            halfspace((0, -1), 1),
            halfspace((1, 0), 0),
            halfspace((-1, -1), 3),
        ),
    )
    chart = face_chart(P, (2,))
    foot = project_to_face(guillemin(P), chart, (2.8, 0.1))
    # the first-order condition log(x / (2 - x)) = log(2.8 / 0.1) gives x = 56/29
    np.testing.assert_allclose(foot.ambient, [56 / 29, 1.0], rtol=0, atol=1e-12)
    # the start is the chart origin, not a point found from the face's vertices
    assert "vertex_list" not in chart.face_polytope.__dict__


def test_project_to_face_error_names_status_and_iterations(triangle):
    # on the face x1 = 0 the restriction of x1 log x1 + x1 x2 is 0, whose Hessian
    # is singular, while the target x1 = 0.3 of the pulled-back gradient is not
    phi = SymplecticPotential(
        dim=2, scale=1.0, log_terms=(AffineLogTerm((1, 0), 0),),
        correction=Polynomial.from_monomials(2, [((1, 1), 1.0)]),
    )
    message = r"\(stalled after 0 iterations, residual 3\.000e-01\)"
    with pytest.raises(FaceBoundaryError, match=message):
        project_to_face(phi, face_chart(triangle, (1,)), [(0.3, 0.3), (0.2, 0.2)])


def test_project_matches_dual_geodesic_limit(tri_setup):
    triangle, phi, chart = tri_setup
    start = (0.25, 0.25)
    limit = dual_geodesic_limit(
        phi, triangle, GeodesicSpec(kind="dual", start=start, direction=(1.0, 1.0))
    )
    foot = project_to_face(phi, chart, start)
    np.testing.assert_allclose(limit.point, foot.ambient, atol=1e-8)


@settings(max_examples=25, deadline=None)
@given(delzant_products())
def test_dual_geodesic_limit_is_projection_onto_argmax_face(case):
    P, rng = case
    phi = potential(P, rng)
    start = random_interior(P, rng)
    # a generic direction: the limit is the vertex maximizing x . d
    d = rng.normal(size=P.dim)
    limit = dual_geodesic_limit(phi, P, GeodesicSpec(kind="dual", start=start, direction=d))
    top = P.vertex_list[int(np.argmax(P.vertex_array @ d))]
    np.testing.assert_allclose(limit.point, top.array, rtol=0, atol=1e-9)
    assert limit.face == top.active
    # d = -sum c_r nu_r over a proper subset S of a vertex's facets: x . d is
    # largest exactly on the face l_r = 0 (r in S), an exact tie as the
    # vertices and weights are integers; the limit is the foot of start there
    vertex = P.vertex_list[int(rng.integers(len(P.vertex_list)))]
    if len(vertex.active) < 2:
        return
    subset = rng.choice(vertex.active, size=int(rng.integers(1, len(vertex.active))), replace=False)
    weights = rng.integers(1, 4, size=len(subset))
    d = -sum(int(c) * np.array(P.halfspaces[r - 1].normal) for c, r in zip(weights, subset))
    chart = face_chart(P, subset)
    try:
        limit = dual_geodesic_limit(phi, P, GeodesicSpec(kind="dual", start=start, direction=d))
    except DomainError:
        # a steep correction can put the foot closer to the face's relative
        # boundary than the face solve resolves; the limit then raises the
        # projection's error instead of returning a point
        with pytest.raises(DomainError):
            project_to_face(phi, chart, start)
        return
    assert limit.face == tuple(sorted(chart.vanishing))
    foot = boundary_point(chart, ambient=limit.point)
    assert pythagoras_boundary_foot(phi, foot, foot, start).perp_value <= 1e-8


def test_dual_geodesic_limit_non_simple_face():
    # the apex of the square pyramid lies on four facets with dependent normals;
    # crossed with an interval, the limit face is the apex edge
    pyramid = Polytope(
        dim=3,
        halfspaces=(
            halfspace((0, 0, 1), 0),
            halfspace((1, 0, -1), 0),
            halfspace((0, 1, -1), 0),
            halfspace((-1, 0, -1), 2),
            halfspace((0, -1, -1), 2),
        ),
    )
    P = product(pyramid, Polytope(dim=1, halfspaces=(halfspace((1,), 0), halfspace((-1,), 1))))
    spec = GeodesicSpec(kind="dual", start=(1.1, 0.9, 0.3, 0.4), direction=(0, 0, 1, 0))
    limit = dual_geodesic_limit(guillemin(P, 1.0), P, spec)
    np.testing.assert_allclose(limit.point, [1.0, 1.0, 1.0, 0.4], rtol=0, atol=1e-9)
    assert limit.face == (2, 3, 4, 5)


def test_pythagoras_boundary_foot(tri_setup):
    triangle, phi, chart = tri_setup
    xi2 = np.array([0.25, 0.25])
    foot = project_to_face(phi, chart, xi2)
    eta = boundary_point(chart, ambient=(0.3, 0.7))
    report = pythagoras_boundary_foot(phi, eta, foot, xi2)
    assert abs(report.residual) <= 1e-9
    assert report.perp_value <= 1e-9
    # eta = eta': residual is identically zero
    same = pythagoras_boundary_foot(phi, foot, foot, xi2)
    assert same.residual == pytest.approx(0.0, abs=1e-12)


def test_pythagoras_boundary_foot_counterexample(tri_setup):
    triangle, phi, chart = tri_setup
    xi2 = np.array([0.25, 0.25])
    foot = project_to_face(phi, chart, xi2)
    eta = boundary_point(chart, ambient=(0.3, 0.7))
    wrong = boundary_point(chart, chart_coords=(foot.chart_coords[0] + 0.05,))
    report = pythagoras_boundary_foot(phi, eta, wrong, xi2)
    assert abs(report.residual) >= 1e-4
    assert report.perp_value >= 1e-4


def test_pythagoras_boundary_foot_random(tri_setup, square, rng):
    sq_phi = guillemin(square, 0.5)
    cases = [tri_setup, (square, sq_phi, face_chart(square, [2]))]
    for P, phi, chart in cases:
        for _ in range(50):
            xi2 = random_interior(P, rng)
            eta = random_face_point(chart, rng)
            foot = project_to_face(phi, chart, xi2)
            report = pythagoras_boundary_foot(phi, eta, foot, xi2)
            assert report.perp_value <= 1e-8
            assert abs(report.residual) <= 1e-8


def test_pythagoras_interior_foot_identity(tri_setup, rng):
    triangle, phi, chart = tri_setup
    for _ in range(1000):
        eta = random_face_point(chart, rng)
        xi = random_interior(triangle, rng)
        xi2 = random_interior(triangle, rng)
        report = pythagoras_interior_foot(phi, eta, xi, xi2)
        assert report.residual == pytest.approx(report.perp_value, abs=1e-9)


def test_pythagoras_interior_foot_orthogonal(tri_setup, rng):
    triangle, phi, chart = tri_setup
    done = 0
    while done < 50:
        eta = random_face_point(chart, rng)
        xi = random_interior(triangle, rng, margin=0.02)
        seg = eta.ambient - xi
        w = np.array([-seg[1], seg[0]])
        w /= np.linalg.norm(w)
        y2 = phi.gradient(xi) + 0.4 * w
        xi2 = from_dual(phi, triangle, y2).x_array
        report = pythagoras_interior_foot(phi, eta, xi, xi2)
        assert abs(report.residual) <= 1e-9
        done += 1


def test_pythagoras_interior_foot_coincident(tri_setup):
    _, phi, chart = tri_setup
    eta = boundary_point(chart, ambient=(0.45, 0.55))
    xi = (0.2, 0.3)
    report = pythagoras_interior_foot(phi, eta, xi, xi)
    assert report.residual == pytest.approx(0.0, abs=1e-12)


def test_limit_divergence_at_vertex(triangle, rng):
    # codimension-2 face: the closed form still matches the numeric limit
    phi = guillemin(triangle, 1.0)
    chart = face_chart(triangle, [1, 2])
    vertex = boundary_point(chart, chart_coords=())
    np.testing.assert_array_equal(vertex.ambient, [0.0, 0.0])
    np.testing.assert_array_equal(vertex.chart_coords, np.empty(0))
    xi2 = np.array([0.2, 0.35])
    closed = limit_divergence(phi, vertex, xi2)
    for _ in range(5):
        d = rng.uniform(0.2, 1.0, size=2)
        d /= np.linalg.norm(d)
        approx = bregman(phi, 1e-8 * d, xi2)
        assert abs(approx - closed) < 1e-5
    # categorical reading: a point mass on the third outcome against p(xi2)
    l2 = triangle.facet_values(xi2)
    assert closed == pytest.approx(math.log(1.0 / l2[2]), abs=1e-12)


def test_extended_divergence_interior_agrees_with_bregman(triangle, rng):
    phi = guillemin(triangle, 1.0)
    for _ in range(20):
        a = random_interior(triangle, rng)
        b = random_interior(triangle, rng)
        assert extended_divergence(phi, a, b) == pytest.approx(
            bregman(phi, a, b), abs=1e-12
        )


def test_boundary_ops_with_polynomial_correction(triangle, rng):
    # the projection characterization and both identities hold for corrected
    # potentials, not just the canonical one
    from polyflat.polynomial import Polynomial
    from polyflat.potential import SymplecticPotential, restrict_potential

    f = Polynomial.from_monomials(2, [((3, 0), 0.1), ((1, 1), 0.05)])
    phi = SymplecticPotential(
        dim=2, scale=1.0, log_terms=guillemin(triangle, 1.0).log_terms, correction=f
    )
    chart = face_chart(triangle, [3])
    phi_f = restrict_potential(phi, chart)
    for _ in range(20):
        xi2 = random_interior(triangle, rng)
        foot = project_to_face(phi, chart, xi2)
        mismatch = phi_f.gradient(foot.chart_coords) - chart.basis_array.T @ phi.gradient(xi2)
        assert np.max(np.abs(mismatch)) <= 1e-9
        eta = random_face_point(chart, rng)
        report = pythagoras_boundary_foot(phi, eta, foot, xi2)
        assert abs(report.residual) <= 1e-8
    eta = boundary_point(chart, ambient=(0.45, 0.55))
    eta2 = boundary_point(chart, ambient=(0.6, 0.4))
    assert continuity_passes(continuity_check(phi, eta, eta2).gaps).all()


def test_random_face_point_evaluates_each_drawn_row_once(triangle, monkeypatch):
    chart = face_chart(triangle, (3,))
    chart.vertex_chart_array, chart.vanishing_mask  # built before counting
    rng = np.random.default_rng(5)
    drawn = evaluated = 0

    class Counting:
        def dirichlet(self, alpha, size):
            nonlocal drawn
            drawn += size
            return rng.dirichlet(alpha, size=size)

    facet_values = Polytope.facet_values

    def counted(self, point):
        nonlocal evaluated
        evaluated += len(np.atleast_2d(point))
        return facet_values(self, point)

    monkeypatch.setattr(Polytope, "facet_values", counted)
    # at margin 0.2 about two rows in five are redrawn
    points = random_face_point(chart, Counting(), margin=0.2, size=40)
    assert evaluated == drawn > 40
    monkeypatch.undo()
    again = boundary_point(chart, chart_coords=points.chart_coords)
    np.testing.assert_array_equal(again.ambient, points.ambient)
    assert np.all(points.ambient.min(axis=1) > 0.2)


def test_product_boundary_check_triangle(triangle):
    report = product_boundary_check(triangle, scale=1.0, samples=100, seed=11)
    assert report.additivity_max <= 1e-10
    assert report.side_face_max <= 1e-9
    assert report.bottom_face_max <= 1e-9
    # the report holds maxima only; run_scenario judges them against DEFAULT_TOLERANCES
    with pytest.raises(TypeError):
        product_boundary_check(triangle, samples=2, tolerance_additivity=1.0)


def test_product_boundary_check_square(square):
    report = product_boundary_check(square, scale=0.5, samples=100, seed=12)
    assert report.additivity_max <= DEFAULT_TOLERANCES["product_additivity"]
    pythagoras_max = max(report.side_face_max, report.bottom_face_max)
    assert pythagoras_max <= DEFAULT_TOLERANCES["product_pythagoras"]


def _cut_simplex():
    """The 3-simplex of side 2 cut by x1 <= 1, with the faces its bundled scenario sweeps."""
    normals = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1), (-1, 0, 0)]
    P = Polytope(dim=3, halfspaces=tuple(
        halfspace(nu, c) for nu, c in zip(normals, (0, 0, 0, 2, 1))
    ))
    faces = [[1], [2], [3], [4], [5], [1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [2, 5], [3, 4],
             [3, 5], [4, 5]]
    return P, faces


def _triangle_x_ray():
    """The triangle times [0, inf): bounded edges, half-line edges and facets with rays."""
    P = product(simplex(2), Polytope(dim=1, halfspaces=(halfspace((1,), 0),)))
    return P, [[1, 4], [3, 4], [1, 2], [2, 3], [1], [4]]


LIST_FORM_CASES = {
    "4-cube": lambda: (cube(4), cube_faces(4)),
    "cut-simplex": _cut_simplex,
    "triangle-x-ray": _triangle_x_ray,
    "apex-edge": lambda: (pyramid_prism(), [[2, 4], [2, 3, 4, 5], [1]]),
}


@pytest.mark.parametrize("case", list(LIST_FORM_CASES))
def test_list_forms_equal_the_per_face_calls(case):
    # faces of several shapes, one list-form call each, against the calls
    # on one face at a time: equal floats, row by row; an empty batch adds no row
    P, faces = LIST_FORM_CASES[case]()
    phi = guillemin(P)
    rng = np.random.default_rng(3)
    charts = [face_chart(P, face) for face in faces]
    sizes = [int(rng.integers(0 if i == 1 else 1, 4)) for i in range(len(charts))]
    eta = [random_face_point(c, rng, size=m) for c, m in zip(charts, sizes)]
    eta2 = [random_face_point(c, rng, size=m) for c, m in zip(charts, sizes)]
    xi2 = [random_interior(P, rng, size=m) for m in sizes]

    feet = project_to_face(phi, charts, xi2)
    for foot, chart, x in zip(feet, charts, xi2):
        one = project_to_face(phi, chart, x)
        assert foot.chart == chart
        np.testing.assert_array_equal(foot.chart_coords, one.chart_coords)
        np.testing.assert_array_equal(foot.ambient, one.ambient)
        for i in range(len(x)):
            alone = project_to_face(phi, chart, x[i])
            np.testing.assert_array_equal(foot.ambient[i], alone.ambient)

    def assert_stacked(report, reports, fields):
        for field in fields:
            np.testing.assert_array_equal(
                getattr(report, field), np.concatenate([getattr(r, field) for r in reports])
            )

    assert_stacked(
        continuity_check(phi, eta, eta2),
        [continuity_check(phi, a, b) for a, b in zip(eta, eta2)],
        ("target", "estimates", "gaps"),
    )
    report = pythagoras_boundary_foot(phi, eta, feet, np.concatenate(xi2))
    reports = [pythagoras_boundary_foot(phi, a, f, x) for a, f, x in zip(eta, feet, xi2)]
    assert_stacked(report, reports, ("residual", "perp_value"))
    for term, terms in zip(report.terms, zip(*(r.terms for r in reports))):
        np.testing.assert_array_equal(term, np.concatenate(terms))


def test_list_forms_refuse_lists_that_do_not_pair(tri_setup, square):
    triangle, phi, chart = tri_setup
    rng = np.random.default_rng(0)
    other = face_chart(triangle, [1])
    eta, eta2 = random_face_point(chart, rng, size=2), random_face_point(other, rng, size=2)
    xi2 = random_interior(triangle, rng, size=2)
    on_square = face_chart(square, [1])
    for call in (
        lambda: continuity_check(phi, [eta], [eta2]),
        lambda: continuity_check(phi, [eta, eta2], [eta]),
        lambda: continuity_check(phi, [], []),
        lambda: continuity_check(phi, [eta[0]], [eta[1]]),
        lambda: pythagoras_boundary_foot(phi, [eta], [eta2], xi2),
        lambda: pythagoras_boundary_foot(phi, eta, [eta], xi2),
        lambda: project_to_face(phi, [chart], xi2),
        lambda: project_to_face(phi, [chart, other], [xi2]),
        lambda: project_to_face(phi, [chart, on_square], [xi2, xi2]),
        lambda: project_to_face(phi, [], []),
    ):
        with pytest.raises(InvalidInputError):
            call()
