import functools
import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings

from helpers import (
    cube,
    cut_polyhedra,
    delzant_products,
    pointed_unbounded,
    pulled_back,
    pyramid_prism,
    random_unimodular,
    reference_cone_rays,
    reference_reduced_polytope,
    simplex,
    square_pyramid,
    transform_polytope,
)
from polyflat import intlattice, jsonio, polytope
from polyflat.errors import (
    DegenerateError,
    EmptyFaceError,
    InvalidInputError,
)
from polyflat.polytope import (
    FaceChart,
    HalfSpace,
    Polytope,
    as_fraction,
    face_chart,
    halfspace,
    is_bounded,
    product,
    reduced_polytope,
    restrict_polytope,
    validate_delzant,
    vertices,
)
from polyflat.potential import guillemin


def test_facet_value_triangle(triangle):
    assert triangle.facet_values((0.2, 0.3))[2] == pytest.approx(0.5, abs=1e-15)
    for v in vertices(triangle):
        for r in v.active:
            assert triangle.facet_values(v.array)[r - 1] == 0.0


def test_facet_value_square_face():
    sq = Polytope(dim=2, halfspaces=(halfspace((-1, 0), 1),) + tuple(
        halfspace(n, o) for n, o in (((1, 0), 0), ((0, 1), 0), ((0, -1), 1))
    ))
    assert sq.facet_values((0.25, 0.9))[0] == pytest.approx(0.75, abs=1e-15)


def test_facet_value_errors(triangle):
    with pytest.raises(InvalidInputError):
        triangle.facet_values((0.1, 0.1, 0.1))
    with pytest.raises(InvalidInputError):
        triangle.facet_values(np.zeros((2, 2, 2)))


def test_halfspace_validation():
    with pytest.raises(InvalidInputError):
        halfspace((0, 0), 1)
    with pytest.raises(InvalidInputError):
        halfspace((2, 4), 1)  # not primitive
    with pytest.raises(InvalidInputError):
        Polytope(dim=2, halfspaces=(halfspace((1, 0), 0), halfspace((1, 0), 0)))
    with pytest.raises(InvalidInputError):
        halfspace((1.5, 0), 1)  # never truncated to an integer normal
    # a boolean is not a number, in a normal or an offset
    with pytest.raises(InvalidInputError, match="not integral"):
        halfspace((True, 0), 0)
    with pytest.raises(InvalidInputError, match="must be integral"):
        HalfSpace(normal=(1, False), offset=0)
    with pytest.raises(InvalidInputError, match="boolean"):
        halfspace((1, 0), False)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, True, False])
def test_as_fraction_rejects_non_finite(value):
    with pytest.raises(InvalidInputError):
        as_fraction(value)


@pytest.mark.parametrize(
    "dim, normals, message",
    [
        (-1, [], "dimension must be nonnegative"),
        (0, [(1,)], "a 0-dimensional polytope has no half-spaces"),
        (2, [(1, 0), (1,)], r"normal \(1,\) does not match dimension 2"),
    ],
    ids=["negative-dim", "point-with-half-space", "normal-length"],
)
def test_polytope_refuses_a_malformed_shape(dim, normals, message):
    with pytest.raises(InvalidInputError, match=message):
        Polytope(dim=dim, halfspaces=tuple(halfspace(v, 0) for v in normals))


def test_restrict_polytope_refuses_a_chart_of_another_polytope(triangle, square):
    with pytest.raises(InvalidInputError, match="chart does not belong to this polytope"):
        restrict_polytope(square, face_chart(triangle, (1,)))


def test_face_chart_is_memoized_on_the_polytope(triangle):
    assert face_chart(triangle, (1,)) is face_chart(triangle, (1,))
    assert face_chart(triangle, [3, 1, 3]) is face_chart(triangle, (1, 3))
    assert face_chart(triangle, (1,)) is not face_chart(triangle, (2,))


def test_vertex_arrays_are_read_only_and_match_the_vertices(triangle):
    np.testing.assert_array_equal(
        triangle.vertex_array, [v.array for v in vertices(triangle)]
    )
    chart = face_chart(triangle, (3,))
    np.testing.assert_array_equal(chart.vertex_array, [[0.0, 1.0], [1.0, 0.0]])
    for a in (triangle.vertex_array, chart.vertex_array):
        with pytest.raises(ValueError):
            a[0, 0] = 5.0


def test_facet_values_batch(triangle):
    pts = np.array([[0.2, 0.3], [0.5, 0.5], [2.0, -1.0]])
    got = triangle.facet_values(pts)
    assert got.shape == (3, 3)
    for row, p in zip(got, pts):
        np.testing.assert_array_equal(row, triangle.facet_values(p))
    with pytest.raises(InvalidInputError):
        triangle.facet_values(np.zeros((2, 3)))


def test_restrict_polytope_is_memoized_on_the_chart(triangle):
    chart = face_chart(triangle, [3])
    assert restrict_polytope(triangle, chart) is restrict_polytope(triangle, chart)
    assert chart.vertices == tuple(v for v in vertices(triangle) if 3 in v.active)


def test_vertices_triangle(triangle):
    verts = {v.coords for v in vertices(triangle)}
    assert verts == {(0, 0), (1, 0), (0, 1)}
    for v in vertices(triangle):
        assert len(v.active) == 2


def test_vertices_square(square):
    assert len(vertices(square)) == 4


def test_vertices_half_line(half_line):
    (v,) = vertices(half_line)
    assert v.coords == (Fraction(0),)
    assert v.active == (1,)


def test_vertices_inconsistent_bounded_flag():
    # boundedness is computed, so a polytope that contradicts it cannot be
    # built, and input that claims it is refused
    with pytest.raises(TypeError):
        Polytope(dim=1, halfspaces=(halfspace((1,), 0),), bounded=True)
    data = {"dim": 1, "bounded": True, "halfspaces": [{"normal": [1], "offset": 0}]}
    with pytest.raises(InvalidInputError, match="bounded"):
        jsonio.parse_polytope(data)
    # the normals bound an empty region: bounded, yet without vertices
    empty = Polytope(dim=1, halfspaces=(halfspace((1,), -1), halfspace((-1,), 0)))
    with pytest.raises(DegenerateError, match="no vertex or no interior point"):
        vertices(empty)


def test_polytopes_of_one_region_compare_equal(triangle, half_line):
    # the half-spaces alone fix a polytope, boundedness included
    prod = product(triangle, half_line)
    again = Polytope(dim=prod.dim, halfspaces=prod.halfspaces)
    assert prod == again and hash(prod) == hash(again)
    assert not prod.bounded and not again.bounded
    assert jsonio.parse_polytope({"dim": 1, "halfspaces": [{"normal": [1], "offset": 0}]}) == half_line


def test_values_the_inputs_fix_are_not_arguments(triangle):
    with pytest.raises(TypeError):
        Polytope(dim=2, halfspaces=triangle.halfspaces, bounded=True)
    chart = face_chart(triangle, (3,))
    assert chart.dim_face == len(chart.basis) == 1
    with pytest.raises(TypeError):
        FaceChart(triangle, chart.face_active, chart.origin, chart.basis, dim_face=1)


def test_validate_delzant_valid(triangle, square, simplex3, trapezoid):
    for P in (triangle, square, simplex3, trapezoid):
        report = validate_delzant(P)
        assert report.simple and report.rational and report.smooth
        assert not report.partial
        assert report.failures == ()


def test_validate_delzant_smooth_failure():
    P = Polytope(
        dim=2,
        halfspaces=(halfspace((1, 0), 0), halfspace((0, 1), 0), halfspace((-1, -2), 2)),
    )
    report = validate_delzant(P)
    assert report.simple and not report.smooth
    assert len(report.failures) == 1
    # brute-force oracle: determinant of every vertex's active normal pair
    bad = []
    for v in vertices(P):
        rows = [P.halfspaces[r - 1].normal for r in v.active]
        det = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
        if abs(det) != 1:
            bad.append((v.coords, det))
    assert [(f.vertex, f.determinant) for f in report.failures] == bad


def test_validate_delzant_partial_for_unbounded(half_line):
    report = validate_delzant(half_line)
    assert report.partial and report.valid


def test_validate_invariant_under_permutation_and_unimodular(triangle, square, trapezoid, rng):
    for P in (triangle, square, trapezoid):
        base = validate_delzant(P)
        perm = Polytope(dim=P.dim, halfspaces=P.halfspaces[::-1])
        rep = validate_delzant(perm)
        assert (rep.simple, rep.rational, rep.smooth) == (base.simple, base.rational, base.smooth)
        for _ in range(3):
            M = random_unimodular(rng, P.dim)
            t = [Fraction(int(rng.integers(-3, 4)), 2) for _ in range(P.dim)]
            moved = transform_polytope(P, M, t)
            rep = validate_delzant(moved)
            assert (rep.simple, rep.rational, rep.smooth) == (
                base.simple,
                base.rational,
                base.smooth,
            )


def test_face_chart_triangle_edge(triangle):
    chart = face_chart(triangle, [3])
    assert chart.origin == (Fraction(1, 2), Fraction(1, 2))
    assert chart.dim_face == 1
    (col,) = chart.basis
    assert col in ((1, -1), (-1, 1))
    for r in chart.face_active:
        nu = triangle.halfspaces[r - 1].normal
        assert sum(a * b for a, b in zip(col, nu)) == 0


def test_face_chart_codim0_and_vertex(triangle):
    chart = face_chart(triangle, [])
    assert chart.dim_face == 2
    assert set(chart.basis) == {(1, 0), (0, 1)}
    vertex_chart = face_chart(triangle, [1, 2])
    assert vertex_chart.dim_face == 0
    assert vertex_chart.origin == (Fraction(0), Fraction(0))


def test_face_chart_basis_orthogonal_exact(triangle, square, simplex3, trapezoid, scaled_triangle):
    for P in (triangle, square, simplex3, trapezoid, scaled_triangle):
        for r in range(1, P.n_facets + 1):
            chart = face_chart(P, [r])
            for col in chart.basis:
                assert sum(a * b for a, b in zip(col, P.halfspaces[r - 1].normal)) == 0


def test_face_chart_errors(triangle, square):
    # one rule: the named facets meet at no vertex
    with pytest.raises(EmptyFaceError, match="meet at no vertex"):
        face_chart(square, [1, 2])  # opposite facets
    shifted = Polytope(
        dim=2,
        halfspaces=(halfspace((1, 0), 0), halfspace((0, 1), 0), halfspace((-1, -1), 1),
                    halfspace((1, 1), 1)),
    )
    # a parallel half-space that is not a facet is refused before any face is read
    with pytest.raises(InvalidInputError, match="half-space 4 is not a facet of the region"):
        face_chart(shifted, [3, 4])


def test_restrict_polytope_triangle_edge(triangle):
    chart = face_chart(triangle, [3])
    interval = restrict_polytope(triangle, chart)
    assert interval.dim == 1 and interval.n_facets == 2
    verts = sorted(v.coords[0] for v in vertices(interval))
    assert verts[1] - verts[0] == 1  # unit-length interval
    assert validate_delzant(interval).valid


def test_restrict_polytope_paper_parametrization(triangle):
    # the vertex-anchored chart eta -> (eta, 1 - eta) gives exactly [0, 1]
    chart = FaceChart(
        polytope=triangle,
        face_active=(3,),
        origin=(Fraction(0), Fraction(1)),
        basis=((1, -1),),
    )
    interval = restrict_polytope(triangle, chart)
    assert {v.coords[0] for v in vertices(interval)} == {0, 1}


def test_restrict_polytope_square_edge(square):
    chart = face_chart(square, [3])  # x2 = 0 edge
    interval = restrict_polytope(square, chart)
    verts = sorted(v.coords[0] for v in vertices(interval))
    assert verts[1] - verts[0] == 1


def test_restrict_polytope_simplex_facet(simplex3):
    chart = face_chart(simplex3, [4])
    tri = restrict_polytope(simplex3, chart)
    assert tri.dim == 2 and tri.n_facets == 3
    assert validate_delzant(tri).valid


def test_restrict_polytope_drops_redundant():
    # four facets pull back to the side triangle 2 of the pyramid, and the
    # opposite one, facet 4, touches it only at the apex
    P = square_pyramid()
    chart = face_chart(P, [2])
    assert len(pulled_back(chart)) == 4
    triangle = restrict_polytope(P, chart)
    assert triangle.n_facets == 3 and len(vertices(triangle)) == 3


def test_restricted_faces_stay_delzant(triangle, square, simplex3, trapezoid, scaled_triangle):
    corpus = (triangle, square, simplex3, trapezoid, scaled_triangle)
    for P in corpus:
        assert validate_delzant(P).valid
        for codim in (1, 2):
            for active in combinations(range(1, P.n_facets + 1), codim):
                try:
                    chart = face_chart(P, active)
                except EmptyFaceError:
                    continue
                if chart.dim_face == 0:
                    continue
                restricted = restrict_polytope(P, chart)
                assert validate_delzant(restricted).valid, (P, active)


def test_restrict_polytope_unbounded_face(triangle, half_line):
    # a side face of the product: edge of the triangle crossed with the ray
    prod = product(triangle, half_line)
    chart = face_chart(prod, [3])
    restricted = restrict_polytope(prod, chart)
    assert restricted.dim == 2
    assert not restricted.bounded
    assert restricted.n_facets == 3


def test_product_vertices_are_cartesian(triangle, interval):
    prod = product(triangle, interval)
    got = {v.coords for v in vertices(prod)}
    expected = {
        v1.coords + v2.coords
        for v1 in vertices(triangle)
        for v2 in vertices(interval)
    }
    assert got == expected


def test_product_with_point_is_identity(triangle):
    point = Polytope(dim=0, halfspaces=())
    assert product(triangle, point) == triangle


def test_product_unbounded(triangle, half_line):
    prod = product(triangle, half_line)
    assert prod.dim == 3 and prod.n_facets == 4 and not prod.bounded
    assert not is_bounded(prod)


def _products():
    """Products by name: those of ``pointed_unbounded``, and bounded ones with and without a point factor."""
    point = Polytope(dim=0, halfspaces=())
    interval = Polytope(dim=1, halfspaces=(halfspace((1,), 0), halfspace((-1,), 1)))
    named = {name: P for name, P in pointed_unbounded().items() if name != "cut quadrant"}
    named.update({
        "pyramid prism": pyramid_prism(),
        "triangle x triangle": product(simplex(2), simplex(2)),
        "5-cube": functools.reduce(product, [interval] * 5),
        "point x triangle": product(point, simplex(2)),
        "ray x point": product(Polytope(dim=1, halfspaces=(halfspace((1,), 0),)), point),
        "point x point": product(point, point),
    })
    return named


PRODUCTS = _products()


@pytest.mark.parametrize("P", list(PRODUCTS.values()), ids=list(PRODUCTS))
def test_a_product_records_the_region_a_fresh_read_finds(P):
    fresh = Polytope(dim=P.dim, halfspaces=P.halfspaces)
    assert P.vertex_list == fresh.vertex_list
    assert P.rays == fresh.rays == tuple(sorted(fresh.rays))
    assert P.bounded == fresh.bounded
    assert P._region[1] == fresh._region[1] == list(range(P.n_facets))


def test_a_product_of_read_factors_reads_no_region(monkeypatch, triangle, half_line):
    # the product's vertices, rays and facets come from its factors: no
    # subset loop and no ray read, for the product or for its faces
    vertices(triangle), vertices(half_line)

    def no_read(*args):
        raise AssertionError("a product of read factors read its region")

    monkeypatch.setattr(polytope, "_feasible_solutions", no_read)
    monkeypatch.setattr(intlattice, "rays_from_vertices", no_read)
    P = product(triangle, half_line)
    assert len(vertices(P)) == 3 and P.rays == ((0, 0, 1),) and not P.bounded
    assert validate_delzant(P).valid
    for r in range(1, P.n_facets + 1):
        face_chart(P, (r,))
    guillemin(P)


def _rays_and_reference(P):
    """The rays a fresh read of P's half-spaces finds, and the oracle's (``reference_cone_rays``), sorted."""
    fresh = Polytope(dim=P.dim, halfspaces=P.halfspaces)
    return fresh.rays, tuple(sorted(reference_cone_rays([hs.normal for hs in P.halfspaces], P.dim)))


def _faces_at_vertices(P):
    """The face polytopes of P named by the proper subsets of its vertices' tight sets."""
    names = {s for v in vertices(P) for k in range(1, len(v.active)) for s in combinations(v.active, k)}
    return [face_chart(P, s).face_polytope for s in sorted(names)]


@settings(max_examples=30, deadline=None)
@given(delzant_products())
def test_rays_from_vertices_equal_cone_rays_on_delzant_products(case):
    P, _ = case
    for Q in [P] + _faces_at_vertices(P):
        got, want = _rays_and_reference(Q)
        assert got == want == ()


@pytest.mark.parametrize("name", list(pointed_unbounded()))
def test_rays_from_vertices_equal_cone_rays_on_unbounded_polyhedra(name):
    P = pointed_unbounded()[name]  # pyramid x ray has a non-simple vertex
    for Q in [P] + _faces_at_vertices(P):
        got, want = _rays_and_reference(Q)
        assert got == want and Q.bounded == (not want)


@pytest.mark.parametrize("P", [square_pyramid(), pyramid_prism()], ids=["square pyramid", "pyramid prism"])
def test_rays_equal_the_reference_on_non_simple_polytopes(P):
    for Q in [P] + _faces_at_vertices(P):
        got, want = _rays_and_reference(Q)
        assert got == want == ()


@settings(max_examples=80, deadline=None)
@given(cut_polyhedra(simple=True))
def test_rays_from_vertices_equal_cone_rays_on_simple_polyhedra(P):
    got, want = _rays_and_reference(P)
    assert got == want


def test_a_region_is_read_by_one_subset_loop(monkeypatch, half_line, triangle):
    # bounded then vertices: one subset loop; a bounded simple polytope's
    # edges are each seen at two vertices, so its rays take no kernel line
    calls = {"_feasible_solutions": 0, "_kernel_line": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(polytope, "_feasible_solutions")
    counted(intlattice, "_kernel_line")

    def reads(P):
        calls.update(dict.fromkeys(calls, 0))
        fresh = Polytope(dim=P.dim, halfspaces=P.halfspaces)
        fresh.bounded
        vertices(fresh)
        return calls["_feasible_solutions"], calls["_kernel_line"] > 0

    point = Polytope(dim=0, halfspaces=())
    for P in (cube(3), simplex(3), product(simplex(2), simplex(2)), point):
        assert reads(P) == (1, False)
    for P in (product(triangle, half_line), half_line, pointed_unbounded()["pyramid x ray"]):
        assert reads(P) == (1, True)


@pytest.mark.parametrize(
    "halfspaces",
    [
        [((0, 1), 0), ((0, -1), 1)],  # a strip
        [((1, 0), 0)],  # a half-plane
        [((1, 0), 0), ((-1, 0), -1), ((0, 1), 0)],  # empty
    ],
    ids=["strip", "half-plane", "empty"],
)
def test_a_region_with_no_vertex_raises_from_every_reader(halfspaces):
    hs = tuple(halfspace(v, c) for v, c in halfspaces)
    reads = (lambda P: P.rays, lambda P: P.bounded, is_bounded, lambda P: P.vertex_list)
    messages = set()
    for read in reads:
        with pytest.raises(DegenerateError) as err:
            read(Polytope(dim=2, halfspaces=hs))
        messages.add(str(err.value))
    assert messages == {polytope._DEGENERATE}


def test_a_product_reads_its_factors(triangle, interval):
    cut = Polytope(dim=2, halfspaces=triangle.halfspaces + (halfspace((1, 1), 5),))
    strip = Polytope(dim=2, halfspaces=(halfspace((0, 1), 0), halfspace((0, -1), 1)))
    with pytest.raises(InvalidInputError, match="half-space 4 is not a facet of the region"):
        product(interval, cut)
    with pytest.raises(DegenerateError, match="no vertex or no interior point"):
        product(strip, interval)


def test_guillemin_refuses_a_half_space_that_is_not_a_facet(triangle):
    cut = Polytope(dim=2, halfspaces=triangle.halfspaces + (halfspace((1, 1), 5),))
    with pytest.raises(InvalidInputError, match="half-space 4 is not a facet of the region"):
        guillemin(cut, 1.0)


def test_chart_deterministic(triangle):
    c1 = face_chart(triangle, [3])
    c2 = face_chart(triangle, [3])
    assert c1 == c2


def _with_redundant_constraints(P, rng):
    """P's facets plus three redundant constraints, shuffled.

    The three are a looser parallel copy of a facet (scaled, so it must be
    re-primitivized), a supporting hyperplane that touches P at exactly one
    vertex (its normal is interior to that vertex's normal cone), and a
    positive combination of two facets, which is tight where both are.
    """
    hs = P.halfspaces
    cons = [(h.normal, h.offset) for h in hs]
    h = hs[rng.integers(len(hs))]
    m = int(rng.integers(1, 4))
    cons.append((tuple(m * v for v in h.normal), m * h.offset + Fraction(int(rng.integers(1, 5)), 3)))
    v = vertices(P)[rng.integers(len(vertices(P)))]
    weights = [int(w) for w in rng.integers(1, 4, size=len(v.active))]
    normal = tuple(sum(w * hs[r - 1].normal[i] for w, r in zip(weights, v.active)) for i in range(P.dim))
    cons.append((normal, -sum(c * x for c, x in zip(normal, v.coords))))
    a, b = (int(i) for i in rng.choice(len(hs), size=2, replace=False))
    wa, wb = (int(w) for w in rng.integers(1, 3, size=2))
    normal = tuple(wa * x + wb * y for x, y in zip(hs[a].normal, hs[b].normal))
    if any(normal):
        cons.append((normal, wa * hs[a].offset + wb * hs[b].offset))
    return [cons[i] for i in rng.permutation(len(cons))]


def _pointed_unbounded_examples(test):
    """test with each polyhedron of ``pointed_unbounded`` as one more explicit input."""
    for P in pointed_unbounded().values():
        test = example((P, np.random.default_rng(0)))(test)
    return test


@settings(max_examples=60, deadline=None)
@given(delzant_products())
@_pointed_unbounded_examples
def test_incidence_redundancy_matches_subset_tests(case):
    P, rng = case
    cons = _with_redundant_constraints(P, rng)
    got = reduced_polytope(cons, P.dim)
    assert (got.halfspaces, got.bounded) == reference_reduced_polytope(cons, P.dim)
    assert set(got.halfspaces) == set(P.halfspaces)
    # the vertices it was built from are those a fresh copy enumerates
    assert vertices(got) == vertices(Polytope(dim=got.dim, halfspaces=got.halfspaces))
    for r in range(1, P.n_facets + 1):
        chart = face_chart(P, (r,))
        F, want = chart.face_polytope, reference_reduced_polytope(pulled_back(chart), chart.dim_face)
        assert (F.halfspaces, F.bounded) == want


def test_faces_of_a_bounded_polytope_take_its_vertices(monkeypatch):
    # boundedness is proven once, by vertices(P); the faces read P's vertices
    P = product(simplex(2), simplex(2))
    vertices(P)

    def no_ray_read(*args):
        raise AssertionError("face restriction of a bounded polytope read rays")

    monkeypatch.setattr(intlattice, "rays_from_vertices", no_ray_read)
    for r in range(1, P.n_facets + 1):
        F = face_chart(P, (r,)).face_polytope
        assert F.bounded and F.n_facets == 5


def test_face_polytopes_of_a_non_simple_polytope():
    # the square pyramid's apex lies on four facets; crossed with an interval
    # the apex edge has two non-simple vertices
    P = pyramid_prism()
    # every facet, and two opposite triangles of the pyramid, which meet only at the apex
    for active in [(r,) for r in range(1, P.n_facets + 1)] + [(2, 4), (3, 5)]:
        chart = face_chart(P, active)
        F, want = chart.face_polytope, reference_reduced_polytope(pulled_back(chart), chart.dim_face)
        assert (F.halfspaces, F.bounded) == want
    assert face_chart(P, (1,)).face_polytope.n_facets == 6  # the square base times the interval
    assert face_chart(P, (6,)).face_polytope.n_facets == 5  # the pyramid itself


def test_every_face_of_a_pointed_unbounded_polyhedron():
    # each nonempty face is the hull of P's vertices on it plus the cone of
    # P's rays along it; its chart origin lies in its relative interior
    charts = 0
    for name, P in pointed_unbounded().items():
        for size in range(P.n_facets + 1):
            for active in combinations(range(1, P.n_facets + 1), size):
                try:
                    chart = face_chart(P, active)
                except EmptyFaceError:
                    continue
                charts += 1
                F, want = chart.face_polytope, reference_reduced_polytope(pulled_back(chart), chart.dim_face)
                assert (F.halfspaces, F.bounded) == want, (name, active)
                for r, hs in enumerate(P.halfspaces, start=1):
                    value = hs.offset + sum(a * x for a, x in zip(hs.normal, chart.origin))
                    assert value == 0 if r in chart.vanishing else value > 0, (name, active, r)
    assert charts == 128


def test_interior_point_is_the_vertex_mean_plus_the_rays(triangle, half_line):
    assert half_line.interior_point == (1,)
    assert product(triangle, half_line).interior_point == (Fraction(1, 3), Fraction(1, 3), 1)
    assert triangle.interior_point == triangle.centroid == (Fraction(1, 3), Fraction(1, 3))


def test_a_polyhedron_that_contains_a_line_has_no_chart():
    strip = Polytope(dim=2, halfspaces=(halfspace((0, 1), 0), halfspace((0, -1), 1)))
    reads = (
        lambda: strip.bounded,
        lambda: strip.interior_point,
        lambda: face_chart(strip, (1,)),
        lambda: validate_delzant(strip),
    )
    for read in reads:
        with pytest.raises(DegenerateError, match="no vertex or no interior point"):
            read()


def test_a_face_is_read_from_the_vertices_on_it():
    # two opposite triangles of the pyramid, or all four, meet only along the
    # apex edge, which lies on facets 2-5: either name gives its 1-D chart;
    # on the pyramid times a ray they meet along the half-line apex x ray
    prism, times_ray = pyramid_prism(), pointed_unbounded()["pyramid x ray"]
    for P, rays in ((prism, ()), (times_ray, ((0, 0, 0, 1),))):
        pair, four = face_chart(P, (2, 4)), face_chart(P, (2, 3, 4, 5))
        for chart in (pair, four):
            assert chart.dim_face == 1 and chart.vanishing == {2, 3, 4, 5}
            assert chart.rays == rays and chart.face_polytope.bounded == (not rays)
        assert (pair.basis, pair.origin) == (four.basis, four.origin)
        assert pair.vertices == four.vertices == tuple(v for v in vertices(P) if len(v.active) == 5)
    assert face_chart(times_ray, (2, 4)).origin == (1, 1, 1, 1)  # the apex plus the ray


def test_vanishing_holds_a_facet_that_is_not_active():
    # the unit cube cut by x1 + x2 >= 0, which touches it only along the edge
    # x1 = x2 = 0, is refused: the cut is not a facet
    normals = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1), (1, 1, 0)]
    offsets = [0, 1, 0, 1, 0, 1, 0]
    P = Polytope(dim=3, halfspaces=tuple(halfspace(v, c) for v, c in zip(normals, offsets)))
    with pytest.raises(InvalidInputError, match="half-space 7 is not a facet of the region"):
        face_chart(P, (1, 3))
    # facets 2 and 4 of the pyramid times [0, 1] meet only along the apex
    # edge, on which facets 3 and 5 vanish too
    chart = face_chart(pyramid_prism(), (2, 4))
    assert chart.vanishing == {2, 3, 4, 5}
    assert chart.vanishing_mask.tolist() == [False, True, True, True, True, False, False]
    # the edge, as the unit interval about the chart origin (1, 1, 1, 1/2)
    F = chart.face_polytope
    assert [v.coords for v in vertices(F)] == [(Fraction(-1, 2),), (Fraction(1, 2),)]
    assert F.n_facets == 2


def test_reduced_polytope_of_unbounded_and_degenerate_systems():
    quadrant = [((1, 0), 0), ((0, 1), 0), ((1, 1), 1)]  # plus a redundant cut
    got = reduced_polytope(quadrant, 2)
    assert (got.halfspaces, got.bounded) == reference_reduced_polytope(quadrant, 2)
    assert got.n_facets == 2 and not got.bounded
    degenerate = [
        [((1, 0), 0), ((-1, 0), 0), ((0, 1), 0), ((0, -1), 1)],  # a segment in the plane
        [((1, 0), 0), ((-1, 0), -1), ((0, 1), 0), ((0, -1), 1)],  # empty
        [((0, 1), 0), ((0, -1), 1), ((0, 2), 1)],  # a strip, which contains a line
    ]
    for cons in degenerate:
        with pytest.raises(DegenerateError, match="no vertex or no interior point"):
            reduced_polytope(cons, 2)
