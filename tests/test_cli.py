import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from helpers import pyramid_prism
from polyflat.boundary import boundary_point
from polyflat.cli import main
from polyflat.dually_flat import newton_solve
from polyflat.errors import DomainError
from polyflat.jsonio import parse_polytope, parse_potential
from polyflat.polytope import face_chart
from polyflat.verify import DEFAULT_TOLERANCES

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

TRIANGLE = {
    "dim": 2,
    "bounded": True,
    "halfspaces": [
        {"normal": [1, 0], "offset": 0},
        {"normal": [0, 1], "offset": 0},
        {"normal": [-1, -1], "offset": 1},
    ],
}

TRAPEZOID = {
    "dim": 2,
    "bounded": True,
    "halfspaces": [
        {"normal": [1, 0], "offset": 0},
        {"normal": [0, 1], "offset": 0},
        {"normal": [-1, -1], "offset": 2},
        {"normal": [0, -1], "offset": 1},
    ],
}


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def tri_input(tmp_path):
    return write(
        tmp_path,
        "tri.json",
        {"polytope": TRIANGLE, "potential": {"guillemin_of": "polytope", "scale": 1.0}},
    )


def test_validate_triangle(tri_input, tmp_path, capsys):
    assert main(["validate", tri_input]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["delzant"]["valid"] and out["zero_sum"]


def test_validate_names_the_vertex_that_is_not_smooth(tmp_path, capsys):
    # x >= 0, y >= 0, 2 - x - 2y >= 0: at (0, 1) the normals (1, 0) and (-1, -2)
    # span a sublattice of index 2
    halfspaces = [((1, 0), 0), ((0, 1), 0), ((-1, -2), 2)]
    P = {"dim": 2, "halfspaces": [{"normal": list(v), "offset": c} for v, c in halfspaces]}
    assert main(["validate", write(tmp_path, "p.json", P)]) == 1
    delzant = json.loads(capsys.readouterr().out)["delzant"]
    assert not delzant["smooth"] and not delzant["valid"]
    assert delzant["failures"] == [{"vertex": ["0", "1"], "active": [1, 3], "determinant": -2}]


def test_validate_trapezoid(tmp_path, capsys):
    path = write(tmp_path, "trap.json", TRAPEZOID)
    assert main(["validate", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["delzant"]["valid"] and not out["zero_sum"]


def test_validate_malformed(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"dim": 2,')
    assert main(["validate", str(path)]) == 2


def test_validate_rejects_overflowing_offset(tmp_path):
    path = tmp_path / "huge.json"
    path.write_text(
        '{"dim": 1, "halfspaces": [{"normal": [1], "offset": 0},'
        ' {"normal": [-1], "offset": 1e400}]}'
    )
    assert main(["validate", str(path)]) == 2


def test_validate_rejects_fractional_normal(tmp_path):
    bad = {"dim": 1, "halfspaces": [{"normal": [1.5], "offset": 0}, {"normal": [-1], "offset": 1}]}
    assert main(["validate", write(tmp_path, "frac.json", bad)]) == 2


@pytest.mark.parametrize(
    "field, value", [("dim", 2.7), ("dim", True), ("bounded", "false"), ("bounded", "no")]
)
def test_validate_rejects_truncated_fields(tmp_path, capsys, field, value):
    bad = dict(TRIANGLE, **{field: value})
    assert main(["validate", write(tmp_path, "bad.json", bad)]) == 2
    assert field in capsys.readouterr().err


def test_validate_missing_file():
    assert main(["validate", "/nonexistent/nowhere.json"]) == 2


def test_divergence_table(tri_input, tmp_path, capsys):
    points = write(
        tmp_path, "pts.json", {"pairs": [[[0.25, 0.25], [1 / 3, 1 / 3]]]}
    )
    assert main(["divergence", tri_input, "--points", points]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["rows"][0]["divergence"] == pytest.approx(
        0.5 * math.log(0.75) + 0.5 * math.log(1.5), abs=1e-9
    )


def test_divergence_rejects_nan_point(tri_input, tmp_path):
    points = tmp_path / "nan.json"
    points.write_text('{"pairs": [[[NaN, 0.25], [0.25, 0.25]]]}')
    assert main(["divergence", tri_input, "--points", str(points)]) == 2


def test_divergence_rejects_malformed_pairs(tri_input, tmp_path):
    for pairs in (
        [[0.1, 0.2, 0.3, 0.4]],  # four numbers, not two points
        [[[0.1, 0.2], [0.3, 0.4], [0.2, 0.2]]],  # three points
        [[[0.1, 0.2], [0.3]]],  # a point of the wrong width
        [[[0.1, 0.2, 0.3], [0.3, 0.1, 0.1]]],  # both points of the wrong width
    ):
        points = write(tmp_path, "bad.json", {"pairs": pairs})
        assert main(["divergence", tri_input, "--points", points]) == 2


def test_divergence_rejects_non_integral_correction_exponent(tmp_path):
    problem = write(
        tmp_path,
        "frac.json",
        {
            "polytope": TRIANGLE,
            "potential": {
                "log_terms": TRIANGLE["halfspaces"],
                "correction": {"monomials": [{"exponents": [1.5, 0], "coeff": 0.25}]},
            },
        },
    )
    points = write(tmp_path, "pts.json", {"pairs": [[[0.25, 0.25], [0.2, 0.3]]]})
    assert main(["divergence", problem, "--points", points]) == 2


def test_divergence_table_is_one_batch(tri_input, tmp_path, capsys):
    pairs = [[[0.25, 0.25], [1 / 3, 1 / 3]], [[0.1, 0.7], [0.6, 0.2]], [[0.3, 0.3], [0.3, 0.3]]]
    points = write(tmp_path, "pts.json", {"pairs": pairs})
    assert main(["divergence", tri_input, "--points", points]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    phi = parse_potential({"guillemin_of": "polytope", "scale": 1.0}, parse_polytope(TRIANGLE))
    from polyflat.dually_flat import bregman

    assert [r["xi"] for r in rows] == [a for a, _ in pairs]
    for row, (a, b) in zip(rows, pairs):
        assert row["divergence"] == pytest.approx(bregman(phi, a, b), rel=1e-11, abs=1e-15)
    empty = write(tmp_path, "empty.json", {"pairs": []})
    assert main(["divergence", tri_input, "--points", empty]) == 0
    assert json.loads(capsys.readouterr().out)["rows"] == []


def test_geodesic_csv_roundtrip(tri_input, tmp_path):
    spec = write(
        tmp_path,
        "spec.json",
        {
            "kind": "dual",
            "start": [0.25, 0.25],
            "direction": [1.0, 1.0],
            "t_grid": [0.0, 0.5, 1.0, 2.0, 4.0],
        },
    )
    out_path = tmp_path / "trace.csv"
    assert main(
        ["geodesic", tri_input, "--spec", spec, "--format", "csv", "--out", str(out_path)]
    ) == 0
    phi = parse_potential({"guillemin_of": "polytope", "scale": 1.0}, parse_polytope(TRIANGLE))
    rows = [
        row
        for row in csv.DictReader(
            line for line in out_path.read_text().splitlines() if not line.startswith("#")
        )
    ]
    finite = [row for row in rows if row["t"] != "inf"]
    assert len(finite) == 5
    for row in finite:
        x = np.array([float(row["x_1"]), float(row["x_2"])])
        y = np.array([float(row["y_1"]), float(row["y_2"])])
        np.testing.assert_allclose(phi.gradient(x), y, atol=1e-9)
    limit_row = rows[-1]
    assert limit_row["t"] == "inf"
    assert float(limit_row["x_1"]) == pytest.approx(0.5, abs=1e-8)


def test_geodesic_flat_truncates(tri_input, tmp_path, capsys):
    spec = write(
        tmp_path,
        "spec.json",
        {
            "kind": "flat",
            "start": [1 / 3, 1 / 3],
            "direction": [1.0, 0.0],
            "t_grid": [0.0, 0.1, 0.2, 0.5],
        },
    )
    assert main(["geodesic", tri_input, "--spec", spec]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["rows"]) == 3  # t = 0.5 is outside
    assert out["notes"] and "0.333333333333" in out["notes"][0]


@pytest.mark.parametrize(
    "spec",
    [
        {"kind": "dual", "start": [0.2, 0.2], "direction": [float("nan"), 0.0]},
        {"kind": "flat", "start": [float("nan"), 0.2], "direction": [1.0, 0.0]},
        {"kind": "dual", "start": [0.2, 0.2], "direction": [1.0, 0.0], "t_grid": [float("nan")]},
    ],
)
def test_geodesic_rejects_nan_spec(tri_input, tmp_path, spec):
    assert main(["geodesic", tri_input, "--spec", write(tmp_path, "spec.json", spec)]) == 2


def test_boundary_table(tri_input, tmp_path, capsys):
    points = write(tmp_path, "bpts.json", {"pairs": [[[0.5, 0.5], [0.4, 0.6]]]})
    assert main(["boundary", tri_input, "--face", "3", "--points", points]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["rows"][0]["divergence"] == pytest.approx(0.02041099726, abs=1e-9)


def test_boundary_rejects_nan_point(tri_input, tmp_path):
    points = tmp_path / "nan.json"
    points.write_text('{"pairs": [[[NaN, 0.5], [0.4, 0.6]]]}')
    assert main(["boundary", tri_input, "--face", "3", "--points", str(points)]) == 2


@pytest.mark.parametrize(
    "command, payload, bad",
    [
        # the second point of the first pair is off the face's affine hull
        ("boundary", {"pairs": [[[0.5, 0.5], [0.4, 0.5]], [[0.3, 0.7], [0.0, 1.0]]]}, (0.4, 0.5)),
        # the given foot is a vertex, on the relative boundary of the face
        (
            "pythagoras",
            {"kind": "boundary_foot", "face": [3], "eta": [0.3, 0.7], "xi": [0.25, 0.25],
             "eta_prime": [1.0, 0.0]},
            (1.0, 0.0),
        ),
    ],
)
def test_off_face_point_exits_2_with_its_error(tri_input, tmp_path, capsys, command, payload, bad):
    flag = "--points" if command == "boundary" else "--triple"
    extra = ["--face", "3"] if command == "boundary" else []
    path = write(tmp_path, "in.json", payload)
    assert main([command, tri_input, *extra, flag, path]) == 2
    with pytest.raises(DomainError) as alone:
        boundary_point(face_chart(parse_polytope(TRIANGLE), (3,)), ambient=bad)
    assert capsys.readouterr().err == f"error: {alone.value}\n"


def small_scenario(**changes):
    """The bundled triangle scenario with few samples and no product check, changed."""
    sc = json.loads((SCENARIOS / "triangle.json").read_text())
    sc["samples"] = {"continuity_pairs": 1, "boundary_feet": 2, "interior_triples": 5}
    sc["product_check"] = False
    sc.update(changes)
    return sc


DUAL_SPEC = {"kind": "dual", "start": [0.2, 0.2], "direction": [1.0, 0.0]}
TRIPLE = {"kind": "boundary_foot", "face": [3], "eta": [0.3, 0.7], "xi": [0.25, 0.25]}
INTERIOR_TRIPLE = {**TRIPLE, "kind": "interior_foot", "xi_prime": [0.2, 0.3]}
# the triangle's mixture family, p(r | x) = l_r(x)
TRIANGLE_MIXTURE = {"alphas": [[1, 0], [0, 1], [-1, -1]], "betas": [0, 0, 1]}


# the triangle x1, x2 >= -1, x1 + x2 <= 2, whose interior holds points with coordinates 0 and 1
WIDE_TRIANGLE = {
    "dim": 2,
    "halfspaces": [
        {"normal": [1, 0], "offset": 1},
        {"normal": [0, 1], "offset": 1},
        {"normal": [-1, -1], "offset": 2},
    ],
}
# the triangle times [0, inf), an unbounded polyhedron
TRIANGLE_X_RAY = {"dim": 3, "halfspaces": [
    {"normal": [1, 0, 0], "offset": 0}, {"normal": [0, 1, 0], "offset": 0},
    {"normal": [-1, -1, 0], "offset": 1}, {"normal": [0, 0, 1], "offset": 0},
]}


TRIANGLE_TERMS = [{"normal": hs["normal"], "offset": hs["offset"]} for hs in TRIANGLE["halfspaces"]]


def _log_terms_with(first):
    """The small triangle scenario with its facet potential written out, the first term replaced."""
    return small_scenario(potential={"log_terms": [first, *TRIANGLE_TERMS[1:]]})


def _triangle_with(first):
    """The triangle with its first half-space replaced."""
    return {**TRIANGLE, "halfspaces": [first, *TRIANGLE["halfspaces"][1:]]}


def _corrected(monomial):
    """The small triangle scenario with a one-monomial correction."""
    return small_scenario(
        potential={"guillemin_of": "polytope", "correction": {"monomials": [monomial]}}
    )


@pytest.mark.parametrize(
    "command, payload",
    [
        ("divergence", {"pairs": {}}),
        ("boundary", {"pairs": {}}),
        ("divergence", [1, 2]),
        ("geodesic", {**DUAL_SPEC, "t_grid": 1.0}),
        ("geodesic", {**DUAL_SPEC, "start": 0.2}),
        ("pythagoras", {**TRIPLE, "face": 3}),
        ("verify-all", [5]),
        ("verify-all", []),
        ("verify-all", small_scenario(faces=3)),
        ("verify-all", small_scenario(tolerances={"legendre_roundtrip": "x"})),
        ("verify-all", small_scenario(tolerances={"kl_relation": True})),
        ("verify-all", small_scenario(tolerances={"kl_relation": -1e-12})),
        ("verify-all", small_scenario(tolerances={"kl_relaton": 1e-12})),
        ("verify-all", small_scenario(samples={"legendre_points": 2.5})),
        ("verify-all", small_scenario(samples={"legendre_points": "x"})),
        ("verify-all", small_scenario(samples={"boundary_feet": True})),
        ("verify-all", small_scenario(samples={"continuity_pairs": -1})),
        ("verify-all", small_scenario(samples={"continuity_pairs": 0})),
        ("verify-all", small_scenario(faces=[[1.5]])),
        ("verify-all", small_scenario(faces=[[True]])),
        ("verify-all", small_scenario(faces=[["1"]])),
        # a boolean is not a number: each of these read as 1 or 0 before
        ("validate", _triangle_with({"normal": [True, 0], "offset": 0})),
        ("validate", _triangle_with({"normal": [1, 0], "offset": False})),
        ("torify", {**TRIANGLE_MIXTURE, "alphas": [[True, 0], [0, 1], [-1, -1]]}),
        ("torify", {**TRIANGLE_MIXTURE, "betas": [False, 0, 1]}),
        ("verify-all", _corrected({"exponents": [True, 0], "coeff": 0.1})),
        ("verify-all", _corrected({"exponents": [1, 0], "coeff": True})),
        ("verify-all", _log_terms_with({"normal": [True, 0], "offset": 0})),
        ("verify-all", _log_terms_with({"normal": [1, 0], "offset": False})),
        ("verify-all", _log_terms_with({"normal": [1, 0], "offset": 0, "weight": True})),
        ("divergence", {"pairs": [[[True, False], [0.5, 0.5]]]}),
        ("geodesic", {**DUAL_SPEC, "start": [True, 0.2]}),
        ("geodesic", {**DUAL_SPEC, "direction": [True, 0]}),
        ("geodesic", {**DUAL_SPEC, "t_grid": [False, 0.1]}),
        ("pythagoras", {**TRIPLE, "eta": [True, 1.0], "xi": [0.5, 0.5]}),
        ("pythagoras", {**TRIPLE, "eta": [0.5, 1.5], "eta_prime": [True, 1.0], "xi": [0.5, 0.5]}),
        ("pythagoras", {**TRIPLE, "eta": [0.5, 1.5], "xi": [False, 0.5]}),
        ("pythagoras", {**INTERIOR_TRIPLE, "eta": [True, 1.0], "xi": [0.2, 0.2]}),
        ("pythagoras", {**INTERIOR_TRIPLE, "eta": [0.5, 1.5], "xi": [True, 0.2]}),
        ("pythagoras", {**INTERIOR_TRIPLE, "eta": [0.5, 1.5], "xi_prime": [0.2, False]}),
    ],
    ids=[
        "divergence-pairs-dict", "boundary-pairs-dict", "points-list", "t-grid-number",
        "start-number", "face-number", "scenario-number", "scenario-list-empty",
        "faces-number", "tolerance-string", "tolerance-bool", "tolerance-negative",
        "tolerance-unknown", "samples-float", "samples-string",
        "samples-bool", "samples-negative", "samples-zero", "face-index-float",
        "face-index-bool", "face-index-string", "normal-bool", "offset-bool", "alpha-bool",
        "beta-bool", "exponent-bool", "coefficient-bool", "log-normal-bool", "log-offset-bool",
        "log-weight-bool", "points-bool", "start-bool", "direction-bool", "t-grid-bool",
        "eta-bool", "eta-prime-bool", "xi-bool", "interior-eta-bool", "interior-xi-bool",
        "interior-xi-prime-bool",
    ],
)
def test_hostile_input_exits_2(tmp_path, capsys, command, payload):
    path = write(tmp_path, "in.json", payload)
    if command in ("verify-all", "validate", "torify"):
        argv = [command, path]
    else:
        # points are read in the wide triangle, where a boolean read as 0 or 1
        # makes a point of its interior or of its face 3
        flag = {"divergence": "--points", "boundary": "--points", "geodesic": "--spec"}
        potential = {"guillemin_of": "polytope", "scale": 1.0}
        problem = write(tmp_path, "wide.json", {"polytope": WIDE_TRIANGLE, "potential": potential})
        argv = [command, problem, flag.get(command, "--triple"), path]
        if command == "boundary":
            argv += ["--face", "3"]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("form", ["guillemin", "explicit"])
@pytest.mark.parametrize("scale", [-1, 0, "1", True, math.nan, math.inf])
def test_a_scale_that_is_not_a_finite_positive_number_exits_2(tmp_path, capsys, form, scale):
    base = {"guillemin_of": "polytope"} if form == "guillemin" else {"log_terms": TRIANGLE_TERMS}
    sc = small_scenario(potential={**base, "scale": scale})
    assert main(["verify-all", write(tmp_path, "in.json", sc)]) == 2
    assert capsys.readouterr().err == f"error: scale {scale!r} is not a finite number > 0\n"


def _with_key(obj, key):
    return {**obj, key: 1}


GUILLEMIN = {"guillemin_of": "polytope", "scale": 1.0}
MONOMIAL = {"exponents": [2, 0], "coeff": 0.1}


@pytest.mark.parametrize(
    "changes, what, key",
    [
        ({"polytope": _with_key(TRIANGLE, "halfspacez")}, "polytope", "halfspacez"),
        (
            {"polytope": {**TRIANGLE, "halfspaces": [_with_key(TRIANGLE["halfspaces"][0], "weight"),
                                                     *TRIANGLE["halfspaces"][1:]]}},
            "half-space", "weight",
        ),
        ({"potential": _with_key(GUILLEMIN, "scael")}, "potential", "scael"),
        ({"potential": _with_key(GUILLEMIN, "log_terms")}, "potential", "log_terms"),
        ({"potential": {"log_terms": TRIANGLE_TERMS, "scael": 1.0}}, "potential", "scael"),
        (
            {"potential": {"log_terms": [_with_key(TRIANGLE_TERMS[0], "wieght"), *TRIANGLE_TERMS[1:]]}},
            "log term", "wieght",
        ),
        ({"potential": {**GUILLEMIN, "correction": {"monomial": []}}}, "correction", "monomial"),
        (
            {"potential": {**GUILLEMIN, "correction": {"monomials": [_with_key(MONOMIAL, "coef")]}}},
            "monomial", "coef",
        ),
    ],
    ids=["polytope", "half-space", "guillemin", "guillemin-log-terms", "explicit", "log-term",
         "correction", "monomial"],
)
def test_a_key_that_nothing_reads_exits_2(tmp_path, capsys, changes, what, key):
    assert main(["verify-all", write(tmp_path, "in.json", small_scenario(**changes))]) == 2
    assert capsys.readouterr().err.startswith(f"error: {what} key {key!r} is unknown; known: ")


NO_PAIRS = {"pairs": []}


@pytest.mark.parametrize(
    "command, payload, what, key",
    [
        ("geodesic", {**DUAL_SPEC, "tgrid": [0.0, 1.0]}, "geodesic spec", "tgrid"),
        ("pythagoras", {**TRIPLE, "etaprime": [0.5, 0.5]}, "boundary_foot triple", "etaprime"),
        ("pythagoras", {**INTERIOR_TRIPLE, "eta_prime": [0.5, 0.5]}, "interior_foot triple",
         "eta_prime"),
        ("divergence", {**NO_PAIRS, "pairz": []}, "points file", "pairz"),
        ("boundary", {**NO_PAIRS, "pairz": []}, "points file", "pairz"),
        ("torify", {**TRIANGLE_MIXTURE, "gama": 1}, "mixture family", "gama"),
        ("validate", {"polytope": TRIANGLE, "potentail": GUILLEMIN}, "problem file", "potentail"),
        ("torify", {"polytope": TRIANGLE, "potentail": GUILLEMIN}, "problem file", "potentail"),
    ],
    ids=["spec", "boundary-foot", "interior-foot", "divergence-points", "boundary-points",
         "mixture", "validate-problem", "torify-problem"],
)
def test_a_key_that_nothing_reads_in_an_input_file_exits_2(
    tri_input, tmp_path, capsys, command, payload, what, key
):
    flag = {"geodesic": "--spec", "pythagoras": "--triple"}.get(command, "--points")
    path = write(tmp_path, "in.json", payload)
    argv = [command, path] if command in ("validate", "torify") else [command, tri_input, flag, path]
    assert main(argv + (["--face", "3"] if command == "boundary" else [])) == 2
    assert capsys.readouterr().err.startswith(f"error: {what} key {key!r} is unknown; known: ")


@pytest.mark.parametrize(
    "args, message",
    [
        (["verify-all", small_scenario(), "--tol", "abc"], "--tol expects NAME=VALUE, got 'abc'"),
        (["divergence", TRIANGLE, "--points", NO_PAIRS], "input file must carry a potential"),
        (
            ["pythagoras", "tri", "--triple", {**TRIPLE, "kind": "orthogonal"}],
            "unknown pythagoras kind 'orthogonal'",
        ),
        (["boundary", "tri", "--face", "9", "--points", NO_PAIRS], "facet index 9 out of range 1..3"),
        (
            ["geodesic", "tri", "--spec", {**DUAL_SPEC, "kind": "straight"}],
            "geodesic kind 'straight' must be 'flat' or 'dual'",
        ),
    ],
    ids=["tol-without-value", "no-potential", "pythagoras-kind", "face-index", "geodesic-kind"],
)
def test_a_refused_input_exits_2_naming_it(tri_input, tmp_path, capsys, args, message):
    # "tri" is the triangle problem file; an object is written to a file of its own
    argv = [
        tri_input if a == "tri" else write(tmp_path, f"{i}.json", a) if isinstance(a, dict) else a
        for i, a in enumerate(args)
    ]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["divergence", "verify-all"])
def test_a_concave_potential_exits_2_naming_convexity(tmp_path, capsys, command):
    # -50 x1^2 outweighs the Hessian 1/x1 + 1/x3 of the log terms where x1 > 1/100
    concave = {**GUILLEMIN, "correction": {"monomials": [{"exponents": [2, 0], "coeff": -50.0}]}}
    if command == "verify-all":
        argv = [command, write(tmp_path, "sc.json", small_scenario(potential=concave))]
    else:
        problem = write(tmp_path, "in.json", {"polytope": TRIANGLE, "potential": concave})
        argv = [command, problem, "--points", write(tmp_path, "pts.json", NO_PAIRS)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(
        "error: potential is not convex: the sampled convexity check fails at ("
    )


def test_a_correction_next_to_guillemin_of_is_applied(tmp_path, capsys):
    # it was dropped, NaN coefficients included; now it is read as in the explicit form
    nan = {"monomials": [{**MONOMIAL, "coeff": math.nan}]}
    sc = small_scenario(potential={**GUILLEMIN, "correction": nan})
    assert main(["verify-all", write(tmp_path, "nan.json", sc)]) == 2
    assert "coefficient nan of (2, 0) is not finite" in capsys.readouterr().err
    correction = {"monomials": [MONOMIAL]}
    phi = parse_potential({**GUILLEMIN, "correction": correction}, parse_polytope(TRIANGLE))
    assert phi == parse_potential({"scale": 1.0, "log_terms": TRIANGLE_TERMS, "correction": correction})


def test_pythagoras_command(tri_input, tmp_path, capsys):
    triple = write(
        tmp_path,
        "triple.json",
        {"kind": "boundary_foot", "face": [3], "eta": [0.3, 0.7], "xi": [0.25, 0.25]},
    )
    assert main(["pythagoras", tri_input, "--triple", triple]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["pass"]
    np.testing.assert_allclose(out["eta_prime"], [0.5, 0.5], atol=1e-8)


def test_torify_roundtrip(tmp_path, capsys):
    path = write(tmp_path, "tri.json", TRIANGLE)
    assert main(["torify", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["zero_sum"] and out["pass"]
    mix = write(tmp_path, "mix.json", out["mixture"])
    assert main(["torify", mix]) == 0
    out2 = json.loads(capsys.readouterr().out)
    assert out2["pass"]


def test_torify_trapezoid_fails(tmp_path, capsys):
    path = write(tmp_path, "trap.json", TRAPEZOID)
    assert main(["torify", path]) == 1
    out = json.loads(capsys.readouterr().out)
    assert not out["zero_sum"] and out["delzant"]["valid"]


def test_torify_refuses_a_polyhedron_that_contains_a_line(tmp_path, capsys):
    # the strip 0 <= x2 <= 1 has zero-sum normals but no vertex, so it is
    # refused when read, as from_mixture refuses its family
    strip = {"dim": 2, "halfspaces": [{"normal": [0, 1], "offset": 0}, {"normal": [0, -1], "offset": 1}]}
    assert main(["torify", write(tmp_path, "strip.json", strip)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "no vertex or no interior point" in captured.err


def _region(*halfspaces):
    """A plane region from (normal, offset) pairs, in the polytope schema."""
    return {"dim": 2, "halfspaces": [{"normal": list(v), "offset": c} for v, c in halfspaces]}


def _run_on_region(tmp_path, command, region):
    """The exit code of a subcommand on the small triangle scenario with this region."""
    path = write(tmp_path, "in.json", small_scenario(polytope=region))
    points = write(tmp_path, "pairs.json", {"pairs": [[[0.2, 0.3], [0.5, 0.1]]]})
    return main([command, path] + (["--points", points] if command == "divergence" else []))


TRIANGLE_HALFSPACES = (((1, 0), 0), ((0, 1), 0), ((-1, -1), 1))
NO_VERTEX = "no vertex or no interior point"
NOT_A_FACET = "half-space 4 is not a facet of the region"


@pytest.mark.parametrize("command", ["validate", "torify", "divergence", "verify-all"])
@pytest.mark.parametrize(
    "region, message",
    [
        (_region(((1, 0), 0), ((-1, 0), 0), ((0, 1), 0), ((0, -1), 1)), NO_VERTEX),
        (_region(((0, 1), 0), ((0, -1), 1)), NO_VERTEX),
        (_region(((1, 0), 0)), NO_VERTEX),
        (_region(((1, 0), 0), ((0, 1), 0), ((-1, -1), -1)), NO_VERTEX),
        (_region(((1, 0), 0), ((-1, 0), -1)), NO_VERTEX),
        (_region(*TRIANGLE_HALFSPACES, ((1, 1), 5)), NOT_A_FACET),
        (_region(*TRIANGLE_HALFSPACES, ((-1, -1), 2)), NOT_A_FACET),
    ],
    ids=["segment", "strip", "half-plane", "empty-bounded", "empty-unbounded", "cut-far",
         "parallel-cut"],
)
def test_a_region_that_is_not_named_by_its_facets_exits_2(tmp_path, capsys, command, region, message):
    # each subcommand reads the polytope through one rule, so each refuses a
    # region with no vertex or no interior point, and a half-space that is
    # not a facet, naming it
    assert _run_on_region(tmp_path, command, region) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ") and message in captured.err


@pytest.mark.parametrize(
    "command, code", [("validate", 0), ("torify", 1), ("divergence", 0), ("verify-all", 0)]
)
def test_the_quadrant_is_accepted(tmp_path, command, code):
    # a pointed unbounded region is named by its facets: it validates, and
    # only torify, which needs a compact closure, fails it
    assert _run_on_region(tmp_path, command, _region(((1, 0), 0), ((0, 1), 0))) == code


@pytest.mark.parametrize(
    "alphas, betas",
    [
        ([[1, 0], [-1, 0], [0, 0]], [0, "1/2", "1/2"]),
        ([[1], [1], [-2]], [-5, 5, 1]),
        ([[1], [-1], [1], [-1]], [0, 0, "1/2", "1/2"]),
        ([[1, 0], [-1, 0], [0, 1], [0, -1]], [0, 0, "1/2", "1/2"]),
    ],
    ids=["strip", "empty", "point", "segment"],
)
def test_torify_refuses_a_degenerate_family(tmp_path, capsys, alphas, betas):
    # no open parameter domain, or a closure that contains a line: the region
    # has no vertex or no interior point, so it is refused, not judged
    path = write(tmp_path, "mix.json", {"alphas": alphas, "betas": betas})
    assert main(["torify", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "no vertex or no interior point" in captured.err


def test_verify_all_bundled_scenarios(capsys):
    assert main(["verify-all", str(SCENARIOS / "triangle.json")]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["pass"] and all(c["pass"] for c in out["checks"])
    assert main(["verify-all", str(SCENARIOS / "square.json")]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["pass"]


def test_verify_all_negative_control(capsys):
    assert main(["verify-all", str(SCENARIOS / "triangle_negative_control.json")]) == 1
    out = json.loads(capsys.readouterr().out)
    failing = [c for c in out["checks"] if not c["pass"]]
    assert failing
    assert all(c["check"] == "pythagoras-boundary-foot" for c in failing)
    assert all(c["residual"] >= 1e-4 for c in failing)


def test_verify_all_deterministic(tmp_path):
    out1 = tmp_path / "run1.json"
    out2 = tmp_path / "run2.json"
    for out in (out1, out2):
        assert main(
            ["verify-all", str(SCENARIOS / "triangle.json"), "--seed", "7", "--out", str(out)]
        ) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_verify_all_scenario_list(tmp_path, capsys):
    scenarios = [
        json.loads((SCENARIOS / "triangle.json").read_text()),
        json.loads((SCENARIOS / "square.json").read_text()),
    ]
    for sc in scenarios:
        sc["samples"] = {"continuity_pairs": 1, "boundary_feet": 2, "interior_triples": 5}
        sc["product_check"] = False
    path = write(tmp_path, "both.json", scenarios)
    assert main(["verify-all", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["pass"] and len(out["scenarios"]) == 2


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_verify_all_sweeps_an_unbounded_polyhedron(tmp_path, capsys, seed):
    # the triangle times [0, inf): points are drawn along its rays as well as
    # from its vertices, so every facet, the two half-line edges [1, 4] and
    # [3, 4] and the bounded edges [1, 2] and [2, 3] are swept
    faces = [[1], [2], [3], [4], [1, 4], [3, 4], [1, 2], [2, 3]]
    polytope = {"dim": 3, "halfspaces": [
        {"normal": [1, 0, 0], "offset": 0}, {"normal": [0, 1, 0], "offset": 0},
        {"normal": [-1, -1, 0], "offset": 1}, {"normal": [0, 0, 1], "offset": 0},
    ]}
    scenario = small_scenario(polytope=polytope, faces=faces)
    scenario["samples"] = {"continuity_pairs": 3, "boundary_feet": 10, "interior_triples": 50}
    assert main(["verify-all", write(tmp_path, "ray.json", scenario), "--seed", str(seed)]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert len(checks) == 35 and all(c["pass"] for c in checks)
    swept = {tuple(c["inputs"]["face"]) for c in checks if "face" in c["inputs"]}
    assert swept == {tuple(f) for f in faces}


@pytest.mark.parametrize("polytope, product", [(TRIANGLE, True), (TRIANGLE_X_RAY, False)])
def test_product_check_defaults_to_bounded(tmp_path, capsys, polytope, product):
    scenario = small_scenario(polytope=polytope)
    del scenario["product_check"]
    assert main(["verify-all", write(tmp_path, "in.json", scenario)]) == 0
    checks = [c["check"] for c in json.loads(capsys.readouterr().out)["checks"]]
    assert ("product-additivity" in checks) == ("product-pythagoras" in checks) == product


def test_verify_all_tolerance_override(capsys):
    # an absurdly tight tolerance forces a failure
    assert (
        main(
            [
                "verify-all",
                str(SCENARIOS / "triangle.json"),
                "--tol",
                "continuity_gap=1e-300",
            ]
        )
        == 1
    )
    capsys.readouterr()


@pytest.mark.parametrize(
    "scenario, tol",
    [
        ("triangle_negative_control", "boundary_foot=inf"),
        ("triangle", "continuity_gap=nan"),
        ("triangle", "contnuity_gap=1e-300"),
        ("triangle", "continuity_gap=-1"),
    ],
)
def test_verify_all_rejects_bad_tolerances(capsys, scenario, tol):
    # a tolerance that is unknown, not finite or negative would weaken or skip checks
    assert main(["verify-all", str(SCENARIOS / f"{scenario}.json"), "--tol", tol]) == 2
    name = tol.split("=")[0]
    assert capsys.readouterr().err.startswith(f"error: tolerance {name!r}")


def test_pythagoras_tolerances_are_checked(tri_input, tmp_path, capsys):
    triple = write(tmp_path, "triple.json", TRIPLE)
    argv = ["pythagoras", tri_input, "--triple", triple, "--tol"]
    assert main([*argv, "boundary_foot=0.5"]) == 0
    assert json.loads(capsys.readouterr().out)["tolerance"] == 0.5
    for tol in ("boundary_fot=1", "boundary_foot=nan", "interior_identity=-1"):
        assert main([*argv, tol]) == 2
        assert capsys.readouterr().err.startswith("error: tolerance")


def test_pythagoras_takes_only_the_tolerance_of_its_kind(tri_input, tmp_path, capsys):
    # a tolerance that does not judge the triple's kind would be ignored in silence
    interior = {**TRIPLE, "kind": "interior_foot", "xi_prime": [0.2, 0.3]}
    for payload, other in ((TRIPLE, "interior_identity"), (interior, "boundary_foot")):
        triple = write(tmp_path, "triple.json", payload)
        assert main(["pythagoras", tri_input, "--triple", triple, "--tol", f"{other}=1e6"]) == 2
        assert capsys.readouterr().err.startswith(f"error: tolerance {other!r}")


@pytest.mark.parametrize(
    "changes, named",
    [
        ({"samples": {"boundary_fet": 1}}, "'boundary_fet'"),
        ({"samples": [["boundary_feet", 2]]}, "sample count"),
        ({"tolerance": {"continuity_gap": 1e-300}}, "'tolerance'"),
        ({"negative_controll": True}, "'negative_controll'"),
        ({"product_check": "false"}, "'product_check'"),
        ({"product_check": None}, "'product_check'"),
        ({"negative_control": 1}, "'negative_control'"),
        ({"faces": [[3], [1, 2]]}, "[1, 2]"),
        ({"faces": [[]]}, "face []"),
        # the product checks skipped an unbounded polytope in silence
        ({"polytope": TRIANGLE_X_RAY, "product_check": True}, "'product_check'"),
        # a weight-2 log term failed halfway through the sweep, in bregman_expanded
        ({"potential": {"scale": 1.0, "log_terms": [
            {"normal": [1, 0], "offset": 0, "weight": 2},
            {"normal": [0, 1], "offset": 0},
            {"normal": [-1, -1], "offset": 1},
        ]}}, "facets of the polytope, each with weight 1"),
    ],
    ids=[
        "samples-unknown", "samples-list", "key-tolerance", "key-misspelt",
        "product-check-string", "product-check-null", "negative-control-int", "faces-vertex",
        "faces-empty", "product-check-unbounded", "potential-weighted",
    ],
)
def test_verify_all_rejects_settings_it_would_ignore(tmp_path, capsys, changes, named):
    # each of these ran the sweep with the setting skipped or misread
    assert main(["verify-all", write(tmp_path, "in.json", small_scenario(**changes))]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err


def test_unsolved_orthogonal_rebuild_fails_its_check(tmp_path, capsys, monkeypatch):
    # a rebuilt xi2 that Newton does not solve is dropped from the residual,
    # so the check must fail rather than judge the rows that are left
    def one_row_stalls(*args, **kwargs):
        x, residual, status, iterations = newton_solve(*args, **kwargs)
        status = status.copy()
        status[0] = "stalled"
        return x, residual, status, iterations

    monkeypatch.setattr("polyflat.verify.newton_solve", one_row_stalls)
    assert main(["verify-all", write(tmp_path, "in.json", small_scenario())]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    failing = [c for c in checks if not c["pass"]]
    assert failing and all(c["check"] == "pythagoras-interior-orthogonal" for c in failing)
    assert all(c["inputs"]["unconverged"] == 1 for c in failing)


def test_unsolved_rebuild_row_fails_only_its_own_face(tmp_path, capsys, monkeypatch):
    # the rebuild of every face is one solve, a block of interior_triples rows
    # per face; a row left unsolved in the second block fails the second face
    triples = small_scenario()["samples"]["interior_triples"]
    calls = []

    def second_face_stalls(*args, **kwargs):
        x, residual, status, iterations = newton_solve(*args, **kwargs)
        calls.append(len(status))
        status = status.copy()
        status[triples] = "stalled"
        return x, residual, status, iterations

    monkeypatch.setattr("polyflat.verify.newton_solve", second_face_stalls)
    assert main(["verify-all", write(tmp_path, "in.json", small_scenario())]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert calls == [3 * triples]  # the triangle's three edges
    failing = [c for c in checks if not c["pass"]]
    assert [(c["check"], c["inputs"]) for c in failing] == [
        ("pythagoras-interior-orthogonal", {"face": [2], "triples": triples, "unconverged": 1})
    ]


def test_verify_all_refuses_a_vertex_face_before_any_draw(tmp_path, capsys, monkeypatch):
    # the faces before the vertex [1, 2] were sampled and solved before it was refused
    draws = []
    for name in ("random_interior", "random_face_point"):
        monkeypatch.setattr(f"polyflat.verify.{name}", lambda *args, **kwargs: draws.append(1))
    scenario = small_scenario(faces=[[1], [2], [1, 2]])
    assert main(["verify-all", write(tmp_path, "in.json", scenario)]) == 2
    err = capsys.readouterr().err
    assert err == "error: face [1, 2] is a vertex; faces need dimension >= 1\n"
    assert draws == []


def test_verify_all_sweeps_a_face_of_a_non_simple_polytope(tmp_path, capsys):
    # the apex edge of the pyramid prism, named by two opposite triangles or
    # by all four facets through it; each scenario draws the same samples
    P = pyramid_prism()
    polytope = {
        "dim": P.dim,
        "halfspaces": [{"normal": list(hs.normal), "offset": int(hs.offset)} for hs in P.halfspaces],
    }
    scenarios = [{"polytope": polytope, "faces": [face]} for face in ([2, 4], [2, 3, 4, 5])]
    assert main(["verify-all", write(tmp_path, "in.json", scenarios)]) == 1
    pair, four = (sc["checks"] for sc in json.loads(capsys.readouterr().out)["scenarios"])
    for checks in (pair, four):
        assert [c["check"] for c in checks if not c["pass"]] == ["delzant"]  # the apex is not simple
    assert [c["residual"] for c in pair] == [c["residual"] for c in four]


PRISM = {  # the zero-sum prism: triangle times [0, 1]
    "dim": 3,
    "halfspaces": [
        {"normal": [1, 0, 0], "offset": 0},
        {"normal": [0, 1, 0], "offset": 0},
        {"normal": [-1, -1, 0], "offset": 1},
        {"normal": [0, 0, 1], "offset": 0},
        {"normal": [0, 0, -1], "offset": 1},
    ],
}


def test_kl_relation_runs_only_for_an_affine_correction(tmp_path, capsys):
    # D = s * sum(lambda) * KL needs the facet potential up to an affine
    # correction; with a quadratic one, kl-relation failed a valid potential
    for exponents, kl in (([2, 0, 0], [0, 0, 2]), False), (([1, 0, 0], [0, 0, 1]), True):
        correction = {"monomials": [{"exponents": e, "coeff": c} for e, c in zip(exponents, (0.3, 0.2))]}
        potential = {"scale": 0.5, "log_terms": PRISM["halfspaces"], "correction": correction}
        scenario = {"polytope": PRISM, "potential": potential, "faces": [], "product_check": False}
        assert main(["verify-all", write(tmp_path, "in.json", scenario)]) == 0
        checks = [c["check"] for c in json.loads(capsys.readouterr().out)["checks"]]
        assert ("kl-relation" in checks) == kl


@pytest.mark.parametrize("flag", ["--seed=5", "--tol=bogus=abc"])
def test_subcommands_reject_flags_they_do_not_read(tri_input, tmp_path, flag):
    # --seed is read only by verify-all, --tol only by verify-all and pythagoras
    points = write(tmp_path, "pts.json", {"pairs": [[[0.25, 0.25], [0.2, 0.3]]]})
    face_points = write(tmp_path, "bpts.json", {"pairs": [[[0.5, 0.5], [0.4, 0.6]]]})
    runs = [
        ["validate", tri_input],
        ["divergence", tri_input, "--points", points],
        ["geodesic", tri_input, "--spec", write(tmp_path, "spec.json", DUAL_SPEC)],
        ["boundary", tri_input, "--face", "3", "--points", face_points],
        ["torify", tri_input],
    ]
    if flag.startswith("--seed"):
        runs.append(["pythagoras", tri_input, "--triple", write(tmp_path, "t.json", TRIPLE)])
    for argv in runs:
        assert main([*argv, "--out", str(tmp_path / "out.json")]) == 0, argv[0]
        with pytest.raises(SystemExit) as exit_:
            main([*argv, flag])
        assert exit_.value.code == 2, argv[0]


HALF_LINE = {"dim": 1, "halfspaces": [{"normal": [1], "offset": 0}]}


def test_bounded_key_must_agree_with_the_region(tmp_path, capsys):
    # the half-spaces decide boundedness; a file that claims otherwise is malformed
    for payload in (dict(TRIANGLE, bounded=False), dict(HALF_LINE, bounded=True)):
        assert main(["validate", write(tmp_path, "bad.json", payload)]) == 2
        assert "bounded" in capsys.readouterr().err
    scenario = json.loads((SCENARIOS / "triangle.json").read_text())
    scenario["polytope"]["bounded"] = False
    assert main(["verify-all", write(tmp_path, "scenario.json", scenario)]) == 2
    assert "bounded" in capsys.readouterr().err


def test_validate_half_line_without_bounded_key(tmp_path, capsys):
    assert main(["validate", write(tmp_path, "ray.json", HALF_LINE)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["delzant"]["partial"] and out["delzant"]["valid"]


def test_main_keeps_no_argument_state_between_calls(tmp_path):
    # the parser is built once per process; flags of one call must not reach the next
    scenario = str(SCENARIOS / "triangle.json")
    tight, plain = tmp_path / "tight.json", tmp_path / "plain.json"
    flags = ["--tol", "continuity_gap=1e-300", "--seed", "5", "--out", str(tight)]
    assert main(["verify-all", scenario, *flags]) == 1
    assert json.loads(tight.read_text())["seed"] == 5
    assert main(["verify-all", scenario, "--out", str(plain)]) == 0
    out = json.loads(plain.read_text())
    assert out["seed"] == 0 and out["pass"]
    continuity = [c for c in out["checks"] if c["check"] == "boundary-continuity"]
    assert continuity
    assert all(c["tolerance"] == DEFAULT_TOLERANCES["continuity_gap"] for c in continuity)


def run_csv(argv, tmp_path):
    """Exit code and CSV text of a command."""
    out = tmp_path / "out.csv"
    code = main([*argv, "--format", "csv", "--out", str(out)])
    return code, out.read_text()


def test_csv_text_of_each_table(tri_input, tmp_path):
    # every command writes through one writer; the text of each table is fixed
    tri = write(tmp_path, "tri_p.json", TRIANGLE)
    pairs = [[[0.25, 0.25], [1 / 3, 1 / 3]], [[0.1, 0.7], [0.6, 0.2]], [[0.3, 0.3], [0.3, 0.3]]]
    points = write(tmp_path, "pts.json", {"pairs": pairs})
    face_pairs = [[[0.5, 0.5], [0.4, 0.6]], [[0.3, 0.7], [0.8, 0.2]]]
    face_points = write(tmp_path, "bpts.json", {"pairs": face_pairs})
    triple = write(
        tmp_path,
        "triple.json",
        {"kind": "interior_foot", "face": [3], "eta": [0.3, 0.7], "xi": [0.25, 0.25],
         "xi_prime": [0.2, 0.3]},
    )
    cases = [
        (
            ["validate", tri], 0,
            "property,value\nsimple,True\nrational,True\nsmooth,True\npartial,False\n"
            "valid,True\nzero_sum,True\n",
        ),
        (
            ["divergence", tri_input, "--points", points], 0,
            "xi_1,xi_2,xi2_1,xi2_2,divergence\n"
            "0.25,0.25,0.333333333333,0.333333333333,0.0588915178282\n"
            "0.1,0.7,0.6,0.2,0.697758131024\n"
            "0.3,0.3,0.3,0.3,0\n",
        ),
        (
            ["boundary", tri_input, "--face", "3", "--points", face_points], 0,
            "eta_1,eta_2,eta2_1,eta2_2,divergence\n"
            "0.5,0.5,0.4,0.6,0.0204109972601\n"
            "0.3,0.7,0.8,0.2,0.582685302043\n",
        ),
        (
            ["pythagoras", tri_input, "--triple", triple], 1,
            "field,value\ncheck,pythagoras\nkind,interior_foot\npass,False\n"
            "perp_value,0.0708875229916\nresidual,0.0708875229916\ntolerance,1e-09\n",
        ),
        (["torify", tri], 0, "field,value\npass,True\n"),
        (["torify", write(tmp_path, "trap.json", TRAPEZOID)], 1, "field,value\npass,False\n"),
    ]
    for argv, code, text in cases:
        assert run_csv(argv, tmp_path) == (code, text), argv[0]


def test_verify_all_csv_columns(tmp_path):
    # residuals are rounding noise and are not pinned
    scenario = str(SCENARIOS / "triangle_negative_control.json")
    code, text = run_csv(["verify-all", scenario], tmp_path)
    assert code == 1
    header, *rows = list(csv.reader(text.splitlines()))
    assert header == ["scenario", "check", "residual", "tolerance", "pass"]
    per_face = [
        "boundary-continuity",
        "pythagoras-boundary-foot",
        "pythagoras-interior-identity",
        "pythagoras-interior-orthogonal",
    ]
    names = ["delzant", "legendre-roundtrip", "divergence-expansion", "kl-relation"] + 3 * per_face
    assert [row[1] for row in rows] == names
    assert {row[0] for row in rows} == {"triangle-negative-control"}
    assert [row[4] for row in rows] == [
        str(name != "pythagoras-boundary-foot") for name in names
    ]
