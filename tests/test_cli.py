import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

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
    ],
    ids=[
        "divergence-pairs-dict", "boundary-pairs-dict", "points-list", "t-grid-number",
        "start-number", "face-number", "scenario-number", "scenario-list-empty",
        "faces-number", "tolerance-string", "tolerance-bool", "tolerance-negative",
        "tolerance-unknown", "samples-float", "samples-string",
        "samples-bool", "samples-negative", "samples-zero",
    ],
)
def test_hostile_input_exits_2(tri_input, tmp_path, capsys, command, payload):
    path = write(tmp_path, "in.json", payload)
    if command == "verify-all":
        argv = [command, path]
    else:
        flag = {"divergence": "--points", "boundary": "--points", "geodesic": "--spec"}
        argv = [command, tri_input, flag.get(command, "--triple"), path]
        if command == "boundary":
            argv += ["--face", "3"]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error:")


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
        ({"negative_control": 1}, "'negative_control'"),
        ({"faces": [[3], [1, 2]]}, "[1, 2]"),
        ({"faces": [[]]}, "face []"),
    ],
    ids=[
        "samples-unknown", "samples-list", "key-tolerance", "key-misspelt",
        "product-check-string", "negative-control-int", "faces-vertex", "faces-empty",
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
