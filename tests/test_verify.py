"""run_scenario sweeps its faces in one batch with the results of a face-by-face sweep.

The reference, ``helpers.reference_run_scenario``, draws, solves and judges
each face in turn with its own orthogonal rebuild; the batched sweep must
return equal CheckResults, floats included, on every case below.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from helpers import cube, cube_faces, pyramid_prism, reference_run_scenario
from polyflat import boundary, dually_flat, verify
from polyflat.dually_flat import from_dual
from polyflat.errors import FaceBoundaryError, NumericalError
from polyflat.jsonio import parse_polytope, parse_potential
from polyflat.potential import guillemin
from polyflat.verify import DEFAULT_SAMPLES, run_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def assert_matches_reference(P, phi, **kwargs):
    got = run_scenario(P, phi, **kwargs)
    assert got == reference_run_scenario(P, phi, **kwargs)
    return got


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize(
    "name", ["triangle", "square", "triangle_negative_control", "cut_simplex"]
)
def test_bundled_scenarios_match_the_face_by_face_sweep(name, seed):
    sc = json.loads((SCENARIOS / f"{name}.json").read_text())
    P = parse_polytope(sc["polytope"])
    phi = parse_potential(sc["potential"], P)
    results, ok = assert_matches_reference(
        P, phi, faces=sc.get("faces"), samples=sc.get("samples"), seed=seed,
        product_check=sc.get("product_check", True),
        negative_control=sc.get("negative_control", False),
    )
    assert ok != (name == "triangle_negative_control")


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_unbounded_faces_match_the_face_by_face_sweep(seed):
    # the faces of the triangle times [0, inf) that verify-all sweeps in test_cli
    P = parse_polytope({"dim": 3, "halfspaces": [
        {"normal": [1, 0, 0], "offset": 0}, {"normal": [0, 1, 0], "offset": 0},
        {"normal": [-1, -1, 0], "offset": 1}, {"normal": [0, 0, 1], "offset": 0},
    ]})
    faces = [[1], [2], [3], [4], [1, 4], [3, 4], [1, 2], [2, 3]]
    samples = {"continuity_pairs": 3, "boundary_feet": 10, "interior_triples": 50}
    results, ok = assert_matches_reference(
        P, guillemin(P, 1.0), faces=faces, samples=samples, seed=seed, product_check=False
    )
    assert ok and len(results) == 35


def test_apex_edge_matches_the_face_by_face_sweep():
    # the apex edge of the pyramid prism, named by two facets and by all four through it
    P = pyramid_prism()
    results, _ = assert_matches_reference(P, guillemin(P), faces=[[2, 4], [2, 3, 4, 5]])
    assert [r.check for r in results if not r.passed] == ["delzant"]  # the apex is not simple


def test_every_face_of_the_4_cube_matches_the_face_by_face_sweep():
    P = cube(4)
    faces = cube_faces(4)
    assert len(faces) == 64  # 32 edges, 24 squares and 8 facets
    results, ok = assert_matches_reference(P, guillemin(P), faces=faces, product_check=False)
    assert ok and len(results) == 4 + 4 * len(faces)


def bundled(name):
    sc = json.loads((SCENARIOS / f"{name}.json").read_text())
    P = parse_polytope(sc["polytope"])
    return sc, P, parse_potential(sc["potential"], P)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_cut_simplex_negative_control_matches_the_face_by_face_sweep(seed):
    # cut_simplex's faces fall in three groups of one shape, so the feet are
    # moved face by face after a projection of several groups
    sc, P, phi = bundled("cut_simplex")
    results, ok = assert_matches_reference(
        P, phi, faces=sc["faces"], samples=sc["samples"], seed=seed, product_check=False,
        negative_control=True,
    )
    failing = {r.check for r in results if not r.passed}
    assert failing == {"pythagoras-boundary-foot"} and not ok


def test_a_triangle_sweep_projects_in_one_newton_solve(monkeypatch):
    # the triangle's three edges are of one shape: one solve projects all their feet
    calls = []

    def counted(*args, **kwargs):
        calls.append(len(args[2]))
        return newton_solve(*args, **kwargs)

    newton_solve = boundary.newton_solve
    monkeypatch.setattr(boundary, "newton_solve", counted)
    sc, P, phi = bundled("triangle")
    run_scenario(P, phi, samples=sc.get("samples"), product_check=False)
    assert calls == [3 * 10]  # three faces of ten feet each


def test_a_stalled_projection_row_raises_what_the_face_by_face_sweep_raises(monkeypatch):
    # one foot of the second face stalls: the batched sweep raises the error,
    # status, iterations and residual of the face-by-face sweep's projection
    sc, P, phi = bundled("triangle")
    solve = boundary.newton_solve
    targets = []

    def recorded(*args, **kwargs):
        targets.append(np.array(args[2]))
        return solve(*args, **kwargs)

    monkeypatch.setattr(boundary, "newton_solve", recorded)
    reference_run_scenario(P, phi, product_check=False)
    marked = targets[1][4]  # a row of the second face's projection

    def one_row_stalls(*args, **kwargs):
        x, residual, status, iterations = solve(*args, **kwargs)
        status = np.where(np.all(np.asarray(args[2]) == marked, axis=1), "stalled", status)
        return x, residual, status, iterations

    monkeypatch.setattr(boundary, "newton_solve", one_row_stalls)
    with pytest.raises(FaceBoundaryError) as face_by_face:
        reference_run_scenario(P, phi, product_check=False)
    with pytest.raises(FaceBoundaryError) as batched:
        run_scenario(P, phi, product_check=False)
    assert "stalled after" in str(batched.value)
    assert str(batched.value) == str(face_by_face.value)


def counted_solves(monkeypatch):
    """The row counts of verify's Newton solves, one entry per call, as they are made."""
    calls = []
    solve = verify.newton_solve

    def counted(*args, **kwargs):
        calls.append(len(args[2]))
        return solve(*args, **kwargs)

    monkeypatch.setattr(verify, "newton_solve", counted)
    return calls


def test_a_verdict_makes_one_ambient_newton_solve(monkeypatch):
    # the Legendre round trip's rows, then the orthogonal rebuild's of every face
    calls = counted_solves(monkeypatch)
    sc, P, phi = bundled("triangle")
    run_scenario(P, phi, samples=sc.get("samples"), product_check=False)
    samples = {**DEFAULT_SAMPLES, **sc.get("samples", {})}
    assert calls == [samples["legendre_points"] + 3 * samples["interior_triples"]]


def test_a_sweep_without_faces_solves_the_round_trip_alone(monkeypatch, interval):
    calls = counted_solves(monkeypatch)
    run_scenario(interval, guillemin(interval), product_check=False)
    assert calls == [DEFAULT_SAMPLES["legendre_points"]]


def test_an_unsolved_legendre_row_raises_what_from_dual_raises(monkeypatch):
    # the fourth round-trip row stalls in the one solve: the sweep raises the
    # error from_dual raises when its solve of that target stalls alone
    sc, P, phi = bundled("triangle")
    solve = verify.newton_solve
    targets = []

    def fourth_row_stalls(*args, **kwargs):
        x, residual, status, iterations = solve(*args, **kwargs)
        targets.append(np.array(args[2]))
        status = status.copy()
        status[3] = "stalled"
        return x, residual, status, iterations

    monkeypatch.setattr(verify, "newton_solve", fourth_row_stalls)
    with pytest.raises(NumericalError) as batched:
        run_scenario(P, phi, samples=sc.get("samples"), product_check=False)
    monkeypatch.setattr(
        dually_flat, "newton_solve", lambda *a, **k: solve(*a, **k)._replace(status="stalled")
    )
    with pytest.raises(NumericalError) as alone:
        from_dual(phi, P, targets[0][3])
    assert str(batched.value).startswith("gradient-map inversion did not converge (stalled after")
    assert str(batched.value) == str(alone.value)
    assert (batched.value.status, batched.value.iterations) == ("stalled", alone.value.iterations)
    assert batched.value.residual == alone.value.residual
