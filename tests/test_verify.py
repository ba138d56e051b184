"""run_scenario sweeps its faces in one batch with the results of a face-by-face sweep.

The reference, ``helpers.reference_run_scenario``, draws, solves and judges
each face in turn with its own orthogonal rebuild; the batched sweep must
return equal CheckResults, floats included, on every case below.
"""

import json
from pathlib import Path

import pytest

from helpers import cube, cube_faces, pyramid_prism, reference_run_scenario
from polyflat.jsonio import parse_polytope, parse_potential
from polyflat.potential import guillemin
from polyflat.verify import run_scenario

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
