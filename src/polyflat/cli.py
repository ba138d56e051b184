"""Command-line front end.

Subcommands::

    validate <file>                      Delzant + zero-sum report
    divergence <file> --points <file>   divergence table for point pairs
    geodesic <file> --spec <file>       geodesic trace (CSV rows t, x, y)
    boundary <file> --face <indices> --points <file>
                                        face divergence table
    pythagoras <file> --triple <file>   boundary Pythagoras report
    torify <file>                       mixture family <-> polytope dictionary
    verify-all <scenario-file>          full verification sweep

Every subcommand takes --format {json,csv} and --out PATH; verify-all also
takes --seed N, and verify-all and pythagoras take --tol name=value
(repeatable).  Exit codes: 0 success / all checks pass, 1 failed checks,
2 malformed input or I/O error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys

import numpy as np

from . import jsonio
from .boundary import (
    boundary_divergence,
    boundary_face,
    boundary_point,
    dual_geodesic_limit,
    project_to_face,
    pythagoras_boundary_foot,
    pythagoras_interior_foot,
)
from .dually_flat import (
    GeodesicSpec,
    bregman,
    geodesic_point,
    to_dual,
)
from .errors import DomainError, InvalidInputError, PolyflatError
from .mixture import from_mixture, to_mixture, zero_sum_check
from .polytope import validate_delzant
from .verify import merge_tolerances, run_scenario


# the keys a verify-all scenario may hold
SCENARIO_KEYS = (
    "name", "polytope", "potential", "faces", "samples", "tolerances", "product_check",
    "negative_control",
)
# the keys a geodesic spec, a points file and a pythagoras triple of each kind may hold
SPEC_KEYS = ("kind", "start", "direction", "t_grid")
POINTS_KEYS = ("pairs",)
TRIPLE_KEYS = {
    "boundary_foot": ("kind", "face", "eta", "eta_prime", "xi"),
    "interior_foot": ("kind", "face", "eta", "xi", "xi_prime"),
}
# the one tolerance each pythagoras kind is judged by
KIND_TOLERANCE = {"boundary_foot": "boundary_foot", "interior_foot": "interior_identity"}


def _add_common(parser):
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--out", default=None, help="output path (default stdout)")


def build_parser():
    parser = argparse.ArgumentParser(prog="polyflat", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="Delzant and zero-sum validation")
    p.add_argument("file")
    _add_common(p)

    p = sub.add_parser("divergence", help="divergence table for point pairs")
    p.add_argument("file")
    p.add_argument("--points", required=True)
    _add_common(p)

    p = sub.add_parser("geodesic", help="trace a geodesic")
    p.add_argument("file")
    p.add_argument("--spec", required=True)
    _add_common(p)

    p = sub.add_parser("boundary", help="face divergence table")
    p.add_argument("file")
    p.add_argument("--face", required=True, help="comma-separated facet indices (1-based)")
    p.add_argument("--points", required=True)
    _add_common(p)

    p = sub.add_parser("pythagoras", help="boundary Pythagoras report")
    p.add_argument("file")
    p.add_argument("--triple", required=True)
    _add_common(p)
    p.add_argument("--tol", action="append", default=[], metavar="NAME=VALUE")

    p = sub.add_parser("torify", help="mixture family <-> polytope dictionary")
    p.add_argument("file")
    _add_common(p)

    p = sub.add_parser("verify-all", help="run a verification scenario")
    p.add_argument("scenario")
    _add_common(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", action="append", default=[], metavar="NAME=VALUE")
    return parser


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _parse_tols(pairs):
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise PolyflatError(f"--tol expects NAME=VALUE, got {pair!r}")
        name, value = pair.split("=", 1)
        out[name.strip()] = float(value)
    return out


def _load_problem(data, require_potential=True):
    """The polytope and the potential of a problem file's JSON, None when it carries none.

    The file is a polytope, or an object with a polytope and a potential
    that holds only a scenario's keys, so a scenario file is a problem file.
    With require_potential, a file without a potential is malformed input.
    """
    phi = None
    if "polytope" in data:
        jsonio.known_keys(data, SCENARIO_KEYS, "problem file")
        P = jsonio.parse_polytope(data["polytope"])
        if "potential" in data:
            phi = jsonio.parse_potential(data["potential"], P)
    else:
        P = jsonio.parse_polytope(data)
    if require_potential and phi is None:
        raise PolyflatError("input file must carry a potential")
    return P, phi


def _write(args, payload, header, rows, notes=()):
    """Write payload as JSON, or header, rows and notes as CSV, to --out or stdout.

    rows are read only for CSV.  Their floats are rounded as in the JSON but
    written as the "%.12g" text, so 1.0 is 1.0 in the JSON and 1 in the CSV.
    """
    if args.format == "json":
        text = jsonio.dumps(payload)
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [jsonio.format_float(v) if isinstance(v, float) else v for v in row]
            )
        for note in notes:
            buf.write(f"# {note}\n")
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_validate(args):
    P, _ = _load_problem(_load_json(args.file), require_potential=False)
    report = validate_delzant(P)
    payload = {"delzant": report.as_dict(), "zero_sum": zero_sum_check(P)}
    rows = (
        ("simple", report.simple),
        ("rational", report.rational),
        ("smooth", report.smooth),
        ("partial", report.partial),
        ("valid", report.valid),
        ("zero_sum", payload["zero_sum"]),
    )
    _write(args, payload, ("property", "value"), rows)
    return 0 if report.valid else 1


def _point_pairs(path, dim):
    """The first and the second points of a points file's pairs, as two (m, dim) arrays."""
    pairs = jsonio.known_keys(_load_json(path), POINTS_KEYS, "points file")["pairs"]
    points = np.array(pairs, dtype=float)
    if np.any((points == 0.0) | (points == 1.0)):  # the floats a boolean reads as
        jsonio.numbers(pairs, "points file pairs")
    if pairs and points.shape[1:] != (2, dim):
        raise InvalidInputError(f"each pair must hold two points of dimension {dim}")
    return points.reshape(len(pairs), 2, dim).transpose(1, 0, 2)


def _columns(name, n):
    return [f"{name}_{i + 1}" for i in range(n)]


def cmd_divergence(args):
    P, phi = _load_problem(_load_json(args.file))
    xi, xi2 = _point_pairs(args.points, P.dim)
    rows = list(zip(xi.tolist(), xi2.tolist(), bregman(phi, xi, xi2).tolist()))
    payload = {"rows": [{"xi": a, "xi2": b, "divergence": d} for a, b, d in rows]}
    header = _columns("xi", P.dim) + _columns("xi2", P.dim) + ["divergence"]
    _write(args, payload, header, ((*a, *b, d) for a, b, d in rows))
    return 0


def cmd_geodesic(args):
    P, phi = _load_problem(_load_json(args.file))
    spec_data = jsonio.known_keys(_load_json(args.spec), SPEC_KEYS, "geodesic spec")
    spec = GeodesicSpec(
        kind=spec_data["kind"],
        start=tuple(jsonio.numbers(spec_data["start"], "geodesic start")),
        direction=tuple(jsonio.numbers(spec_data["direction"], "geodesic direction")),
    )
    t_grid = jsonio.numbers(spec_data.get("t_grid", [0.0, 0.5, 1.0, 2.0, 5.0]), "t_grid")
    t_grid = [float(t) for t in t_grid]
    rows = []
    notes = []
    for t in t_grid:
        try:
            x = geodesic_point(phi, P, spec, t)
        except DomainError as exc:
            notes.append(str(exc))
            break
        pair = to_dual(phi, x)
        rows.append((t, list(pair.x), list(pair.y)))
    limit = None
    if spec.kind == "dual" and P.bounded:
        limit = dual_geodesic_limit(phi, P, spec)
    payload = {
        "rows": [{"t": t, "x": x, "y": y} for t, x, y in rows],
        "limit": limit.as_dict() if limit else None,
        "notes": notes,
    }

    def csv_rows():
        for t, x, y in rows:
            yield (t, *x, *y)
        if limit is not None:
            yield ("inf", *limit.point, *([""] * P.dim))

    if limit is not None:
        notes = notes + [f"limit_face={','.join(map(str, limit.face))}"]
    header = ["t"] + _columns("x", P.dim) + _columns("y", P.dim)
    _write(args, payload, header, csv_rows(), notes)
    return 0


def _parse_face(text):
    return tuple(int(v) for v in text.split(",") if v.strip())


def cmd_boundary(args):
    P, phi = _load_problem(_load_json(args.file))
    chart = boundary_face(P, _parse_face(args.face))
    a, b = _point_pairs(args.points, P.dim)
    points = boundary_point(chart, ambient=np.concatenate([a, b]))
    etas, etas2 = points[: len(a)], points[len(a) :]
    divergences = boundary_divergence(phi, etas, etas2)
    rows = list(zip(a.tolist(), b.tolist(), divergences.tolist()))
    payload = {
        "face": list(chart.face_active),
        "rows": [{"eta": a, "eta2": b, "divergence": d} for a, b, d in rows],
    }
    header = _columns("eta", P.dim) + _columns("eta2", P.dim) + ["divergence"]
    _write(args, payload, header, ((*a, *b, d) for a, b, d in rows))
    return 0


def cmd_pythagoras(args):
    P, phi = _load_problem(_load_json(args.file))
    triple = _load_json(args.triple)
    chart = boundary_face(P, jsonio.face_name(triple["face"], "triple key 'face'"))
    kind = triple.get("kind", "boundary_foot")
    if kind not in KIND_TOLERANCE:
        raise PolyflatError(f"unknown pythagoras kind {kind!r}")
    jsonio.known_keys(triple, TRIPLE_KEYS[kind], f"{kind} triple")
    overrides = _parse_tols(args.tol)
    tolerance = merge_tolerances(overrides)[KIND_TOLERANCE[kind]]
    others = sorted(overrides.keys() - {KIND_TOLERANCE[kind]})
    if others:
        raise InvalidInputError(f"tolerance {others[0]!r} does not judge a {kind} triple")
    if kind == "boundary_foot":
        given = [jsonio.numbers(triple["eta"], "eta")]
        if triple.get("eta_prime") is not None:
            given.append(jsonio.numbers(triple["eta_prime"], "eta_prime"))
        points = boundary_point(chart, ambient=given)
        xi2 = np.asarray(jsonio.numbers(triple["xi"], "xi"), dtype=float)
        foot = points[1] if len(points) > 1 else project_to_face(phi, chart, xi2)
        report = pythagoras_boundary_foot(phi, points[0], foot, xi2)
        extra = {"eta_prime": foot.ambient.tolist()}
    else:
        eta = boundary_point(chart, ambient=jsonio.numbers(triple["eta"], "eta"))
        xi, xi2 = jsonio.numbers(triple["xi"], "xi"), jsonio.numbers(triple["xi_prime"], "xi_prime")
        report = pythagoras_interior_foot(phi, eta, xi, xi2)
        extra = {}
    passed = abs(report.residual) <= tolerance
    payload = {"kind": kind, "check": "pythagoras", "residual": report.residual,
               "perp_value": report.perp_value, "terms": list(report.terms),
               "tolerance": tolerance, "pass": passed, **extra}
    rows = sorted((k, v) for k, v in payload.items() if not isinstance(v, (list, dict)))
    _write(args, payload, ("field", "value"), rows)
    return 0 if passed else 1


def cmd_torify(args):
    data = _load_json(args.file)
    if "alphas" in data:
        theta = jsonio.parse_mixture(data)
        report = from_mixture(theta)
        payload = report.as_dict()
        ok = report.torifiable
    else:
        P, _ = _load_problem(data, require_potential=False)
        payload = {"zero_sum": zero_sum_check(P), "delzant": validate_delzant(P).as_dict()}
        # as in from_mixture, only a bounded polytope has a compact torification
        ok = payload["zero_sum"] and payload["delzant"]["valid"] and P.bounded
        if ok:
            payload["mixture"] = to_mixture(P).as_dict()
        payload["pass"] = ok
    _write(args, payload, ("field", "value"), [("pass", ok)])
    return 0 if ok else 1


def cmd_verify_all(args):
    data = _load_json(args.scenario)
    scenarios = data if isinstance(data, list) else [data]
    if not scenarios:
        raise InvalidInputError("the scenario list is empty")
    tols = _parse_tols(args.tol)
    all_payload = []
    for sc in scenarios:
        jsonio.known_keys(sc, SCENARIO_KEYS, "scenario")
        P = jsonio.parse_polytope(sc["polytope"])
        phi = jsonio.parse_potential(sc.get("potential", {"guillemin_of": "polytope"}), P)
        product_check = sc.get("product_check", P.bounded)
        if product_check is None:  # run_scenario would read a null as its default
            raise InvalidInputError("scenario key 'product_check' must be true or false: None")
        results, ok = run_scenario(
            P,
            phi,
            faces=sc.get("faces"),
            samples=sc.get("samples"),
            tolerances={**sc.get("tolerances", {}), **tols},
            seed=args.seed,
            product_check=product_check,
            negative_control=sc.get("negative_control", False),
        )
        all_payload.append(
            {
                "scenario": sc.get("name", "scenario"),
                "seed": args.seed,
                "checks": [r.as_dict() for r in results],
                "pass": ok,
            }
        )
    all_ok = all(sc["pass"] for sc in all_payload)
    payload = all_payload[0] if len(all_payload) == 1 else {"scenarios": all_payload, "pass": all_ok}
    rows = (
        (sc["scenario"], c["check"], float(c["residual"]), float(c["tolerance"]), c["pass"])
        for sc in all_payload
        for c in sc["checks"]
    )
    _write(args, payload, ("scenario", "check", "residual", "tolerance", "pass"), rows)
    return 0 if all_ok else 1


_HANDLERS = {
    "validate": cmd_validate,
    "divergence": cmd_divergence,
    "geodesic": cmd_geodesic,
    "boundary": cmd_boundary,
    "pythagoras": cmd_pythagoras,
    "torify": cmd_torify,
    "verify-all": cmd_verify_all,
}


@functools.cache
def _parser():
    """The argument parser, built on first use and shared by later calls."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (OSError, json.JSONDecodeError, PolyflatError, KeyError, TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
