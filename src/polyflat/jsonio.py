"""JSON schemas for polytopes, potentials and mixture families.

Offsets and exact rational data travel as "p/q" strings (plain integers are
accepted).  Emitted floats are rounded to 12 significant digits so that a run
with fixed inputs and seed produces byte-identical output.
"""

from __future__ import annotations

import json
import math
from itertools import chain
from fractions import Fraction
from json.encoder import encode_basestring_ascii

import numpy as np

from .errors import InvalidInputError
from .mixture import MixtureFamily
from .polynomial import Polynomial
from .polytope import Polytope, as_fraction, halfspace
from .potential import AffineLogTerm, SymplecticPotential, guillemin, validity_scan


# the keys each object of the schema may hold
POLYTOPE_KEYS = ("dim", "bounded", "halfspaces")
HALFSPACE_KEYS = ("normal", "offset")
GUILLEMIN_KEYS = ("guillemin_of", "scale", "correction")
POTENTIAL_KEYS = ("dim", "scale", "log_terms", "correction")
LOG_TERM_KEYS = ("normal", "offset", "weight")
CORRECTION_KEYS = ("monomials",)
MONOMIAL_KEYS = ("exponents", "coeff")
MIXTURE_KEYS = ("alphas", "betas")


def fraction_str(value: Fraction) -> str:
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def _dim(value) -> int:
    """A dimension field as an int; a bool or a fractional float is refused, not truncated."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise InvalidInputError(f"dim {value!r} is not an integer")
    return int(value)


def numbers(value, what):
    """value, a JSON number or lists of them nested to any depth, once no boolean is in it.

    JSON's true and false are not numbers, so a boolean anywhere in value
    raises InvalidInputError, naming what; the caller converts the rest.
    The lists are scanned a level at a time, by type.
    """
    level = [value]
    while level:
        kinds = set(map(type, level))
        if bool in kinds:
            flag = next(v for v in level if type(v) is bool)
            raise InvalidInputError(f"{what} holds {json.dumps(flag)}, which is not a number")
        if kinds != {list}:
            level = [v for v in level if type(v) is list]
        level = list(chain.from_iterable(level))
    return value


def known_keys(data, keys, what):
    """data, a JSON object whose keys all are in keys; a key nothing reads is refused."""
    if not isinstance(data, dict):
        raise InvalidInputError(f"{what} {data!r} is not an object")
    unknown = sorted(data.keys() - set(keys))
    if unknown:
        raise InvalidInputError(f"{what} key {unknown[0]!r} is unknown; known: {', '.join(keys)}")
    return data


def parse_polytope(data) -> Polytope:
    """A polytope from its schema, its region read once; a "bounded" must agree with it."""
    try:
        known_keys(data, POLYTOPE_KEYS, "polytope")
        dim = _dim(data["dim"])
        claimed = data.get("bounded")
        if "bounded" in data and not isinstance(claimed, bool):
            raise InvalidInputError(f"bounded {claimed!r} is not a boolean")
        rows = [known_keys(hs, HALFSPACE_KEYS, "half-space") for hs in data["halfspaces"]]
        halfspaces = tuple(halfspace(hs["normal"], hs["offset"]) for hs in rows)
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"malformed polytope: {exc}") from exc
    P = Polytope(dim=dim, halfspaces=halfspaces)
    P.vertex_list  # refuses a half-space that is not a facet, and a degenerate region
    if claimed not in (None, P.bounded):
        raise InvalidInputError(f"bounded is {json.dumps(claimed)}, contrary to the half-spaces")
    return P


def polytope_to_dict(P: Polytope) -> dict:
    return {
        "dim": P.dim,
        "bounded": P.bounded,
        "halfspaces": [
            {"normal": list(hs.normal), "offset": fraction_str(hs.offset)}
            for hs in P.halfspaces
        ],
    }


def parse_potential(data, polytope: Polytope | None = None) -> SymplecticPotential:
    """Parse a potential; {"guillemin_of": ...} requests the canonical log terms.

    guillemin_of may be an inline polytope or the string "polytope", which
    refers to the polytope passed alongside (the one in the same input file).
    Either form takes a scale and a correction.  Read against a bounded
    polytope, a potential whose correction has degree >= 2 must pass the
    sampled convexity check (``validity_scan``), or InvalidInputError names
    the first sample point that fails it.
    """
    try:
        if "guillemin_of" in data:
            known_keys(data, GUILLEMIN_KEYS, "potential")
            target = data["guillemin_of"]
            if target == "polytope":
                if polytope is None:
                    raise InvalidInputError('"guillemin_of": "polytope" needs a polytope in the file')
                base = polytope
            else:
                base = parse_polytope(target)
            dim, terms = base.dim, guillemin(base).log_terms
        else:
            known_keys(data, POTENTIAL_KEYS, "potential")
            log_terms = [known_keys(t, LOG_TERM_KEYS, "log term") for t in data.get("log_terms", [])]
            terms = tuple(
                AffineLogTerm(
                    normal=tuple(float(v) for v in numbers(t["normal"], "log term normal")),
                    offset=float(numbers(t["offset"], "log term offset")),
                    weight=float(numbers(t.get("weight", 1.0), "log term weight")),
                )
                for t in log_terms
            )
            dim = data.get("dim")
            if dim is None:
                if terms:
                    dim = len(terms[0].normal)
                elif polytope is not None:
                    dim = polytope.dim
                else:
                    raise InvalidInputError("potential needs a dim, log_terms, or a polytope")
            dim = _dim(dim)
        correction = known_keys(data.get("correction", {}), CORRECTION_KEYS, "correction")
        monomials = [known_keys(m, MONOMIAL_KEYS, "monomial") for m in correction.get("monomials", [])]
        correction = Polynomial.from_monomials(
            dim, [(tuple(m["exponents"]), m["coeff"]) for m in monomials]
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"malformed potential: {exc}") from exc
    scale = data.get("scale", 0.5)
    phi = SymplecticPotential(dim=dim, scale=scale, log_terms=terms, correction=correction)
    curved = any(sum(exps) >= 2 for exps, _ in correction.terms)
    if curved and polytope is not None and polytope.bounded:
        report = validity_scan(phi, polytope)
        if not report.passed:
            point = ", ".join(f"{c:.6g}" for c in report.failures[0]["point"])
            raise InvalidInputError(
                f"potential is not convex: the sampled convexity check fails at ({point})"
            )
    return phi


def parse_mixture(data) -> MixtureFamily:
    try:
        known_keys(data, MIXTURE_KEYS, "mixture family")
        return MixtureFamily(
            alphas=tuple(tuple(as_fraction(a) for a in row) for row in data["alphas"]),
            betas=tuple(as_fraction(b) for b in data["betas"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"malformed mixture family: {exc}") from exc


# the one rounding rule: 12 significant digits, as "%g" text
_ROUND = "%.12g"


def _float(v: float) -> str:
    """The JSON text of v rounded by _ROUND: the repr of the rounded float; inf and nan as strings."""
    if 1e-307 <= abs(v) < 1e11:
        # here the rounded text is the repr of the rounded float but for a
        # missing ".0": 12 digits round-trip, and "%g" and repr pick the same
        # notation.  Below, subnormals hold fewer than 12 digits; above,
        # "%g" writes exponents 12-15 where repr writes none.
        text = _ROUND % v
        return text if "." in text or "e" in text else text + ".0"
    if math.isfinite(v):
        return repr(float(_ROUND % v))
    return '"nan"' if v != v else '"inf"' if v > 0 else '"-inf"'


def _append(value, out: list, newline: str) -> None:
    """Append the JSON text of value to out; newline starts a line at value's indent."""
    if isinstance(value, float):
        out.append(_float(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _append(item, out, inner)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _append(value[key], out, inner)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None:
        out.append("null")
    elif isinstance(value, (bool, np.bool_)):
        out.append("true" if value else "false")
    elif isinstance(value, (int, np.integer)):
        out.append(str(int(value)))
    elif isinstance(value, np.floating):
        out.append(_float(float(value)))
    elif isinstance(value, np.ndarray):
        _append(value.tolist(), out, newline)
    elif isinstance(value, Fraction):
        out.append(encode_basestring_ascii(fraction_str(value)))
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def dumps(obj) -> str:
    """obj as JSON text: sorted keys, 2-space indent, each float as the repr of
    its value rounded to 12 significant digits, inf and nan as strings, and a
    Fraction as "p/q"; numpy scalars and arrays as their Python values."""
    out = []
    _append(obj, out, "\n")
    out.append("\n")
    return "".join(out)


def format_float(x: float) -> str:
    return _ROUND % x
