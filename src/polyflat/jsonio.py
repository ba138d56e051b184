"""JSON schemas for polytopes, potentials and mixture families.

Offsets and exact rational data travel as "p/q" strings (plain integers are
accepted).  Emitted floats are rounded to 12 significant digits so that a run
with fixed inputs and seed produces byte-identical output.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

from .errors import InvalidInputError
from .mixture import MixtureFamily
from .polynomial import Polynomial
from .polytope import Polytope, as_fraction, halfspace
from .potential import AffineLogTerm, SymplecticPotential, guillemin


def fraction_str(value: Fraction) -> str:
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def _dim(value) -> int:
    """A dimension field as an int; a bool or a fractional float is refused, not truncated."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise InvalidInputError(f"dim {value!r} is not an integer")
    return int(value)


def parse_polytope(data) -> Polytope:
    """A polytope from its schema; an optional "bounded" must agree with the half-spaces."""
    try:
        dim = _dim(data["dim"])
        claimed = data.get("bounded")
        if "bounded" in data and not isinstance(claimed, bool):
            raise InvalidInputError(f"bounded {claimed!r} is not a boolean")
        halfspaces = tuple(halfspace(hs["normal"], hs["offset"]) for hs in data["halfspaces"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"malformed polytope: {exc}") from exc
    P = Polytope(dim=dim, halfspaces=halfspaces)
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
    """Parse a potential; {"guillemin_of": ...} requests the canonical one.

    guillemin_of may be an inline polytope or the string "polytope", which
    refers to the polytope passed alongside (the one in the same input file).
    """
    if "guillemin_of" in data:
        target = data["guillemin_of"]
        if target == "polytope":
            if polytope is None:
                raise InvalidInputError('"guillemin_of": "polytope" needs a polytope in the file')
            base = polytope
        else:
            base = parse_polytope(target)
        return guillemin(base, float(data.get("scale", 0.5)))
    try:
        scale = float(data.get("scale", 0.5))
        terms = tuple(
            AffineLogTerm(
                normal=tuple(float(v) for v in t["normal"]),
                offset=float(t["offset"]),
                weight=float(t.get("weight", 1.0)),
            )
            for t in data.get("log_terms", [])
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
        correction = Polynomial.zero(dim)
        if "correction" in data:
            correction = Polynomial.from_monomials(
                dim,
                [
                    (tuple(m["exponents"]), float(m["coeff"]))
                    for m in data["correction"].get("monomials", [])
                ],
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"malformed potential: {exc}") from exc
    return SymplecticPotential(dim=dim, scale=scale, log_terms=terms, correction=correction)


def parse_mixture(data) -> MixtureFamily:
    try:
        return MixtureFamily(
            alphas=tuple(tuple(as_fraction(a) for a in row) for row in data["alphas"]),
            betas=tuple(as_fraction(b) for b in data["betas"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"malformed mixture family: {exc}") from exc


def canonical(value):
    """Round floats to 12 significant digits, recursively; map inf to strings."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
        return float(f"{value:.12g}")
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, dict):
        return {k: canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, np.ndarray)):
        return [canonical(v) for v in value]
    if isinstance(value, Fraction):
        return fraction_str(value)
    return value


def dumps(obj) -> str:
    return json.dumps(canonical(obj), indent=2, sort_keys=True) + "\n"


def format_float(x: float) -> str:
    return f"{x:.12g}"
