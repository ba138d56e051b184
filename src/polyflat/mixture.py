"""Mixture families on a finite outcome set and the torification dictionary.

A polytope whose primitive facet normals sum to zero carries the family
p(r | xi) = l_r(xi) / sum(lambda) of categorical distributions; conversely a
mixture family p(r | xi) = xi . alpha_r + beta_r determines a candidate
polytope by clearing denominators.  The canonical-potential Bregman
divergence and the Kullback-Leibler divergence of the family agree up to the
exact factor scale * sum(lambda).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import rowwise
from .errors import DegenerateError, DomainError, InvalidInputError, NotTorifiableError
from .intlattice import common_denominator
from .polytope import DelzantReport, Polytope, as_fraction, reduced_polytope, validate_delzant


@dataclass(frozen=True)
class MixtureFamily:
    """Affine probability weights p(r | xi) = xi . alpha_r + beta_r over [N]."""

    alphas: tuple[tuple[Fraction, ...], ...]
    betas: tuple[Fraction, ...]

    def __post_init__(self):
        alphas = tuple(tuple(as_fraction(a) for a in row) for row in self.alphas)
        betas = tuple(as_fraction(b) for b in self.betas)
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "betas", betas)
        if len(alphas) != len(betas) or not alphas:
            raise InvalidInputError("alphas and betas must have equal, positive length")
        dim = len(alphas[0])
        if any(len(row) != dim for row in alphas):
            raise InvalidInputError("alpha vectors must share a common length")
        for i in range(dim):
            if sum(row[i] for row in alphas) != 0:
                raise InvalidInputError("alpha vectors must sum to zero exactly")
        if sum(betas) != 1:
            raise InvalidInputError("betas must sum to one exactly")

    @property
    def dim(self):
        return len(self.alphas[0])

    @cached_property
    def _alpha_array(self):
        return rowwise.read_only(np.array([[float(v) for v in row] for row in self.alphas]))

    @cached_property
    def _beta_array(self):
        return rowwise.read_only(np.array([float(b) for b in self.betas]))

    @cached_property
    def _polytope(self):
        """The closure of the parameter domain, in irredundant primitive form.

        Clears the common denominator of the alpha entries, re-primitivizes
        each normal and drops redundant constraints (``reduced_polytope``).
        A family whose parameter domain is empty or not open, or whose
        closure contains a line, is not a mixture family: its region has no
        vertex or no interior point, and DegenerateError is raised.
        ``to_mixture`` records it from the polytope the family is read from.
        """
        _, lcm = common_denominator([a for row in self.alphas for a in row])
        constraints = []
        for row, beta in zip(self.alphas, self.betas):
            scaled = tuple(int(a * lcm) for a in row)
            if all(v == 0 for v in scaled):
                if beta <= 0:
                    raise DegenerateError("constant outcome weight is nonpositive")
                continue
            constraints.append((scaled, beta * lcm))
        if not constraints:
            raise DegenerateError("mixture family has no defining constraints")
        return reduced_polytope(constraints, self.dim)

    def probabilities(self, xi):
        """Weights p(r | xi): (N,) at a point, (m, N) for a batch (m, n)."""
        xi = np.asarray(xi, dtype=float)
        return rowwise.times(xi, self._alpha_array.T) + self._beta_array

    def as_dict(self):
        return {
            "alphas": [[str(a) for a in row] for row in self.alphas],
            "betas": [str(b) for b in self.betas],
        }


def zero_sum_check(P: Polytope) -> bool:
    """True iff the facet normals sum to zero (exact integer sum)."""
    return all(
        sum(hs.normal[i] for hs in P.halfspaces) == 0 for i in range(P.dim)
    )


def to_mixture(P: Polytope) -> MixtureFamily:
    """The mixture family p(r | xi) = l_r(xi) / sum(lambda) carried by P.

    P is read first (``vertex_list``), so a half-space that is not a facet,
    or a region with no vertex or no interior point, raises here.  The
    family's polytope is P's half-spaces sorted by normal, as
    ``reduced_polytope`` orders them; it takes its region from P's.
    """
    P.vertex_list
    if not zero_sum_check(P):
        raise NotTorifiableError(
            "facet normals do not sum to zero; the polytope carries no mixture family"
        )
    # > 0: at an interior point the facet values sum to it, as the normals sum to zero
    total = sum(hs.offset for hs in P.halfspaces)
    alphas = tuple(tuple(Fraction(v) / total for v in hs.normal) for hs in P.halfspaces)
    betas = tuple(hs.offset / total for hs in P.halfspaces)
    theta = MixtureFamily(alphas=alphas, betas=betas)
    theta.__dict__["_polytope"] = P._sorted_by_normal()  # fill the cached property
    return theta


def kl(theta: MixtureFamily, xi, xi2):
    """Kullback-Leibler divergence sum_r p(r|xi) log(p(r|xi) / p(r|xi2)).

    Follows the standard zero conventions: a zero weight at xi contributes
    nothing; a positive weight against a zero weight at xi2 yields inf.  A
    float for points of shape (n,), an (m,) array for batches (m, n).
    """
    p = theta.probabilities(xi)
    q = theta.probabilities(xi2)
    if not (np.all(p >= -1e-12) and np.all(q >= -1e-12)):  # true for nan
        raise DomainError("probabilities are negative; point outside the closed domain")
    p = np.maximum(p, 0.0)
    q = np.maximum(q, 0.0)
    pos = p > 0.0
    with np.errstate(divide="ignore"):
        total = np.sum(p * np.log(np.where(pos, p, 1.0) / np.where(pos, q, 1.0)), axis=-1)
    return float(total) if total.ndim == 0 else total


@dataclass(frozen=True)
class TorificationReport:
    polytope: Polytope
    delzant: DelzantReport

    @property
    def bounded(self):
        """Whether the closure of the family is bounded: the polytope's ``bounded``."""
        return self.polytope.bounded

    @property
    def torifiable(self):
        """Whether a compact torification of the family exists."""
        return self.bounded and self.delzant.valid

    def as_dict(self):
        return {
            "check": "torification",
            "polytope": {
                "dim": self.polytope.dim,
                "bounded": self.polytope.bounded,
                "halfspaces": [
                    {"normal": list(hs.normal), "offset": str(hs.offset)}
                    for hs in self.polytope.halfspaces
                ],
            },
            "delzant": self.delzant.as_dict(),
            "bounded": self.bounded,
            "pass": self.torifiable,
        }


def from_mixture(theta: MixtureFamily) -> TorificationReport:
    """Candidate polytope of a mixture family and its Delzant verdict.

    The polytope is the family's (``MixtureFamily._polytope``).  A compact
    torification exists exactly when the closure is a bounded Delzant
    polytope.
    """
    P = theta._polytope
    return TorificationReport(polytope=P, delzant=validate_delzant(P))
