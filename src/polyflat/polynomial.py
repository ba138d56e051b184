"""Small multivariate polynomials with closed-form derivatives.

Used for the smooth correction added to the canonical affine-log potential.
Terms map exponent tuples to float coefficients; everything is dense-free and
sized for a handful of monomials of low degree.

Evaluation takes one point of shape (n,) or a batch of shape (m, n).  On
first use a polynomial compiles its terms, and those of its first and second
partial derivatives, to one exponent matrix over all monomials that occur and
one coefficient table per derivative order; value, gradient and Hessian are
then a product of powers and a matrix product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import rowwise
from .errors import InvalidInputError


def _exponent(e):
    """e as a nonnegative int; non-integral, boolean and non-numeric exponents are rejected."""
    if isinstance(e, bool):
        raise InvalidInputError(f"exponent {e!r} is not an integer")
    try:
        k = int(e)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInputError(f"exponent {e!r} is not an integer") from exc
    if k != e:
        raise InvalidInputError(f"exponent {e!r} is not an integer")
    return k


def _normalized(nvars, terms):
    out = {}
    for exps, coeff in terms:
        exps = tuple(_exponent(e) for e in exps)
        if len(exps) != nvars or any(e < 0 for e in exps):
            raise InvalidInputError(f"bad exponent tuple {exps} for {nvars} variables")
        if isinstance(coeff, bool):
            raise InvalidInputError(f"coefficient {coeff!r} of {exps} is not a number")
        c = out.get(exps, 0.0) + float(coeff)
        if not math.isfinite(c):
            raise InvalidInputError(f"coefficient {coeff!r} of {exps} is not finite")
        if c != 0.0:
            out[exps] = c
        elif exps in out:
            del out[exps]
    return tuple(sorted(out.items()))


@dataclass(frozen=True)
class _Compiled:
    """Monomial exponents (T, n) and the coefficients of f, grad f and Hess f on them."""

    exponents: np.ndarray
    value: np.ndarray  # (T,)
    gradient: np.ndarray  # (T, n)
    hessian: np.ndarray  # (T, n * n)

    def monomials(self, x):
        """Every monomial at each point: (..., T) for points of shape (..., n)."""
        return np.prod(x[..., None, :] ** self.exponents, axis=-1)


@dataclass(frozen=True)
class Polynomial:
    nvars: int
    terms: tuple[tuple[tuple[int, ...], float], ...] = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "terms", _normalized(self.nvars, self.terms))

    @classmethod
    def zero(cls, nvars):
        return cls(nvars=nvars)

    @classmethod
    def from_monomials(cls, nvars, monomials):
        """monomials: iterable of (exponents, coeff) pairs."""
        return cls(nvars=nvars, terms=tuple(monomials))

    @cached_property
    def _compiled(self):
        n = self.nvars
        tables = {}  # exponents -> [value coeff, gradient row, Hessian block]

        def entry(exps):
            if exps not in tables:
                tables[exps] = [0.0, np.zeros(n), np.zeros((n, n))]
            return tables[exps]

        for exps, coeff in self.terms:
            entry(exps)[0] += coeff
            for i in range(n):
                if not exps[i]:
                    continue
                di = list(exps)
                di[i] -= 1
                entry(tuple(di))[1][i] += coeff * exps[i]
                for j in range(n):
                    if not di[j]:
                        continue
                    dij = list(di)
                    dij[j] -= 1
                    entry(tuple(dij))[2][i, j] += coeff * exps[i] * di[j]
        keys = sorted(tables)
        return _Compiled(
            exponents=np.array(keys, dtype=float).reshape(len(keys), n),
            value=np.array([tables[k][0] for k in keys]),
            gradient=np.array([tables[k][1] for k in keys]).reshape(len(keys), n),
            hessian=np.array([tables[k][2] for k in keys]).reshape(len(keys), n * n),
        )

    def _points(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[-1] != self.nvars:
            raise InvalidInputError(
                f"point has shape {x.shape}, expected ({self.nvars},) or (m, {self.nvars})"
            )
        return x

    def __call__(self, x):
        """f at a point (a float) or at each row of a batch (an (m,) array)."""
        if not self.terms:
            x = np.asarray(x)
            return np.zeros(x.shape[:-1]) if x.ndim == 2 else 0.0
        x = self._points(x)
        c = self._compiled
        out = rowwise.times(c.monomials(x), c.value)
        return out if x.ndim == 2 else float(out)

    def partial(self, i):
        terms = []
        for exps, coeff in self.terms:
            if exps[i] == 0:
                continue
            new = list(exps)
            new[i] -= 1
            terms.append((tuple(new), coeff * exps[i]))
        return Polynomial(nvars=self.nvars, terms=tuple(terms))

    def gradient(self, x):
        """grad f, of shape (n,) for a point and (m, n) for a batch."""
        if not self.terms:
            return np.zeros(np.shape(x))
        x = self._points(x)
        c = self._compiled
        return rowwise.times(c.monomials(x), c.gradient)

    def hessian(self, x):
        """Hess f, of shape (n, n) for a point and (m, n, n) for a batch."""
        n = self.nvars
        if not self.terms:
            return np.zeros(np.shape(x) + (n,))
        x = self._points(x)
        c = self._compiled
        return rowwise.times(c.monomials(x), c.hessian).reshape(x.shape + (n,))

    def compose_affine(self, origin, basis):
        """The polynomial u -> self(origin + basis @ u) in k = basis.shape[1] variables."""
        origin = np.asarray(origin, dtype=float)
        basis = np.asarray(basis, dtype=float)
        n, k = basis.shape
        if n != self.nvars:
            raise InvalidInputError("affine map does not match variable count")
        # linear forms origin_j + sum_m basis[j, m] u_m, as monomial dicts
        zero_exp = (0,) * k
        lin = []
        for j in range(n):
            d = {}
            if origin[j] != 0.0:
                d[zero_exp] = origin[j]
            for m in range(k):
                if basis[j, m] != 0.0:
                    e = [0] * k
                    e[m] = 1
                    d[tuple(e)] = basis[j, m]
            lin.append(d)
        total = {}
        for exps, coeff in self.terms:
            acc = {zero_exp: coeff}
            for j, e in enumerate(exps):
                for _ in range(e):
                    acc = _mul(acc, lin[j])
            for key, val in acc.items():
                total[key] = total.get(key, 0.0) + val
        return Polynomial(nvars=k, terms=tuple(total.items()))

    def as_dict(self):
        return {
            "monomials": [
                {"exponents": list(exps), "coeff": coeff} for exps, coeff in self.terms
            ]
        }


def _mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0.0) + ca * cb
    return out
