"""Polynomials in unknowns X1..Xn with truncated-series coefficients."""

from __future__ import annotations

from .errors import PrecondError
from .series import RingSpec, TruncatedSeries, power


class PolyInX:
    """Sparse polynomial: map X-exponent tuple -> TruncatedSeries coefficient."""

    __slots__ = ("ring", "n_unknowns", "terms")

    def __init__(self, ring: RingSpec, n_unknowns: int, terms=None):
        self.ring = ring
        self.n_unknowns = n_unknowns
        clean = {}
        if terms:
            for exps, coeff in terms.items():
                if len(exps) != n_unknowns:
                    raise PrecondError("X-exponent arity mismatch")
                if not coeff.is_zero:
                    clean[tuple(exps)] = coeff
        self.terms = clean

    @classmethod
    def from_series(cls, s: TruncatedSeries, n_unknowns: int) -> "PolyInX":
        return cls(s.ring, n_unknowns, {(0,) * n_unknowns: s})

    @classmethod
    def unknown(cls, ring: RingSpec, n_unknowns: int, idx: int) -> "PolyInX":
        e = [0] * n_unknowns
        e[idx] = 1
        return cls(ring, n_unknowns, {tuple(e): TruncatedSeries.one(ring)})

    def _check(self, other: "PolyInX"):
        if self.ring != other.ring or self.n_unknowns != other.n_unknowns:
            raise PrecondError("incompatible rings")

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out[e] + c if e in out else c
            if s.is_zero:
                out.pop(e, None)
            else:
                out[e] = s
        return PolyInX(self.ring, self.n_unknowns, out)

    def __neg__(self):
        return PolyInX(self.ring, self.n_unknowns, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                if e in out:
                    c = out[e] + c
                if c.is_zero:
                    out.pop(e, None)
                else:
                    out[e] = c
        return PolyInX(self.ring, self.n_unknowns, out)

    def __pow__(self, e: int):
        return power(self, e, PolyInX.from_series(TruncatedSeries.one(self.ring), self.n_unknowns))
