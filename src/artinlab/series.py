"""Exact arithmetic in truncated multivariate power-series rings.

Everything lives in the finite-dimensional algebra A_D = k[T1..TN]/m^(D+1),
where m = (T1,..,TN) and D is the truncation order.  Working there makes
every statement of the form "x lies in m^n" decidable by finite linear
algebra with zero approximation error, because m^(D+1) = (0).

Coefficients are exact.  Over the rationals a scalar is an int when it is
integral and a Fraction (with denominator != 1) only otherwise, so the common
integral traffic never pays for Fraction arithmetic; over a prime field it is
the canonical residue in 0..p-1.  No floating point anywhere.

The hot loops (series products and sums, echelon reduction) use native
operators: one reduction mod p over F_p, one demotion of an integral Fraction
over Q.  The RingSpec.s_* methods give the same arithmetic for cold callers.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from operator import add, itemgetter, mul
from typing import NamedTuple, Optional, Sequence

from .errors import PrecondError

Monomial = tuple  # exponent vector, one entry per variable


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class RingSpec(NamedTuple("RingSpec", [("num_vars", int), ("char", int), ("trunc", int)])):
    """Ambient truncated local ring: N variables over Q (char 0) or F_p, cut at total degree D."""

    __slots__ = ()

    def __new__(cls, num_vars: int, char: int, trunc: int):
        if num_vars < 1:
            raise PrecondError("num_vars must be >= 1")
        if trunc < 1:
            raise PrecondError("trunc must be >= 1")
        # the bound first: trial division of a huge --char would run unbounded
        if char >= 2**31:
            raise PrecondError("prime characteristic must be < 2^31")
        if char != 0 and not _is_prime(char):
            raise PrecondError(f"characteristic {char} is not 0 or a prime")
        return super().__new__(cls, num_vars, char, trunc)

    # -- exact scalar arithmetic ------------------------------------------
    def s_from(self, v):
        if self.char == 0:
            if isinstance(v, Fraction):
                return demote(v)
            if isinstance(v, int):
                return int(v)
            raise PrecondError(f"bad scalar {v!r} for characteristic 0")
        if isinstance(v, Fraction):
            if v.denominator % self.char == 0:
                raise PrecondError(f"denominator of {v} not invertible mod {self.char}")
            return v.numerator * pow(v.denominator, self.char - 2, self.char) % self.char
        if isinstance(v, int):
            return v % self.char
        raise PrecondError(f"bad scalar {v!r} for characteristic {self.char}")

    def s_mul(self, a, b):
        return demote(a * b) if self.char == 0 else (a * b) % self.char

    def s_neg(self, a):
        return -a if self.char == 0 else (-a) % self.char

    def s_inv(self, a):
        if a == 0:
            raise ZeroDivisionError("scalar inverse of zero")
        if self.char == 0:
            return demote(Fraction(1, a))  # never 1 / a: that is a float for an int
        return pow(a, self.char - 2, self.char)


def demote(s):
    """An integral Fraction as its int; any other scalar unchanged."""
    if s.__class__ is Fraction and s.denominator == 1:
        return s.numerator
    return s


def sub_multiple(v: dict, row: dict, c, p: int) -> None:
    """v -= c * row in place over F_p (p > 0) or Q (p = 0); zero entries are dropped.

    The scalar loop shared by series sums and echelon elimination, for both
    fields: native operators, then one reduction mod p or one demotion.
    """
    for k, rc in row.items():
        s = v.get(k, 0) - c * rc
        if p:
            s %= p
        elif s.__class__ is Fraction and s.denominator == 1:
            s = s.numerator
        if s:
            v[k] = s
        else:
            v.pop(k, None)


def power(base, e: int, one, mul=mul):
    """base**e by square-and-multiply, for any ring element type; `one` is base**0
    and `mul` the ring's product.

    The result starts from base, not from one * base, and the base is squared
    only while exponent bits remain, so base**1 costs no product at all.
    """
    if e < 0:
        raise PrecondError("negative exponent")
    if e == 0:
        return one
    result = None
    while True:
        if e & 1:
            result = base if result is None else mul(result, base)
        e >>= 1
        if not e:
            return result
        base = mul(base, base)


def grlex_key(m: Monomial):
    """Sort key realizing graded-lex order with T1 > T2 > ... (degree first)."""
    return (sum(m), tuple(-e for e in m))


@lru_cache(maxsize=None)
def monomials_of_degree(num_vars: int, degree: int) -> tuple:
    """All exponent vectors of the given total degree, in graded-lex order."""
    if num_vars == 1:
        return ((degree,),)
    out = []
    for first in range(degree, -1, -1):
        for rest in monomials_of_degree(num_vars - 1, degree - first):
            out.append((first,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def monomials_up_to(num_vars: int, degree: int) -> tuple:
    out = []
    for d in range(degree + 1):
        out.extend(monomials_of_degree(num_vars, d))
    return tuple(out)


def fp_vectors(monos: Sequence[Monomial], p: int):
    """All p^len(monos) coefficient vectors over F_p on `monos`, each as the dict of
    its nonzero entries, the last monomial varying fastest: one order for every search."""
    for coeffs in product(range(p), repeat=len(monos)):
        yield {m: c for m, c in zip(monos, coeffs) if c}


def fp_space_size(p: int, e: int, limit: int) -> Optional[int]:
    """p^e, the size of the exhaustive space F_p^e (p >= 2), or None past limit.  The
    exponent is tested first: e > limit.bit_length() already gives p^e > limit, so
    p^e is never built past the limit (callers print a refused size as "p^e")."""
    if e > limit.bit_length():
        return None
    size = p**e
    return size if size <= limit else None


class ExtOrder(NamedTuple):
    """An order value: either an exact integer <= D, or the marker "at least D+1".

    The inexact form covers everything the truncation cannot distinguish,
    including the order of 0 (conventionally infinite).
    """

    value: int
    exact: bool = True

    @staticmethod
    @lru_cache(maxsize=None, typed=True)
    def of(n: int) -> "ExtOrder":
        """The exact order n, one shared object per n: an ExtOrder is frozen, so
        sharing it is safe, and a pair scan reads thousands of them.  Typed, so
        that 1 and True never share an object whose value prints otherwise."""
        return ExtOrder(n, True)

    @staticmethod
    def at_least(n: int) -> "ExtOrder":
        return ExtOrder(n, False)

    def _key(self):
        # "at least n" dominates "exactly n"
        return (self.value, 0 if self.exact else 1)

    # all four from the key: a tuple's own order would put "at least n" below "exactly n"
    def __lt__(self, other: "ExtOrder") -> bool:
        return self._key() < other._key()

    def __le__(self, other: "ExtOrder") -> bool:
        return self._key() <= other._key()

    def __gt__(self, other: "ExtOrder") -> bool:
        return self._key() > other._key()

    def __ge__(self, other: "ExtOrder") -> bool:
        return self._key() >= other._key()

    def __repr__(self):
        return str(self.value) if self.exact else f">={self.value}"


class TruncatedSeries:
    """Element of k[T1..TN]/m^(D+1) as a sparse map monomial -> nonzero scalar.

    Instances are immutable after construction; all operations return fresh
    values, so sharing across threads or scans is safe.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: RingSpec, terms: Optional[dict] = None):
        clean = {}
        if terms:
            D = ring.trunc
            for mono, coeff in terms.items():
                if sum(mono) > D:
                    continue
                if len(mono) != ring.num_vars:
                    raise PrecondError(f"monomial {mono} has wrong arity for {ring.num_vars} variables")
                c = ring.s_from(coeff)
                if c != 0:
                    clean[tuple(mono)] = c
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):
        raise AttributeError("TruncatedSeries is immutable")

    # -- constructors ------------------------------------------------------
    @classmethod
    def zero(cls, ring: RingSpec) -> "TruncatedSeries":
        return cls(ring)

    @classmethod
    def constant(cls, ring: RingSpec, c) -> "TruncatedSeries":
        return cls(ring, {(0,) * ring.num_vars: c})

    @classmethod
    def one(cls, ring: RingSpec) -> "TruncatedSeries":
        return cls.constant(ring, 1)

    @classmethod
    def variable(cls, ring: RingSpec, idx: int) -> "TruncatedSeries":
        if not 0 <= idx < ring.num_vars:
            raise PrecondError(f"variable index {idx} out of range")
        exps = [0] * ring.num_vars
        exps[idx] = 1
        return cls(ring, {tuple(exps): 1})

    @classmethod
    def monomial(cls, ring: RingSpec, exps: Sequence[int], coeff=1) -> "TruncatedSeries":
        return cls(ring, {tuple(exps): coeff})

    # -- ring operations ---------------------------------------------------
    def _check_ring(self, other: "TruncatedSeries"):
        # the identity test first: operands almost always share one RingSpec
        if self.ring is not other.ring and self.ring != other.ring:
            raise PrecondError("incompatible rings")

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_ring(other)
        out = dict(self.terms)
        sub_multiple(out, other.terms, -1, self.ring.char)
        return _raw(self.ring, out)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_ring(other)
        out = dict(self.terms)
        sub_multiple(out, other.terms, 1, self.ring.char)
        return _raw(self.ring, out)

    def __neg__(self) -> "TruncatedSeries":
        r = self.ring
        return _raw(r, {m: r.s_neg(c) for m, c in self.terms.items()})

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_ring(other)
        p = self.ring.char
        D = self.ring.trunc
        # the right factor by degree, once: each left term stops at the truncation
        right = sorted(((sum(m), m, c) for m, c in other.terms.items()), key=itemgetter(0))
        out = {}
        for m1, c1 in self.terms.items():
            room = D - sum(m1)
            for d2, m2, c2 in right:
                if d2 > room:
                    break
                m = tuple(map(add, m1, m2))
                s = out.get(m, 0) + c1 * c2
                if p:
                    s %= p
                elif s.__class__ is Fraction and s.denominator == 1:
                    s = s.numerator
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        return _raw(self.ring, out)

    def scale(self, c) -> "TruncatedSeries":
        r = self.ring
        c = r.s_from(c)
        if c == 0:
            return TruncatedSeries.zero(r)
        return _raw(r, {m: r.s_mul(v, c) for m, v in self.terms.items()})

    def __pow__(self, e: int) -> "TruncatedSeries":
        return power(self, e, TruncatedSeries.one(self.ring))

    # -- order structure ----------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.terms

    def order(self) -> ExtOrder:
        """m-adic order; 0 gets the marker "at least D+1" (it may be anything, including infinity)."""
        if not self.terms:
            return ExtOrder.at_least(self.ring.trunc + 1)
        return ExtOrder.of(min(sum(m) for m in self.terms))

    def max_degree(self) -> int:
        """Largest total degree of a stored term (0 for the zero series)."""
        if not self.terms:
            return 0
        return max(sum(m) for m in self.terms)

    def homogeneous_part(self, d: int) -> "TruncatedSeries":
        if not 0 <= d <= self.ring.trunc:
            raise PrecondError(f"homogeneous degree {d} out of range 0..{self.ring.trunc}")
        return _raw(self.ring, {m: c for m, c in self.terms.items() if sum(m) == d})

    def initial_form(self) -> "TruncatedSeries":
        if self.is_zero:
            raise PrecondError("initial form of zero undefined")
        return self.homogeneous_part(self.order().value)

    # -- canonical views -----------------------------------------------------
    def sorted_terms(self) -> list:
        return sorted(self.terms.items(), key=lambda t: grlex_key(t[0]))

    def to_str(self, names: Optional[Sequence[str]] = None) -> str:
        if self.is_zero:
            return "0"
        if names is None:
            names = default_names(self.ring.num_vars)
        chunks = []
        for mono, coeff in self.sorted_terms():
            factors = []
            for name, e in zip(names, mono):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            cs = _scalar_str(coeff)
            if factors:
                body = "*".join(factors)
                if cs == "1":
                    text = body
                elif cs == "-1":
                    text = "-" + body
                else:
                    text = f"{cs}*{body}"
            else:
                text = cs
            chunks.append(text)
        out = chunks[0]
        for t in chunks[1:]:
            out += " - " + t[1:] if t.startswith("-") else " + " + t
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TruncatedSeries)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, tuple(self.sorted_terms())))

    def __repr__(self):
        return self.to_str()


_set_ring, _set_terms = TruncatedSeries.ring.__set__, TruncatedSeries.terms.__set__


def _raw(ring: RingSpec, clean_terms: dict) -> TruncatedSeries:
    # internal fast path: terms already normalized; the slot setters skip __setattr__
    s = object.__new__(TruncatedSeries)
    _set_ring(s, ring)
    _set_terms(s, clean_terms)
    return s


def _scalar_str(c) -> str:
    if isinstance(c, Fraction) and c.denominator != 1:
        return f"{c.numerator}/{c.denominator}"
    return str(int(c))


def default_names(num_vars: int) -> list:
    return [f"T{i + 1}" for i in range(num_vars)]

