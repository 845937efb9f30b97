"""Catalog of closed-form affine/ceiling bounds with named constants.

All formulas are evaluated in exact rational arithmetic and floored at the
end: each bound caps an integer-valued function, so the integer part is the
sharp integer statement.  Constants are inputs with provenance, never derived
here; the scans elsewhere produce scan-certified values for them.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, floor
from typing import NamedTuple, Optional

from .errors import PrecondError


class _Params(NamedTuple):
    a: Optional[Fraction] = None
    b: Optional[Fraction] = None
    c: Optional[Fraction] = None
    i_I: Optional[int] = None
    i_P: Optional[int] = None
    i_Jn: Optional[int] = None
    n: Optional[int] = None
    t: Optional[int] = None
    ord_g: Optional[int] = None
    max_ord: Optional[int] = None
    nu_x: Optional[int] = None


class BoundParams(_Params):
    """Named constants a bound may consume; a, b and c are held as Fractions.

    a, b: complementary-inequality constants (slope >= 1, offset >= 0)
    c: gap between the order function and its multiplicative limit
    i_I, i_P, i_Jn: Artin-Rees indices of the ideals in play
    n: exponent of the power unknown; t: power of the distinguished element
    ord_g, max_ord: orders of generators; nu_x: order of the translated element
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        a, b, c, *counts = _Params(*args, **kwargs)
        a, b, c = (None if v is None else Fraction(v) for v in (a, b, c))
        if a is not None and a < 1:
            raise PrecondError("slope a must be >= 1")
        if b is not None and b < 0:
            raise PrecondError("offset b must be >= 0")
        for name, v in zip(_Params._fields[3:], counts):
            if v is not None and v < 0:
                raise PrecondError(f"parameter {name} must be >= 0")
        return super().__new__(cls, a, b, c, *counts)


def _log2_floor(n: int) -> int:
    if n < 1:
        raise PrecondError("n must be >= 1")
    return n.bit_length() - 1


_CATALOG = {
    # id: (required params, formula)
    "prop43i": (("a", "b", "nu_x", "i_I"), lambda p, i: p.a * i + p.a * p.nu_x + p.a * p.i_I + p.b),
    "prop43ii": (("a", "b", "c", "i_I"), lambda p, i: (p.a + p.c) * (i + p.i_I) + max(p.b, Fraction(p.i_I))),
    "thm45": (("a", "b", "nu_x", "i_I"), lambda p, i: i + p.a * p.nu_x + p.i_I + p.b),
    "cor48_artin": (("max_ord",), lambda p, i: Fraction(2 * i + 3 * p.max_ord)),
    "ex433": (("nu_x", "ord_g"), lambda p, i: Fraction(i + p.nu_x + p.ord_g)),
    "ex434": (("n", "nu_x"), lambda p, i: Fraction(i + max(p.n, p.nu_x + 1))),
    "lem64": (
        ("a", "b", "n", "i_P", "i_I"),
        lambda p, i: (2 * p.a) ** (_log2_floor(p.n) + 1) * (i + p.i_P + p.i_I)
        + p.b * sum((2 * p.a) ** j for j in range(_log2_floor(p.n) + 1)),
    ),
    "lem66": (("n", "i_I", "c"), lambda p, i: p.n * ceil(Fraction(i + p.i_I, p.n)) + p.n * p.c),
    "prop72": (("n", "i_I", "c"), lambda p, i: i + p.i_I + p.n * (p.c + 1)),
    "prop73": (
        ("n", "t", "i_I", "i_Jn", "c"),
        lambda p, i: i + p.i_I + p.t * p.i_Jn + p.t * p.n * (p.c + 1),
    ),
    "prop74": (("a", "n", "t"), lambda p, i: Fraction(floor(Fraction(i - p.a, p.n * p.t)) - p.t * (p.a + p.n))),
    "lin31": (("i_I",), lambda p, i: Fraction(i + p.i_I)),
}

FORMULA_IDS = tuple(sorted(_CATALOG))

# parameters a formula divides by, which must therefore be >= 1
_DIVISORS = {"lem66": ("n",), "prop74": ("n", "t")}

# ex434 reuses the power-of-T1 exponent as its n; nu_x is the order of the
# second coefficient in the quotient by the first.


def evaluate_bound(formula_id: str, params: BoundParams, i: int) -> int:
    """Exact integer value of the catalog bound at i (rational inside, floor out)."""
    if formula_id not in _CATALOG:
        raise PrecondError(f"unknown formula id {formula_id!r}; known: {', '.join(FORMULA_IDS)}")
    if i < 0:
        raise PrecondError("i must be >= 0")
    required, fn = _CATALOG[formula_id]
    for name in required:
        if getattr(params, name) is None:
            raise PrecondError(f"formula {formula_id} needs parameter {name}")
    for name in _DIVISORS.get(formula_id, ()):
        if getattr(params, name) < 1:
            raise PrecondError(f"formula {formula_id} divides by {name}, which must be >= 1")
    val = fn(params, i)
    return floor(val)


class CrossCheckReport(NamedTuple):
    formula_id: str
    rows: list  # (i, measured, bound, within)
    exceedances: list  # (i, measured, bound)
    ok: bool
    note: str


def cross_check_bound(formula_id: str, params: BoundParams, empirical) -> CrossCheckReport:
    """Compare measured values against a catalog bound.

    Any exceedance within certified ranges indicates a bug or a truncation
    artifact upstream, or that the chosen formula does not govern the data
    (for instance, quadratic growth against an affine candidate).
    """
    rows = []
    exceed = []
    for i, measured in empirical:
        bd = evaluate_bound(formula_id, params, i)
        within = measured <= bd
        rows.append((i, measured, bd, within))
        if not within:
            exceed.append((i, measured, bd))
    note = "all measured points within the bound" if not exceed else (
        f"{len(exceed)} measured point(s) exceed the bound; "
        "no affine bound with these constants fits the data"
    )
    return CrossCheckReport(formula_id, rows, exceed, not exceed, note)
