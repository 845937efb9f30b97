"""The benchmark's own exact polynomial arithmetic, independent of artinlab.

A polynomial is a dict mapping exponent tuples to nonzero Fractions,
truncated at a total degree.  It builds the seeded inputs (as strings the
CLI parses) and re-checks the CLI's answers, so a defect in the program's
series arithmetic cannot certify its own output.
"""

from __future__ import annotations

from fractions import Fraction


def names_for(num_vars: int) -> list:
    return [f"T{k + 1}" for k in range(num_vars)]


def monomials(num_vars: int, lo: int, hi: int) -> list:
    """Exponent tuples of total degree lo..hi, degree first, T1 > T2 > ... inside a degree."""

    def of_degree(n, d):
        if n == 1:
            return [(d,)]
        return [(first,) + rest for first in range(d, -1, -1) for rest in of_degree(n - 1, d - first)]

    return [m for d in range(lo, hi + 1) for m in of_degree(num_vars, d)]


def add(a: dict, b: dict, sign: int = 1) -> dict:
    out = dict(a)
    for m, c in b.items():
        s = out.get(m, 0) + sign * c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def mul(a: dict, b: dict, trunc: int) -> dict:
    out = {}
    for m1, c1 in a.items():
        d1 = sum(m1)
        for m2, c2 in b.items():
            if d1 + sum(m2) > trunc:
                continue
            m = tuple(x + y for x, y in zip(m1, m2))
            s = out.get(m, 0) + c1 * c2
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def scale(a: dict, c) -> dict:
    return {m: v * c for m, v in a.items()} if c else {}


def order(a: dict, trunc: int) -> int:
    """m-adic order; the zero polynomial gets trunc + 1."""
    return min((sum(m) for m in a), default=trunc + 1)


def fmt(a: dict, names: list) -> str:
    """A string the artinlab parser reads back as the same polynomial."""
    if not a:
        return "0"
    chunks = []
    for m in sorted(a, key=lambda m: (sum(m), tuple(-e for e in m))):
        c = Fraction(a[m])
        factors = [n if e == 1 else f"{n}^{e}" for n, e in zip(names, m) if e]
        text = "*".join([str(abs(c))] + factors) if abs(c) != 1 or not factors else "*".join(factors)
        chunks.append(("- " if c < 0 else "+ ") + text)
    out = " ".join(chunks)
    return out[2:] if out.startswith("+ ") else "-" + out[2:]


def parse(text: str, names: list) -> dict:
    """Read the CLI's canonical series string: terms 'c*T1^a*T2^b' joined by ' + ' / ' - '."""
    index = {n: k for k, n in enumerate(names)}
    out = {}
    for term in text.strip().replace(" - ", " + -").split(" + "):
        c = Fraction(-1 if term.startswith("-") else 1)
        exps = [0] * len(names)
        for factor in term.lstrip("-").split("*"):
            if factor[0].isdigit():
                c *= Fraction(factor)
            else:
                name, _, e = factor.partition("^")
                exps[index[name]] += int(e or 1)
        out = add(out, {tuple(exps): c})
    return out
