"""Recursive-descent parser for polynomial expressions.

Grammar: integer literals (optionally rational as p/q), declared variable
names, unknown names (for systems in X), operators + - * ^ with ^ binding
tighter than *, * tighter than +/-, parentheses, insignificant whitespace,
unary minus.  Errors carry the offending position.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Optional, Sequence, Union

from .errors import PrecondError
from .series import RingSpec, TruncatedSeries, default_names
from .xpoly import PolyInX

_TOKEN = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*^()/]))"
)


MAX_NESTING = 100  # levels of parentheses: 5 stack frames of descent each, far below the default limit 1000


class ParseError(PrecondError):
    pass


def _tokenize(text: str):
    pos = depth = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad = pos + (len(text[pos:]) - len(stripped))
            raise ParseError(f"unexpected character {stripped[0]!r} at position {bad}")
        if m.group("int"):
            out.append(("int", int(m.group("int")), m.start("int")))
        elif m.group("name"):
            out.append(("name", m.group("name"), m.start("name")))
        else:
            op, start = m.group("op"), m.start("op")
            out.append(("op", op, start))
            depth += (op == "(") - (op == ")")
            if depth > MAX_NESTING:  # refused before the descent starts
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING} at position {start}")
        pos = m.end()
    out.append(("end", None, len(text)))
    return out


class _Parser:
    def __init__(self, text, ring, names, unknowns):
        self.text = text
        self.ring = ring
        self.tokens = _tokenize(text)
        self.k = 0
        self.names = {nm: idx for idx, nm in enumerate(names)}
        self.unknowns = {nm: idx for idx, nm in enumerate(unknowns or ())}
        self.n_unknowns = None if unknowns is None else max(1, len(self.unknowns))

    def peek(self):
        return self.tokens[self.k]

    def take(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect_op(self, op):
        kind, val, pos = self.take()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r} at position {pos}")

    def _lift(self, s: TruncatedSeries):
        return s if self.n_unknowns is None else PolyInX.from_series(s, self.n_unknowns)

    def parse(self):
        node = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected token {val!r} at position {pos}")
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs = self.term()
                node = node + rhs if val == "+" else node - rhs
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val == "*":
                self.take()
                node = node * self.factor()
            else:
                return node

    def factor(self):
        sign = 1
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                if val == "-":
                    sign = -sign
            else:
                break
        node = self.power()
        return node if sign == 1 else -node

    def power(self):
        base = self.atom()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.take()
            kind, ev, epos = self.take()
            if kind != "int":
                raise ParseError(f"expected a non-negative integer exponent at position {epos}")
            return base**ev
        return base

    def atom(self):
        kind, val, pos = self.take()
        if kind == "int":
            nkind, nval, npos = self.peek()
            if nkind == "op" and nval == "/":
                self.take()
                dkind, dval, dpos = self.take()
                if dkind != "int" or dval == 0:
                    raise ParseError(f"expected a nonzero integer denominator at position {dpos}")
                val = Fraction(val, dval)
            return self._lift(TruncatedSeries.constant(self.ring, val))
        if kind == "name":
            if val in self.names:
                return self._lift(TruncatedSeries.variable(self.ring, self.names[val]))
            if val in self.unknowns:
                return PolyInX.unknown(self.ring, self.n_unknowns, self.unknowns[val])
            raise ParseError(f"unknown variable {val!r} at position {pos}")
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        if kind == "end":
            raise ParseError(f"unexpected end of input at position {pos}")
        raise ParseError(f"unexpected token {val!r} at position {pos}")


def parse_expr(
    text: str,
    ring: RingSpec,
    names: Optional[Sequence[str]] = None,
    unknowns: Optional[Sequence[str]] = None,
) -> Union[TruncatedSeries, PolyInX]:
    """A plain series when unknowns is None, else (even for no unknowns) a PolyInX in
    max(1, len(unknowns)) unknowns, its series atoms lifted as they are read."""
    if names is None:
        names = default_names(ring.num_vars)
    if len(names) != ring.num_vars:
        raise PrecondError("variable name list does not match the ring arity")
    clash = set(names) & set(unknowns or ())
    if clash:
        raise PrecondError(f"names {sorted(clash)} are both variables and unknowns")
    return _Parser(text, ring, names, unknowns).parse()


def parse_poly(text: str, ring: RingSpec, names: Optional[Sequence[str]] = None) -> TruncatedSeries:
    """Parse a plain series (no unknowns), reduced modulo m^(D+1)."""
    return parse_expr(text, ring, names)
