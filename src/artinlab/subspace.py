"""Ideals, submodules and powers of the maximal ideal as exact linear subspaces.

At truncation order D every A-submodule of A^p becomes a finite-dimensional
subspace of the coefficient space, its columns the labels of labeller: by
total degree, then component, then graded-lex.  Membership reduces to an exact reduced row
echelon computation, which is canonical: equal subspaces have identical bases.

Because lower degrees come first, the echelon basis also answers filtration
queries without further elimination (the truncated standard-basis normal
form for a local degree ordering): the remainder of x modulo U has order
max{n : x in U + m^n}, and U cap m^i is spanned by the basis rows whose
pivot has degree >= i.

That order is read (Subspace.remainder_order) off the parts of x, pairs
(degree, {label: scalar}) in increasing degree: it is the degree of the
remainder's lowest label.  A basis row has no entry before its pivot and is
zero in every other pivot column, so degree d of the remainder depends only
on degrees <= d of x and on the rows with pivots there: once a part of degree
d leaves an entry at or below d, no later part is read.  So a caller that
builds x one degree at a time, such as the product g*h of an ICL scan, never
builds the degrees past its order, and a caller feeds only the degrees x has
(every row cleared has its pivot, and so all its entries, at or after the
lowest entry of x).  The beta search's read past its cut is such a caller too.
The labels of degree d start at d*step, step = arity*(D+1)^N (labeller), a
slot each Subspace sets.  No label is kept in a table of the ring's monomials:
labeller computes each one where it is read.

Series are multiplied on labels in one way, shared by the ICL pair scan, the
beta search and the factorization scan.  The graded form of a series (graded)
is (degree, ((label, c), ...)) for each nonempty degree, in increasing order.
graded_product(a, b, top) yields the parts of a*b lazily, as remainder_order
reads them: (e, {label: scalar}) for each degree e from ord(a)+ord(b), below
which a*b has none, to min(top, deg a + deg b); none for a zero factor, and a
part between two others may be empty.  Scalars are unreduced sums of products,
reduced by the reader.  Labels add as monomials multiply, so with top <= D each
label of a part is that of the product's own monomial.

Pivots are found through an index from pivot column to basis row, so a
reduction looks up only the columns its vector holds.  The order in which
those pivots are cleared does not matter: a basis row is zero in every other
pivot column, so subtracting it changes no other pivot entry of the vector.

A second index, from each non-pivot column to the rows holding an entry
there, lets an insert back-eliminate its new pivot column from exactly the
rows that hold it.  A pivot column needs no such entry: no other row holds
it.  The order of back-elimination does not matter either: the new row is
fixed, and each row is updated on its own.

A linear solve and a kernel are both reads of the graph of the map (LinearMap).
"""

from __future__ import annotations

import bisect
from functools import lru_cache
from operator import mul
from typing import NamedTuple, Sequence

from .errors import PrecondError
from .series import (
    ExtOrder,
    RingSpec,
    TruncatedSeries,
    _raw,
    monomials_of_degree,
    sub_multiple,
)


class IdealSpec(NamedTuple("IdealSpec", [("ring", RingSpec), ("generators", tuple)])):
    """A finitely generated ideal of the truncated ring; an empty tuple is the zero ideal."""

    __slots__ = ()

    def __new__(cls, ring: RingSpec, generators: tuple):
        for g in generators:
            if g.ring != ring:
                raise PrecondError("incompatible rings")
        return super().__new__(cls, ring, generators)

    @staticmethod
    def of(ring: RingSpec, gens: Sequence[TruncatedSeries]) -> "IdealSpec":
        return IdealSpec(ring, tuple(gens))

    def as_module(self) -> "ModuleSpec":
        return ModuleSpec(self.ring, 1, tuple((g,) for g in self.generators))


class ModuleSpec(NamedTuple("ModuleSpec", [("ring", RingSpec), ("arity", int), ("generators", tuple)])):
    """A submodule of A^arity given by generating vectors of truncated series."""

    __slots__ = ()

    def __new__(cls, ring: RingSpec, arity: int, generators: tuple):
        if arity < 1:
            raise PrecondError("module arity must be >= 1")
        for vec in generators:
            if len(vec) != arity:
                raise PrecondError("generator vector length does not match arity")
            for g in vec:
                if g.ring != ring:
                    raise PrecondError("incompatible rings")
        return super().__new__(cls, ring, arity, generators)

    def max_generator_degree(self) -> int:
        degs = [g.max_degree() for vec in self.generators for g in vec if not g.is_zero]
        return max(degs, default=0)


def as_module(M) -> ModuleSpec:
    return M.as_module() if isinstance(M, IdealSpec) else M


@lru_cache(maxsize=None)
def labeller(num_vars: int, trunc: int, arity: int):
    """The monomial label of A^arity, one int per (monomial, component): the
    function label(m, comp=0), computed with no table, one per ring shape.

    With B = trunc + 1, a monomial m = T1^e_1...TN^e_N of degree d has the
    weight w(m) = d*B^(N-1) - sum_i e_i*B^(N-i) in 0..B^N - 1, and
    label(m, comp) = d*arity*B^N + comp*B^N + w(m).  Three contracts:
    - order: labels sort by degree, then component, then graded-lex, as no
      exponent passes trunc, so the sum in w reads them as digits in base B,
      and w falls as m rises in graded-lex order.  These are the echelon
      columns: degree-major, degree d from d*step on (Subspace.step).
    - additivity: a label is linear in the exponents, so label(m*u, comp) =
      label(m, comp) + label(u) when deg(m*u) <= trunc, and a shift by a
      monomial is one int add.  A sum past degree trunc lands on no label and
      is never read: each caller drops such a product as truncated before it
      forms or reads it.
    - components: label(m, comp) = label(m) + label(1, comp).
    vec_to_series decodes a label by divmod: no table maps labels back.
    """
    B = trunc + 1
    step = B**num_vars
    weights = [arity * step + step // B - step // B**i for i in range(1, num_vars + 1)]
    return lambda m, comp=0: sum(map(mul, m, weights), comp * step)


@lru_cache(maxsize=None)
def degree_labels(num_vars: int, trunc: int, arity: int, d: int) -> tuple:
    """The labels (labeller) of monomials_of_degree(num_vars, d), in increasing order."""
    return tuple(map(labeller(num_vars, trunc, arity), monomials_of_degree(num_vars, d)))


def graded(s: TruncatedSeries, label) -> tuple:
    """s in graded form: (degree, ((label(m), c), ...)) for each nonempty degree,
    in increasing order, each degree's terms in the order s holds them."""
    by_degree = {}
    for m, c in s.terms.items():
        by_degree.setdefault(sum(m), []).append((label(m), c))
    return tuple((d, tuple(by_degree[d])) for d in sorted(by_degree))


def graded_product(a: tuple, b: tuple, top: int):
    """The parts of a*b, (e, sum_(da + db = e) a_da * b_db) for each degree e (the
    contract is in the module docstring)."""
    if not (a and b):
        return
    by_degree = dict(b)
    low = b[0][0]
    for e in range(a[0][0] + low, min(top, a[-1][0] + b[-1][0]) + 1):
        part = {}
        for da, ta in a:
            if e - da < low:
                break
            tb = by_degree.get(e - da)
            if tb:
                for k1, c1 in ta:
                    for k2, c2 in tb:
                        k = k1 + k2
                        part[k] = part.get(k, 0) + c1 * c2
        yield e, part


def series_to_vec(xs: Sequence[TruncatedSeries], ring: RingSpec) -> dict:
    label = labeller(ring.num_vars, ring.trunc, len(xs))
    vec = {}
    for comp, s in enumerate(xs):
        if s.ring != ring:
            raise PrecondError("incompatible rings")
        for mono, c in s.terms.items():
            vec[label(mono, comp)] = c
    return vec


def vec_to_series(vec: dict, ring: RingSpec, arity: int) -> tuple:
    """The series of a vector, each label (labeller) decoded by divmod."""
    B = ring.trunc + 1
    powers = [B**i for i in range(ring.num_vars - 1, -1, -1)]  # B^(N-i) for i = 1..N
    step = B * powers[0]
    parts = [{} for _ in range(arity)]
    for k, c in vec.items():
        d, k = divmod(k, arity * step)
        comp, w = divmod(k, step)
        digits = d * powers[0] - w  # sum_i e_i*B^(N-i)
        parts[comp][tuple(digits // q % B for q in powers)] = c
    return tuple(_raw(ring, p) for p in parts)


class Subspace:
    """Canonical reduced row echelon form over the coefficient field.

    Rows are sparse dicts column -> scalar, each normalized to 1 at its pivot
    column, which is eliminated from every other row.  Two equal subspaces
    therefore carry identical representations.  row_of maps each pivot column
    to its row, so that elimination finds a pivot by one lookup; pivots and
    rows list them by increasing pivot, sorted on the first read after an
    insert, so that an insert never shifts a list.

    holders is the other half of the index: for each non-pivot column k, the
    set of pivots of the rows with an entry at k (a set may be left empty).
    A pivot column needs no entry, as no other row holds it; when a column
    becomes a pivot, its set names exactly the rows that insert must
    back-eliminate.  insert keeps both maps.
    """

    __slots__ = ("ring", "arity", "step", "row_of", "holders", "_pivots")

    def __init__(self, ring: RingSpec, arity: int = 1):
        self.ring = ring
        self.arity = arity
        self.step = arity * (ring.trunc + 1) ** ring.num_vars  # degree d: labels d*step.. (labeller)
        self.row_of = {}
        self.holders = {}
        self._pivots = None

    @property
    def pivots(self) -> list:
        if self._pivots is None:
            self._pivots = sorted(self.row_of)
        return self._pivots

    @property
    def rows(self) -> list:
        row_of = self.row_of
        return [row_of[piv] for piv in self.pivots]

    def _eliminate(self, v: dict, cols) -> None:
        """Clear from v, in place, the pivot columns among cols, the columns of
        the entries the caller just added to v.

        Before those entries v held no pivot column: a row is zero in every
        other pivot column, so subtracting it creates none and changes no
        other pivot entry.  The pivots the entries brought are thus the only
        ones to clear, and the order in which they are cleared does not
        change the result.
        """
        row_of = self.row_of
        p = self.ring.char
        for col in cols:
            row = row_of.get(col)
            if row is not None:
                c = v.get(col)
                if c:
                    sub_multiple(v, row, c, p)

    def reduce(self, vec: dict) -> dict:
        """Canonical remainder of vec modulo this subspace (non-destructive)."""
        v = dict(vec)
        self._eliminate(v, vec)
        return v

    def remainder_order(self, parts) -> ExtOrder:
        """Order of the remainder of a vector modulo this subspace, fed by degree.

        parts yields (degree, {column: scalar}) pairs in increasing degree, the
        vector's entries of that degree (scalars need not be reduced; a degree
        may be missing or empty), read only up to the order and never written:
        a caller may hand over dicts it shares.  Each part's entries are added
        and their pivot columns cleared (_eliminate); a row has no entry before
        its pivot, so every entry left at or below the part's degree is an
        entry of the full remainder, which later parts cannot change.  The
        first part that leaves one ends the read, and the order is the degree
        of the remainder's lowest label; none left after the last part gives
        the at-least marker.
        """
        ring, step, v = self.ring, self.step, {}
        for d, new in parts:
            sub_multiple(v, new, -1, ring.char)
            self._eliminate(v, new)
            if v and min(v) // step <= d:
                break
        return ExtOrder.of(min(v) // step) if v else ExtOrder.at_least(ring.trunc + 1)

    def insert(self, vec: dict) -> tuple:
        """Add a vector of canonical scalars; returns the pivots of the rows it
        wrote, the new row's first, or () when the dimension did not grow.  A
        truth test reads the growth: the tuple is nonempty even for pivot 0.

        The new row is the remainder scaled to 1 at its pivot piv; its other
        columns are non-pivot ones.  It is back-eliminated from exactly the
        rows that holders lists at piv, each in place and on its own, so the
        order does not matter.  Such a row gains or loses entries only at the
        new row's columns, where holders follows it.
        """
        rem = self.reduce(vec)
        if not rem:
            return ()
        p = self.ring.char
        piv = min(rem)
        if rem[piv] == 1:
            row = rem
        else:
            row = {}
            sub_multiple(row, rem, -self.ring.s_inv(rem[piv]), p)  # row = rem / rem[piv]
        holders, row_of = self.holders, self.row_of
        back = holders.pop(piv, ())
        for q in back:
            other = row_of[q]
            sub_multiple(other, row, other[piv], p)
            for k in row:
                if k in other:
                    holders.setdefault(k, set()).add(q)
                elif k != piv:
                    holders[k].discard(q)
        for k in row:
            if k != piv:
                holders.setdefault(k, set()).add(piv)
        row_of[piv] = row
        self._pivots = None
        return (piv, *back)

    def contains_vec(self, vec: dict) -> bool:
        return not self.reduce(vec)

    def cap_start(self, i: int) -> int:
        """Position of the first basis row whose pivot has degree >= i: the rows
        from there on are the canonical basis of this subspace cap m^i, as every
        entry of a row lies at or after its pivot, hence in degree >= i."""
        ring = self.ring
        if not 0 <= i <= ring.trunc + 1:
            raise PrecondError(f"m-power exponent {i} out of range 0..{ring.trunc + 1}")
        return bisect.bisect_left(self.pivots, i * self.step)


def multiples(gen, d: int, ring: RingSpec, sound: bool = False):
    """The vectors u * gen, one per monomial u of degree d, as sparse columns: each
    term of gen that the shift by u keeps, moved to its column by adding the
    label of u (degree_labels).

    Nothing past the multiplier cap: D - ord(gen), beyond which every product
    truncates to 0, or with sound=True D - deg(gen), so that every product is
    computed without losing terms to truncation.
    """
    live = [g for g in gen if not g.is_zero]
    if not live:
        return
    if sound:
        cap = ring.trunc - max(g.max_degree() for g in live)
    else:
        cap = ring.trunc - min(g.order().value for g in live)
    if d > cap:
        return
    label = labeller(ring.num_vars, ring.trunc, len(gen))
    kept = [(label(m, comp), c) for comp, g in enumerate(gen) for m, c in g.terms.items()
            if sum(m) + d <= ring.trunc]
    for lu in degree_labels(ring.num_vars, ring.trunc, len(gen), d):
        yield {k + lu: c for k, c in kept}


def insert_multiples(U: Subspace, gen, sound: bool = False) -> None:
    """Insert each u * gen into U (sound: see multiples), highest multiplier degree
    first: a new row reduces against rows of higher pivot and is seldom rewritten
    later.  Lowest first, most rows are rewritten (over Q, into chains of fractions)."""
    for d in range(U.ring.trunc, -1, -1):
        for vec in multiples(gen, d, U.ring, sound):
            U.insert(vec)


def span_module(M: ModuleSpec, sound: bool = False) -> Subspace:
    """Span of {u * g : g generator, u monomial}, the module M itself.

    With sound=True the multiplier degree is capped at D - deg(g) (see
    multiples); membership in the sound span certifies membership in the
    untruncated module.
    """
    U = Subspace(M.ring, M.arity)
    # generator-major: the multiples of one generator are shifts of one vector
    # and reduce against few rows.  Interleaving the generators degree by
    # degree made the spans of (2*T1^2 - T2^3 - 2*T1^4, -T2^3 - 2*T1^2*T2^2 +
    # 3*T1^5) over Q at D = 14 take 4x the eliminations and 36x the Fraction
    # entries.
    for gen in M.generators:
        insert_multiples(U, gen, sound)
    return U


def span_ideal(I: IdealSpec, sound: bool = False) -> Subspace:
    return span_module(I.as_module(), sound)


def _series_of(xs, U: Subspace) -> tuple:
    if isinstance(xs, TruncatedSeries):
        xs = (xs,)
    if len(xs) != U.arity or any(s.ring != U.ring for s in xs):
        raise PrecondError("incompatible rings")
    return xs


def member(xs, U: Subspace) -> bool:
    """Membership of a series (or vector of series) in the subspace."""
    return U.contains_vec(series_to_vec(_series_of(xs, U), U.ring))


def distance_order(xs, U: Subspace) -> ExtOrder:
    """max{ n : x in U + m^n }, the order of the remainder of x modulo U.

    Reducing any w in m^n only subtracts rows whose pivot, and so every entry,
    has degree >= n; hence the remainder has order >= n iff x is in U + m^n.
    A zero remainder gives the at-least marker.  The remainder is never built
    past its order: x is handed to U.remainder_order by its nonempty degrees.
    """
    parts = {}
    for k, c in series_to_vec(_series_of(xs, U), U.ring).items():
        parts.setdefault(k // U.step, {})[k] = c
    return U.remainder_order(sorted(parts.items()))


class LinearMap:
    """x -> sum_k x[k] * columns[k] (columns[k] a sparse dict of rows), read off the
    echelon form of its graph: rows (columns[k] | e_k), the R image columns first
    (R: one past the last row an image reaches), unknown k at column R + n-1-k."""

    __slots__ = ("ring", "R", "coords", "graph")

    def __init__(self, columns, ring: RingSpec):
        images = [{r: s for r, c in col.items() if (s := ring.s_from(c)) != 0} for col in columns]
        self.ring = ring
        self.R = R = 1 + max((r for col in images for r in col), default=-1)
        self.coords = range(R + len(images) - 1, R - 1, -1)
        self.graph = Subspace(ring)
        for image, c in zip(images, self.coords):
            self.graph.insert({**image, c: 1})

    def solve(self, target: dict):
        """One exact x with sum_k x[k] * columns[k] = target, or None if there is none.
        No image reaches a row at or past R.  Else reducing (target | 0) leaves an
        image column iff there is no solution, or (0 | -x) with x zero at the free
        unknowns, which are the kernel's pivots taken from the right."""
        target = {r: s for r, c in target.items() if (s := self.ring.s_from(c)) != 0}
        if target and max(target) >= self.R:
            return None
        rem = self.graph.reduce(target)
        if rem and min(rem) < self.R:
            return None
        return [self.ring.s_neg(rem.get(c, 0)) for c in self.coords]

    def kernel(self) -> list:
        """A basis of the kernel, n - rank vectors: the graph rows with their pivot
        past the image columns are the rows (0 | x) with x in the kernel."""
        start = bisect.bisect_left(self.graph.pivots, self.R)
        return [[row.get(c, 0) for c in self.coords] for row in self.graph.rows[start:]]


def solve_linear(columns, target: dict, ring: RingSpec):
    """One exact x with sum_k x[k] * columns[k] = target, or None (LinearMap.solve)."""
    return LinearMap(columns, ring).solve(target)
