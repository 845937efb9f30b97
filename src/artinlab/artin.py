"""Artin-Rees indices, constructive correction solvers, stable inclusion scans,
and certified brute-force lower bounds for approximation functions.

The truncated algebra makes every inclusion below a finite linear-algebra
check.  Results carry a certified range: truncation can manufacture spurious
high-degree intersections, so queries past the range refuse instead of
silently degrading.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product as cartesian_product, repeat
from math import ceil, comb
from typing import NamedTuple, Optional, Sequence

from .errors import BudgetError, PrecondError
from .orders import SLOPE_GRID
from .series import (ExtOrder, TruncatedSeries, _raw, fp_space_size, fp_vectors, monomials_of_degree, power,
                     sub_multiple)
from .subspace import (
    IdealSpec,
    ModuleSpec,
    Subspace,
    as_module,
    degree_labels,
    distance_order,
    graded,
    graded_product,
    labeller,
    multiples,
    series_to_vec,
    solve_linear,
    span_ideal,
    vec_to_series,
)
from .xpoly import PolyInX


# ---------------------------------------------------------------------------
# Artin-Rees index
# ---------------------------------------------------------------------------

class ArIndexResult(NamedTuple):
    """Smallest i0 with  M cap m^i  inside  m^(i-i0) * M  for all certified i."""

    i0: int
    certified_up_to: int
    tight_witness: Optional[tuple]  # (i, vector of series) violating index i0-1
    module: ModuleSpec
    deficits: list  # (i, largest j with inclusion)


def _tagged_span(M: ModuleSpec) -> tuple:
    """(U, lm, kept): U the span of M, grown level by level; lm[q] the level of
    the last insert that wrote U's row at pivot q; kept the generators that
    stay in a minimal generating set.

    A level is a multiplier degree: levels D down to j span m^j * M, one
    Subspace in reduced echelon form on U's column order.  Its row at a pivot q
    is U's row iff no later insert writes it, as a write clears an entry at a
    pivot column, which no later write puts back.  So U's row at q lies in
    m^j * M iff lm[q] >= j.

    The nonzero generators go lowest degree first, the given order ruling
    within one degree.  A generator's level-0 insert, the generator itself,
    grows the span iff it lies outside m*M plus the generators before it; by
    Nakayama's lemma those kept form a minimal generating set, and a generator
    of degree d is kept iff the lower-degree ones do not generate M.  That
    largest kept degree sets the certified range.  The order decides which
    generators of one degree are kept, and the cost: over Q, a row grown from
    a generator whose pivot coefficient is not 1 can fill with fractions.
    """
    ring = M.ring
    gens = sorted((vec for vec in M.generators if not all(g.is_zero for g in vec)),
                  key=lambda vec: max(g.max_degree() for g in vec if not g.is_zero))
    U, lm, kept = Subspace(ring, M.arity), {}, []
    for level in range(ring.trunc, -1, -1):
        for gen in gens:
            for vec in multiples(gen, level, ring):
                wrote = U.insert(vec)
                for q in wrote:
                    lm[q] = level
                if not level and wrote:
                    kept.append(gen)
    return U, lm, kept


def artin_rees_index(M) -> ArIndexResult:
    """The Artin-Rees profile of M, read off one tagged span (_tagged_span).

    prof[i], the largest j <= i with M cap m^i inside m^j * M, is the least lm
    over the rows of M cap m^i, those from U.cap_start(i) on, or i if that is
    less.  The witness, at the first i reaching i0, is the first of those rows
    with lm <= prof[i]: a row outside m^(prof[i]+1) * M, so index i0-1 fails.
    """
    M = as_module(M)
    U, lm, kept = _tagged_span(M)
    M = ModuleSpec(M.ring, M.arity, tuple(kept))
    cert = M.ring.trunc - M.max_generator_degree()
    pivots = U.pivots
    prof, low, stop = [], cert, len(pivots)  # low: the least lm from cap_start(i) on, or cert
    for i in range(cert, -1, -1):
        start = U.cap_start(i)
        low = min([low, *(lm[q] for q in pivots[start:stop])])
        prof.append(min(i, low))
        stop = start
    deficits = list(enumerate(reversed(prof)))
    i0 = max(i - j for i, j in deficits)
    witness = None
    if i0:
        i, j = next((i, j) for i, j in deficits if i - j == i0)
        q = next(q for q in pivots[U.cap_start(i):] if lm[q] <= j)
        witness = (i, vec_to_series(U.row_of[q], M.ring, M.arity))
    return ArIndexResult(i0, cert, witness, M, deficits)


# ---------------------------------------------------------------------------
# Correction solvers
# ---------------------------------------------------------------------------

class SolveCertificate(NamedTuple):
    """Exact solution produced from an approximate one, with proximity orders."""

    input: tuple
    output: tuple
    level_i: int
    proximity: list  # ExtOrder of each difference
    residual_order: ExtOrder
    regularity: str = "verified-monomial"


def _residual(f: Sequence[TruncatedSeries], x: Sequence[TruncatedSeries]) -> TruncatedSeries:
    """f_1*x_1 + ... + f_n*x_n."""
    r = TruncatedSeries.zero(f[0].ring)
    for g, xj in zip(f, x):
        r = r + g * xj
    return r


def _certificate(f, x, xbar, i: int, needs, regularity: str) -> SolveCertificate:
    """The certificate of a solver's output xbar for the input x: xbar must be an
    exact solution with each xbar_j - x_j of order >= min(needs[j], D + 1)."""
    check = _residual(f, xbar)
    if not check.is_zero:
        raise PrecondError("correction output failed to be an exact solution")
    D = f[0].ring.trunc
    proximity = [(xb - xj).order() for xb, xj in zip(xbar, x)]
    if any(pr < ExtOrder.of(min(need, D + 1)) for pr, need in zip(proximity, needs)):
        raise PrecondError("proximity guarantee violated")
    return SolveCertificate(tuple(x), tuple(xbar), i, proximity, check.order(), regularity)


def _monomial_disjoint_initials(f: Sequence[TruncatedSeries]) -> bool:
    used = set()
    for g in f:
        form = g.initial_form()
        if len(form.terms) != 1:
            return False
        (mono,) = form.terms
        vars_here = {i for i, e in enumerate(mono) if e}
        if used & vars_here:
            return False
        used |= vars_here
    return True


def solve_linear_regular(
    f: Sequence[TruncatedSeries],
    x: Sequence[TruncatedSeries],
    i: int,
    assume_regular: bool = False,
) -> SolveCertificate:
    """Exact zero of f1*X1+...+fn*Xn near an approximate one.

    Requires the initial forms of the f_j to be a regular sequence; then every
    syzygy of those forms is an antisymmetric combination of the forms
    themselves, and peeling the lowest homogeneous layer of the residual off
    degree by degree converges.  The output is always of the antisymmetric
    shape sum_k f_k z(k,j), hence an exact solution, and each coordinate moves
    by at most m^(i + ord(fn) - ord(fj) + 1).
    """
    f = list(f)
    x = list(x)
    if not f or len(f) != len(x):
        raise PrecondError("need equally many generators and coordinates")
    ring = f[0].ring
    n = len(f)
    for s in f + x:
        if s.ring != ring:
            raise PrecondError("incompatible rings")
    if any(g.is_zero for g in f):
        raise PrecondError("zero generator not allowed")
    e = [g.order().value for g in f]
    if any(e[j] > e[j + 1] for j in range(n - 1)):
        raise PrecondError("generators must come in non-decreasing order of their orders")
    if i < 0:
        raise PrecondError("approximation level i must be >= 0")
    D = ring.trunc
    en = e[-1]
    if i + en > D:
        raise PrecondError(f"level i={i} with ord(fn)={en} exceeds certified range (trunc {D})")
    if _monomial_disjoint_initials(f):
        regularity = "verified-monomial"
    elif assume_regular:
        regularity = "assumed"
    else:
        raise PrecondError(
            "cannot verify that the initial forms are a regular sequence; "
            "pass assume_regular to assert it"
        )

    if _residual(f, x).order() <= ExtOrder.of(i + en):
        raise PrecondError("approximation level insufficient")

    phi = [g.initial_form() for g in f]
    cur = list(x)  # x_j - sum_k f_k z(k,j) over the corrections so far
    guard = 0
    while True:
        guard += 1
        if guard > D + 2:
            raise PrecondError("correction did not converge; preconditions violated")
        prods = [g * c for g, c in zip(f, cur)]
        orders = [p.order() for p in prods]
        mu_ord = min(orders)
        if not mu_ord.exact or mu_ord.value > i + en:
            break
        mu = mu_ord.value
        live = [j for j in range(n) if orders[j] == mu_ord]
        correction = _antisymmetric_step(ring, phi, e, cur, mu, live)
        if correction is None:
            raise PrecondError(
                "no antisymmetric correction exists at the lowest level; "
                "the initial forms are not a regular sequence or the input is inconsistent"
            )
        for (k, j), z in correction.items():  # z(j,k) = -z(k,j)
            cur[j] = cur[j] - f[k] * z
            cur[k] = cur[k] + f[j] * z

    xbar = [xj - cj for xj, cj in zip(x, cur)]
    return _certificate(f, x, xbar, i, [i + en - ej + 1 for ej in e], regularity)


def _antisymmetric_step(ring, phi, e, cur, mu, live):
    """Solve xi_j = sum_k phi_k z(k,j) with z(k,j) = -z(j,k) on the active indices.

    Unknowns are the coefficients of the homogeneous z(k,j) for k < j in
    `live`; the unknown of z(k,j) at u has image u*phi_k in component j and
    -u*phi_j in component k, so the pair's columns are the multiples of one
    generator vector.  Returns a dict for those pairs, or None when
    inconsistent.
    """
    zero = TruncatedSeries.zero(ring)
    pairs, gens, degrees = [], [], []
    for a in range(len(live)):
        for b in range(a + 1, len(live)):
            k, j = live[a], live[b]
            dz = mu - e[k] - e[j]
            if dz < 0:
                continue
            # the image degree mu - e_j is at most D, so the multiplier cap never binds
            gen = [zero] * len(live)
            gen[a], gen[b] = -phi[j], phi[k]
            pairs.append((k, j))
            gens.append(gen)
            degrees.append(dz)
    target = series_to_vec([cur[j].homogeneous_part(mu - e[j]) for j in live], ring)
    sol = _solve_homogeneous(gens, degrees, target, ring)
    if sol is None:
        return None
    return {pair: TruncatedSeries(ring, z) for pair, z in zip(pairs, sol) if any(z.values())}


def _solve_homogeneous(gens, degrees, target, ring):
    """Multipliers u_g, homogeneous of degree degrees[g] within the multiplier cap, with
    sum_g u_g * gens[g] = target: one dict monomial -> coefficient per generator, or None.
    multiples gives one column per monomial, in monomials_of_degree order, and that
    column order decides which solution solve_linear returns."""
    columns = []
    for gen, d in zip(gens, degrees):
        columns.extend(multiples(gen, d, ring))
    sol = solve_linear(columns, target, ring)
    if sol is None:
        return None
    coeffs = iter(sol)
    return [dict(zip(monomials_of_degree(ring.num_vars, d), coeffs)) for d in degrees]


def reduce_mod_principal(h: TruncatedSeries, f: TruncatedSeries, k: int):
    """h = a*f + h' with no term of h' divisible by T1^k (canonical at truncation).

    Each substituted term T1^k -> f - g trades a term for strictly higher
    degree ones, so the sweep terminates at the truncation order.
    """
    ring = h.ring
    a = TruncatedSeries.zero(ring)
    rest = h
    guard = 0
    while True:
        guard += 1
        if guard > ring.trunc + 2:
            raise PrecondError("principal reduction did not terminate")
        div = {m: c for m, c in rest.terms.items() if m[0] >= k}
        if not div:
            break
        u = _raw(ring, {(m[0] - k,) + m[1:]: c for m, c in div.items()})
        a = a + u
        rest = rest - u * f
    return a, rest


def solve_fx_hy(
    k: int,
    f: TruncatedSeries,
    h: TruncatedSeries,
    x: TruncatedSeries,
    y: TruncatedSeries,
    i: int,
) -> SolveCertificate:
    """Exact zero of f*X + h*Y near (x, y), for f = T1^k + g with ord(g) = k+1
    and T1 not dividing the initial form of g.

    Works by successive eliminations: reduce h modulo f to a normal form h'
    with no T1^k-divisible term, then repeatedly divide the initial form of
    the X-coordinate by the initial form of h', which the shape hypotheses
    make possible; the exact solution is of the form (h'*z, -f*z).
    """
    ring = f.ring
    for s in (h, x, y):
        if s.ring != ring:
            raise PrecondError("incompatible rings")
    if k < 1:
        raise PrecondError("k must be >= 1")
    lead = TruncatedSeries.monomial(ring, (k,) + (0,) * (ring.num_vars - 1))
    g = f - lead
    if g.is_zero or g.order() != ExtOrder.of(k + 1):
        raise PrecondError("f must have the shape T1^k + g with ord(g) = k+1")
    if all(m[0] >= 1 for m in g.initial_form().terms):
        raise PrecondError("T1 must not divide the initial form of g")
    D = ring.trunc
    a, h1 = reduce_mod_principal(h, f, k)
    if h1.is_zero:
        raise PrecondError("h lies in (f) at truncation; the proximity bound is out of certified range")
    nu_h = h1.order().value
    bound = i + max(k, nu_h + 1)
    if bound > D:
        raise PrecondError(f"bound exponent {bound} exceeds certified range (trunc {D})")
    if _residual((f, h), (x, y)).order() <= ExtOrder.of(bound):
        raise PrecondError("approximation level insufficient")

    xw = x + a * y
    target = i + max(k, nu_h) - k + 1
    in_h1 = h1.initial_form()
    z = TruncatedSeries.zero(ring)
    cur = xw
    guard = 0
    while cur.order().exact and cur.order().value < target:
        guard += 1
        if guard > D + 2:
            raise PrecondError("elimination did not converge; preconditions violated")
        dz = cur.order().value - nu_h
        target_vec = series_to_vec([cur.initial_form()], ring)
        sol = None if dz < 0 else _solve_homogeneous([(in_h1,)], [dz], target_vec, ring)
        if sol is None:
            raise PrecondError(
                "initial form of the X-coordinate is not divisible by the normal form of h; "
                "shape or approximation preconditions violated"
            )
        z0 = TruncatedSeries(ring, sol[0])
        cur = cur - h1 * z0
        z = z + z0
    ybar = -(f * z)
    xbar = h1 * z - a * ybar
    return _certificate((f, h), (x, y), (xbar, ybar), i, (i + 1, i + 1), "shape-verified")


# ---------------------------------------------------------------------------
# Stable inclusion scan
# ---------------------------------------------------------------------------

class StableArReport(NamedTuple):
    ideal: IdealSpec
    a: Fraction
    b: int
    checks: list  # (x, i, nu_x, exponent, holds)
    all_hold: bool
    skipped: list  # x with undecidable order
    grid: list  # (a, b, all_hold) over the slope grid
    minimal_pass: Optional[tuple]


def stable_ar_scan(
    I: IdealSpec,
    xs: Sequence[TruncatedSeries],
    a: Fraction = Fraction(1),
    b: int = 0,
    grid_b_max: Optional[int] = None,
) -> StableArReport:
    """Check ((x)+I) cap m^(i + a*nu(x) + b)  inside  ((x)+I) * m^i for each x.

    This is the Artin-Rees statement for the module (x)+I at the offset
    ceil(a*nu(x)) + b, so every check reads the Artin-Rees profile of (x)+I
    that artin_rees_index computes: it holds iff i <= prof[exponent].  Both
    commands certify the same range.  Scans every feasible i in that range.

    All checks of x hold iff the offset is at least i0_x = max_e (e - prof[e]),
    the Artin-Rees index of (x)+I: the rows e < offset need nothing, as
    e - prof[e] <= e.  So the smallest passing b at each standard slope a is
    max(0, max_x (i0_x - ceil(a*nu(x)))), or None past the cap.
    """
    a = Fraction(a)
    ring = I.ring
    D = ring.trunc
    span_I = span_ideal(I)
    checks = []  # (x, i, nu_x, exponent, holds)
    indices = []  # (nu(x), Artin-Rees index of (x)+I)
    skipped = []
    for x in xs:
        nu_x = distance_order(x, span_I)
        if not nu_x.exact:
            skipped.append(x)
            continue
        offset = ceil(a * nu_x.value) + b
        if offset < 0:
            raise PrecondError(f"offset ceil(a*nu(x)) + b = {offset} < 0 for x = {x.to_str()}")
        res = artin_rees_index(ModuleSpec(ring, 1, tuple((g,) for g in I.generators) + ((x,),)))
        checks.extend((x, e - offset, nu_x, e, e - offset <= j) for e, j in res.deficits[offset:])
        indices.append((nu_x.value, res.i0))
    cap = grid_b_max if grid_b_max is not None else D
    grid = []
    for a_val in SLOPE_GRID:
        b_min = max([0] + [i0 - ceil(a_val * nu_v) for nu_v, i0 in indices])
        grid.append((a_val, b_min if b_min <= cap else None))
    minimal = next((point for point in grid if point[1] is not None), None)
    return StableArReport(
        ideal=I,
        a=a,
        b=b,
        checks=checks,
        all_hold=all(check[-1] for check in checks),
        skipped=skipped,
        grid=grid,
        minimal_pass=minimal,
    )


# ---------------------------------------------------------------------------
# Brute-force approximation-function lower bound
# ---------------------------------------------------------------------------

def _graded(parts, p: int) -> tuple:
    """A graded series (subspace.graded) from (degree, {key: scalar}) pairs in
    increasing degree: the scalars reduced mod p, zeros and empty degrees dropped."""
    out = []
    for e, part in parts:
        terms = [(k, r) for k, c in part.items() if (r := c % p)]
        if terms:
            out.append((e, terms))
    return tuple(out)


_ONE = ((0, ((0, 1),)),)  # the series 1, graded: label(0) = 0


class BetaResult(NamedTuple):
    value: int
    level_i: int
    explored_nodes: int
    reads: int
    state_space_size: str  # decimal, or "p^e" past 3000 digits
    solvable_classes: int


class _BetaSearch:
    """Layered exhaustive search over the truncated algebra over F_p.

    Enumerates assignments one homogeneous layer of one unknown at a time.
    Residual components below the "finality frontier" can no longer change,
    so a nonzero one fixes the residual order of the entire subtree; slots
    that cannot influence the residual at all are frozen to zero, which
    collapses classes that are equivalent by translation.

    Monomials are int keys, their labels in A^r (subspace.labeller), r the
    number of equations, computed as the search reads them: the sum of two
    keys is the key of their product whenever that has degree <= D.  A term
    of equation pidx carries that equation's component, label(1, pidx), and
    adds it to each key it writes, so the residual F(x) is one vector of A^r.

    A node pays only for the degrees its layer changes.  The residual is a
    list of D + 1 dicts, one per homogeneous degree; an assignment copies the
    list and the dicts of the degrees it writes, and the undo frame keeps the
    old list.  The residual's order is its first nonempty degree: after a
    write it is found by walking up the empty degrees from the lower of the
    old order and the least degree written, never by rescanning terms.

    The residual changes by coeff * (x_j'^a - x_j^a) * prod_{u != j} x_u^(alpha_u)
    over the system terms that contain x_j, each formed in graded form
    (subspace.graded) by _product, the (degree, part) pairs of
    subspace.graded_product at top D reduced mod p; its degrees are added to
    the residual's.  At a = 1 the difference is the layer itself.
    Only an unknown that a product reads is kept, one raised to a >= 2 or
    met in a term with another unknown: pows[u] holds x_u^k, graded, at k = 1
    and at each exponent k of x_u in the system, and is empty for every other
    unknown.  Every slot before a slot of degree d is assigned, so x_j is
    still zero there iff lb[j] == d, and x_j' = x_j + layer appends one degree.

    A layer is a tuple of (key, c) pairs, read by _layers in fp_vectors order,
    so every node count is that of a walk over fp_vectors itself.  A slot's
    first read labels its keys and streams from fp_vectors; from its second,
    each layer is one pick per key from the slot's choices, built then and
    kept for the search: one tuple per monomial, never one per layer.

    The undo stack is the walk's one stack: frame s assigns slot s, frozen to
    zero or branched on.  Slots are degree-major, so a class modulo m^(i+1) is
    the layers of the first `boundary` frames, and one depth-first _walk
    enters each class once and walks it in one stretch.  A node whose residual
    order e is fixed has no exact solution below it.  Above the boundary every
    class below it is made of its completions, none solvable, so e counts at
    once; past it, e is held for the class, dropped at the class's first
    solution (where the walk leaves the class) and counted when the undo
    leaves the class.

    The walk never branches past the cut, slot k*n.  A term c*X^alpha with
    |alpha| >= 2 meets two layers of degree >= k only at degree >= ord(c) + 2k,
    past D, so below a node with every layer of degree < k set (x0), every
    completion x0 + h has residual F(x0) + J(x0)*h mod m^(D+1): Taylor
    expansion, exact over any ring.  The first node at or past the cut that
    the walk leaves open reads its verdict (_read): the order of F(x0)'s
    remainder modulo the image of h -> J(x0)*h (_image), by
    Subspace.remainder_order.  The at-least marker is a solution; an exact
    order is the largest any completion reaches, held like a fixed order.
    The image is built again only when J(x0) changes, on an affine system never.

    An affine system (every term of degree <= 1 in X) cuts at the boundary,
    k = i + 1, and its residual is F(0) + L(x) for a linear map L: classes x0
    and x0 + kappa with L(kappa) = 0 have the same completions, F(x0 + kappa +
    h) = F(x0 + h), so the walk takes one class per coset of ker L.  The images
    L(T^m e_j) = dF/dx_j * T^m of the class coordinates go into one span,
    image, in walk order, a slot's on its first read (_keys): a coordinate is
    walked iff its insert grows the span, and the others, bound, stay zero.  A
    bound coordinate's image lies in the span of those walked before it, so
    the vectors zero at every bound coordinate meet each coset of ker L once.
    A class walked so stands for p^(class coordinates not walked on its path)
    classes: the bound ones, and on any system those of the slots frozen to
    zero.  A solvable class counts with that weight.

    A unit pair, the first a < b with alpha_a = alpha_b in every term and
    alpha_a >= 1 in some, gives F(u*x_a, x_b/u) = F(x) for every unit u of
    1 + m, so solvability and every residual order are constant on an orbit,
    and the walk takes one class per orbit.  Units keep orders, so the frozen
    slots are the same along an orbit.  The degree-e part w_e of u moves the
    layer ord(x_j) + e of each x_j of the pair by +-x_j,low * w_e, plus terms
    in w_1..w_(e-1).  It is taken up at the first of the two slots it moves,
    in slot order (_keys): there x_j,low*T^m, |m| = e, has its pivot at
    lead + label(m), lead the least key of x_j,low, and those keys are bound.
    That first slot is never frozen where the second is walked: its
    _slot_min_degree was at most the second's.  Layer by layer, one unit takes
    each class to the classes zero at every bound key, and only one, so an
    orbit holds p^(bound keys on the path) classes, the multiplication by
    x_j,low being injective.
    """

    def __init__(self, system: Sequence[PolyInX], i: int, budget: int):
        if not system:
            raise PrecondError("empty system")
        ring = system[0].ring
        if ring.char == 0:
            raise PrecondError("brute-force enumeration requires a finite field")
        n = system[0].n_unknowns
        for pys in system:
            if pys.ring != ring or pys.n_unknowns != n:
                raise PrecondError("incompatible rings")
        if not 0 <= i <= ring.trunc:
            raise PrecondError(f"approximation level {i} out of range 0..{ring.trunc}")
        self.system = list(system)
        self.ring = ring
        self.n = n
        self.i = i
        self.budget = budget
        D = ring.trunc
        self.D = D
        # the cut k (class docstring)
        k = max([i + 1] + [(D - coeff.order().value) // 2 + 1
                           for poly in system for alpha, coeff in poly.terms.items() if sum(alpha) >= 2])
        self.k = min(k, D + 1)
        self.cut = self.k * n
        self.slots = [(d, j) for d in range(D + 1) for j in range(n)]
        label = labeller(ring.num_vars, D, len(system))
        self._jac = self._img = None  # _image keeps the last J(x0)
        self.boundary = (i + 1) * n
        # an affine system walks one class per coset of its class map's kernel: the
        # span of the class coordinates' images, and each class slot's walked keys
        affine = all(sum(alpha) <= 1 for poly in system for alpha in poly.terms)
        self.image = Subspace(ring, len(system)) if affine else None
        self.walked = [None] * self.boundary
        # the unit pair (class docstring), each unknown of it mapped to the other
        alphas = [alpha for poly in system for alpha, coeff in poly.terms.items() if not coeff.is_zero]
        self.partner = next(({a: b, b: a} for a, b in combinations(range(n), 2)
                             if any(alpha[a] for alpha in alphas) and all(alpha[a] == alpha[b] for alpha in alphas)),
                            {})
        # per unknown j, the system terms containing it, each as (its equation's
        # component label(1, pidx), graded coeff or None for 1, its coefficient's
        # order, alpha_j, ((u, alpha_u) for the other unknowns))
        self.terms = [[] for _ in range(n)]
        one = TruncatedSeries.one(ring)
        for pidx, poly in enumerate(self.system):
            comp = label((0,) * ring.num_vars, pidx)
            for alpha, coeff in poly.terms.items():
                if coeff.is_zero:
                    continue
                form = None if coeff == one else graded(coeff, label)  # 1: no product
                for j, aj in enumerate(alpha):
                    if aj:
                        others = tuple((u, a) for u, a in enumerate(alpha) if a and u != j)
                        self.terms[j].append((comp, form, coeff.order().value, aj, others))
        self.choices = [None] * len(self.slots)  # per slot: None unread, () read once, then built by _layers
        self.space = (ring.char, n * comb(ring.num_vars + D, D))  # raw space F_p^e
        self.nodes = 0
        self.reads = 0
        self.solvable = 0  # classes modulo m^(i+1) that hold an exact solution
        self.unwalked = 0  # class coordinates not walked on the path: a class weighs p^unwalked
        self.best = -1
        self.held = -1  # the largest fixed order met in the current class, past the boundary
        # mutable search state, from x = 0: the residual F(0), the X-free terms, as
        # D + 1 dicts, one per degree, degree d holding the labels from d*step on
        f0 = [poly.terms.get((0,) * n, TruncatedSeries.zero(ring)) for poly in system]
        step, self.res = len(system) * (D + 1) ** ring.num_vars, [{} for _ in range(D + 1)]
        for k, c in series_to_vec(f0, ring).items():
            self.res[k // step][k] = c
        self.ord = next((e for e, part in enumerate(self.res) if part), D + 1)  # first nonempty degree
        # pows[u][k] = x_u^k, graded, for k = 1 and each exponent k of x_u in the
        # system, kept only for an unknown that a product reads
        self.pows = [dict.fromkeys({1, *(t[3] for t in terms)}, ())
                     if any(aj >= 2 or others for _, _, _, aj, others in terms) else {} for terms in self.terms]
        # lb[u]: the order of x_u once it is nonzero, before that its next layer's
        # degree; a lower bound for the order of every completion of x_u
        self.lb = [0] * n
        self._frames = []

    # -- bookkeeping -------------------------------------------------------
    def _slot_min_degree(self, j: int, d: int) -> int:
        best = self.D + 1
        lb = self.lb
        for _, _, cord, aj, others in self.terms[j]:
            s = cord + d + (aj - 1) * lb[j]
            for u, a in others:
                s += a * lb[u]
            if s < best:
                best = s
        return best

    def _width(self, d: int) -> int:
        """The number of monomials of degree d."""
        return len(monomials_of_degree(self.ring.num_vars, d))

    def _keys(self, slot_idx: int) -> tuple:
        """The keys a slot walks at this node: its monomials' labels in increasing
        order, less, in a class slot of an affine system or of a unit pair, the
        bound ones (class docstring).  An affine class slot's keys are kept from its
        first read, when its images enter the span; a pair's follow x_j."""
        d, j = self.slots[slot_idx]
        labels = degree_labels(self.ring.num_vars, self.D, len(self.system), d)
        if slot_idx >= self.boundary:
            return labels
        q = self.partner.get(j)
        if q is not None:
            e = d - self.lb[j]  # > 0 iff x_j is nonzero below d, of order lb[j]
            if not e or (self.lb[q] + e) * self.n + q < slot_idx:  # w_e taken up at the partner's slot
                return labels
            lead = min(k for k, _ in self.pows[j][1][0][1])
            bound = {lead + s for s in degree_labels(self.ring.num_vars, self.D, len(self.system), e)}
            return tuple(k for k in labels if k not in bound)
        if self.image is None:
            return labels
        keys = self.walked[slot_idx]
        if keys is None:
            g = self._jacobian()[j]  # dF/dx_j, the same at every x0
            keys = self.walked[slot_idx] = tuple(s for s in labels if self.image.insert(self._column(g, d, s)))
        return keys

    def _layers(self, slot_idx: int, keys: tuple):
        """Every layer of the slot over keys (_keys) in fp_vectors order, each a
        tuple of (key, c) pairs.

        The first read streams from fp_vectors, so a slot that the walk reads
        once keeps nothing.  The second builds the slot's choices, kept for
        the search: one (None, (k, 1), ..., (k, p - 1)) per monomial label k of
        the slot.  A layer is then one pick per key, the last key varying
        fastest, less the Nones."""
        choices = self.choices[slot_idx]
        if choices is None:
            self.choices[slot_idx] = ()
            return (tuple(v.items()) for v in fp_vectors(keys, self.ring.char))
        if not choices:
            labels = degree_labels(self.ring.num_vars, self.D, len(self.system), self.slots[slot_idx][0])
            pairs = (zip(labels, repeat(c)) for c in range(1, self.ring.char))
            choices = self.choices[slot_idx] = dict(zip(labels, zip(repeat(None), *pairs)))
        return map(tuple, map(filter, repeat(None), cartesian_product(*map(choices.get, keys))))

    def _product(self, a: tuple, b: tuple) -> tuple:
        """a * b for two graded series, cut at degree D; a zero factor, (), is the product."""
        return a and b and _graded(graded_product(a, b, self.D), self.ring.char)

    def _difference(self, a: tuple, b: tuple) -> tuple:
        """a - b for two graded series."""
        p, out = self.ring.char, {e: dict(ta) for e, ta in a}
        for e, tb in b:
            sub_multiple(out.setdefault(e, {}), dict(tb), 1, p)
        return _graded(sorted(out.items()), p)

    def _assign(self, slot_idx: int, layer: tuple, skipped: int):
        """Give the slot's unknown x_j its layer of degree d; skipped counts the
        slot's class coordinates that the walk leaves zero without walking them."""
        d, j = self.slots[slot_idx]
        old_pows = self.pows[j]
        self._frames.append((j, old_pows, self.res, self.ord, self.lb[j], self.unwalked))
        self.unwalked += skipped
        if not layer:
            if self.lb[j] == d:  # x_j is still zero
                self.lb[j] = d + 1
            return
        D, p = self.D, self.ring.char
        res, low = list(self.res), D + 1  # low: the least degree written
        product, step = self._product, ((d, layer),)
        if old_pows:  # x_j is kept: a term with a >= 2 reads new_pows, one of another unknown pows[j]
            new_x = old_pows[1] + step  # every degree of x_j is below d
            new_pows = self.pows[j] = {k: power(new_x, k, None, product) for k in old_pows}  # k >= 1: no `one`
        pows = self.pows
        for comp, coeff, _, aj, others in self.terms[j]:
            # x_j'^a - x_j^a; the layer's monomials are new to x_j, so x_j' - x_j is the layer
            term = self._difference(new_pows[aj], old_pows[aj]) if aj > 1 else step
            if coeff:
                term = product(coeff, term)
            for u, a in others:
                if not term:
                    break
                term = product(term, pows[u][a])
            if not term:
                continue
            low = min(low, term[0][0])
            for e, items in term:
                res[e] = part = dict(res[e])
                for k, v in items:
                    k += comp
                    s = (part.get(k, 0) + v) % p
                    if s:
                        part[k] = s
                    else:
                        del part[k]
        # below the lower of the old order and the least degree written, every
        # degree is still empty: the order is the first nonempty one from there
        o = min(self.ord, low)
        while o <= D and not res[o]:
            o += 1
        self.res, self.ord = res, o

    def _undo(self):
        j, self.pows[j], self.res, self.ord, self.lb[j], self.unwalked = self._frames.pop()
        if len(self._frames) < self.boundary:  # the walk leaves its class
            self.best = max(self.best, self.held)
            self.held = -1

    def _advance_auto(self, slot_idx: int) -> tuple:
        """Freeze to zero the slots that cannot reach the residual; returns the next
        slot and its floor (D + 1 past the last slot)."""
        while slot_idx < len(self.slots):
            d, j = self.slots[slot_idx]
            floor = self._slot_min_degree(j, d)
            if floor <= self.D:
                return slot_idx, floor
            self._assign(slot_idx, (), self._width(d) if slot_idx < self.boundary else 0)
            slot_idx += 1
        return slot_idx, self.D + 1

    def _finality(self, slot_idx: int, floor: int) -> int:
        """Least residual degree any remaining slot can still change; floor is the
        first remaining slot's _slot_min_degree.

        _slot_min_degree(j, d) is nondecreasing in d and the slots are
        degree-major, so each unknown's first remaining slot, among the next
        n slots, carries its minimum over all of its remaining ones.
        """
        best = floor
        for d, j in self.slots[slot_idx + 1:slot_idx + self.n]:
            s = self._slot_min_degree(j, d)
            if s < best:
                best = s
        return best

    def _fixed_order(self, slot_idx: int, floor: int) -> Optional[int]:
        """Least order of a residual term that no remaining slot can change, or None."""
        o = self.ord
        return o if o < floor and o < self._finality(slot_idx, floor) else None

    # -- the affine read past the cut -------------------------------------------
    def _jacobian(self) -> list:
        """dF/dx_j at x0 for each unknown j: a vector of A^r, r the number of equations
        and equation pidx its component, graded (subspace.graded) on its labels in
        A^r, each term's component added to its keys.  Each term of x_j gives
        a_j * coeff * x_j^(a_j - 1) * prod x_u^(a_u), the powers read from pows:
        a term linear in x_j with no other unknown gives its coefficient."""
        p, pows, product = self.ring.char, self.pows, self._product
        jac = []
        for j in range(self.n):
            parts = {}
            for comp, coeff, _, aj, others in self.terms[j]:
                term = product(coeff or _ONE, ((0, ((0, aj),)),))  # () when p divides a_j
                for u, a in ((j, aj - 1), *others):
                    if a:
                        term = product(term, pows[u][a] if a in pows[u] else power(pows[u][1], a, None, product))
                for e, items in term:
                    sub_multiple(parts.setdefault(e, {}), {k + comp: c for k, c in items}, -1, p)
            jac.append(tuple((e, tuple(parts[e].items())) for e in sorted(parts) if parts[e]))
        return jac

    def _column(self, g: tuple, t: int, s: int) -> dict:
        """g * T^m, cut at D, for a vector g of A^r graded as _jacobian gives it and a
        monomial m of degree t, s = label(m)."""
        return {key + s: c for e, items in g if e + t <= self.D for key, c in items}

    def _image(self, jac: list) -> Subspace:
        """The image of h -> J(x0)*h on the layers of degree k..D: dF/dx_j(x0) * T^m for
        each unknown j and monomial m of degree k..D, highest degree first (as
        insert_multiples).  The last one is kept and read again while J(x0) is
        unchanged, as at every read of an affine system."""
        if jac != self._jac:
            self._jac, self._img = jac, Subspace(self.ring, len(self.system))
            for g in jac:
                for t in range(self.D, self.k - 1, -1):
                    for s in degree_labels(self.ring.num_vars, self.D, len(self.system), t):
                        self._img.insert(self._column(g, t, s))
        return self._img

    def _read(self) -> Optional[int]:
        """The largest residual order of a completion x0 + h of this node, None if one
        solves the system: the order of F(x0)'s remainder modulo the image of J(x0)
        (_image), read off the residual's own degree dicts, which remainder_order
        does not write.  The at-least marker, a zero remainder, is a solution; a
        zero F(x0) reads nothing."""
        if self.ord > self.D:
            return None
        self.reads += 1
        self._charge()
        order = self._image(self._jacobian()).remainder_order(enumerate(self.res))
        return order.value if order.exact else None

    # -- the one depth-first walk ---------------------------------------------
    def _charge(self):
        """Refuse the search once its nodes and reads pass the budget."""
        if self.nodes + self.reads > self.budget:
            raise BudgetError(
                f"enumeration budget {self.budget} exhausted after {self.nodes} nodes and {self.reads} "
                "reads; raw state space has size %d^%d" % self.space
            )

    def _walk(self):
        """Depth-first from the root, counting every node against the budget.

        Frame s of the undo stack assigns slot s, frozen to zero or branched on;
        untried[s] holds the layers left at a branched slot, None at a frozen
        one and at one the walk has left.  Past the frozen slots, _visit ends
        the node with a verdict, or returns None to branch on the slot.  On a
        verdict the walk undoes frames down to the last slot with a layer left
        and tries that layer.  A True verdict, a solvable read, also drops the
        layers left past the boundary, at degree > i, so the walk goes on at
        the next class; below the boundary it drops none, so a slot with no
        layer left passes on whichever verdict reached it.
        """
        frames, boundary = self._frames, self.boundary
        untried = [None] * (len(self.slots) + 1)  # _advance_auto may stop past the last slot
        skipped = [0] * len(self.slots)  # per branched slot, its monomials that its keys leave out
        slot_idx = 0
        while True:
            self.nodes += 1
            self._charge()
            slot_idx, floor = self._advance_auto(slot_idx)
            verdict = self._visit(slot_idx, floor)
            if verdict is None:
                keys = self._keys(slot_idx)
                untried[slot_idx] = self._layers(slot_idx, keys)
                skipped[slot_idx] = self._width(self.slots[slot_idx][0]) - len(keys)
            while True:
                layers = untried[slot_idx]
                if layers is not None and not (verdict and slot_idx >= boundary):
                    layer = next(layers, None)
                    if layer is not None:
                        break
                untried[slot_idx] = None
                if not frames:
                    return
                self._undo()
                slot_idx = len(frames)
            self._assign(slot_idx, layer, skipped[slot_idx])
            slot_idx += 1

    def _visit(self, slot_idx: int, floor: int):
        e = self._fixed_order(slot_idx, floor)
        if e is None and slot_idx >= self.cut:  # the read: no branching past the cut
            e = self._read()
            if e is None:  # a completion solves the system: its class is solvable
                self.solvable += self.ring.char ** self.unwalked
                self.held = -1
                return True
        if e is not None:  # no completion solves the system, and e is the largest order one reaches
            if slot_idx < self.boundary:
                self.best = max(self.best, e)
            else:
                self.held = max(self.held, e)
            return False
        return None

    def run(self) -> BetaResult:
        self._walk()
        size = fp_space_size(*self.space, 10**3000 - 1)  # decimal up to 3000 digits
        return BetaResult(
            value=max(self.best, self.held, 0),  # with no unknown, the one class is never left
            level_i=self.i,
            explored_nodes=self.nodes,
            reads=self.reads,
            state_space_size="%d^%d" % self.space if size is None else str(size),
            solvable_classes=self.solvable,
        )


def beta_lower_bound_bruteforce(system: Sequence[PolyInX], i: int, budget: int = 2_000_000) -> BetaResult:
    """Smallest beta such that residual order >= beta+1 forces an exact solution
    within m^(i+1), computed in the truncated algebra.

    Truncated solvability is weaker than true solvability, so the result is a
    certified lower bound for the untruncated approximation function.
    """
    return _BetaSearch(system, i, budget).run()
