"""Order functions on truncated quotients: nu, its Rees limit, and ICL scans.

For an ideal I of the truncated ring, nu(x) = max{ n : x in I + m^n } is the
m-adic order of the image of x in A/I.  A complementary linear inequality
(ICL) bounds nu(g*h) <= a*(nu(g)+nu(h)) + b; these scans search for the
smallest b at a fixed slope a over a finite candidate set, which certifies
the constants up to the scan degree, never beyond it.
"""

from __future__ import annotations

import heapq
import random
from fractions import Fraction
from itertools import chain
from typing import NamedTuple, Optional

from .errors import BudgetError, PrecondError
from .series import ExtOrder, RingSpec, TruncatedSeries, fp_space_size, fp_vectors, monomials_up_to
from .subspace import IdealSpec, distance_order, graded, graded_product, labeller, member, span_ideal

# the slopes a of the paper's grid, shared by the ICL envelope and stable-ar
SLOPE_GRID = (Fraction(1), Fraction(3, 2), Fraction(2))


class NuOracle:
    """Per-ideal cache answering nu queries and sound membership checks."""

    def __init__(self, I: IdealSpec):
        self.ideal = I
        self.ring = I.ring
        self.span = span_ideal(I)
        self._sound = None

    def nu(self, x: TruncatedSeries) -> ExtOrder:
        return distance_order(x, self.span)

    def sound_member(self, x: TruncatedSeries) -> bool:
        """Membership certified without truncation interference.

        Products u*g with deg(u) + deg(g) <= D lose no terms, so membership in
        their span implies membership in the untruncated ideal.
        """
        if self._sound is None:
            self._sound = span_ideal(self.ideal, sound=True)
        return member(x, self._sound)


def nu(I: IdealSpec, x: TruncatedSeries) -> ExtOrder:
    return NuOracle(I).nu(x)


class NuBarReport(NamedTuple):
    """Certified lower estimate of the Rees order lim nu(x^n)/n."""

    estimate: Fraction
    samples: list  # (n, ExtOrder of x^n)
    nu_x: ExtOrder
    flags: list


def nu_bar_estimate(I: IdealSpec, x: TruncatedSeries, n_max: int) -> NuBarReport:
    """max over 1 <= n <= n_max of nu(x^n)/n.

    Superadditivity of n -> nu(x^n) makes every sample point a certified
    lower bound for the limit, so the max is one as well.  Past n = D+1, x^n
    is 0 for a non-unit and a unit for a unit: no later sample can change it.
    """
    if x.is_zero:
        raise PrecondError("nu-bar estimate of zero undefined")
    if n_max < 1:
        raise PrecondError("n_max must be >= 1")
    D = I.ring.trunc
    if n_max > D + 1:
        raise PrecondError("need n_max <= trunc + 1: no later sample can change the estimate")
    oracle = NuOracle(I)
    samples = []
    flags = []
    best = Fraction(0)
    power = TruncatedSeries.one(I.ring)
    for n in range(1, n_max + 1):
        power = power * x
        v = oracle.nu(power)
        samples.append((n, v))
        if v.exact:
            best = max(best, Fraction(v.value, n))
        else:
            flags.append(f"nu(x^{n}) is only known to be >= {v.value}; sample skipped")
    if n_max * best > D:
        flags.append("truncation-limited: n_max * estimate exceeds the truncation order")
    return NuBarReport(estimate=best, samples=samples, nu_x=samples[0][1], flags=flags)


class IclReport(NamedTuple):
    """Scan-certified ICL constants for a fixed slope a."""

    ideal: IdealSpec
    a: Fraction
    b_min: Optional[Fraction]  # None means unbounded-at-truncation
    attaining_pairs: list  # (g, h, nu_g, nu_h, nu_gh)
    violations: list  # (g, h, nu_g, nu_h) with g*h certified inside the ideal
    scan_degree: int
    certified_note: str
    seed: Optional[int]
    mode: str
    pair_count: int
    skipped: list  # (g, h, nu_g, nu_h, nu_gh) with nu_gh beyond the truncation


def scan_candidates(
    ring: RingSpec,
    deg_max: int,
    mode: str = "random",
    count: int = 40,
    seed: int = 0,
    budget: int = 200_000,
) -> list:
    """Deterministic candidate pool: the distinct nonzero series of one stream of
    draws, in order.  Exhaustive (finite field, space within budget): every field
    vector on the monomials of degree <= deg_max.  Random: every monomial of degree
    1..deg_max, then at most 50*(count+1) seeded random series, up to count new,
    stopping early once no series is left that a draw could give.
    Either pool is refused before the first draw when it may exceed the budget:
    p^e > budget, or count > budget."""
    supp = list(monomials_up_to(ring.num_vars, deg_max))
    out = []
    if mode == "exhaustive":
        if ring.char == 0:
            raise PrecondError("exhaustive sampling requires a finite field")
        if fp_space_size(ring.char, len(supp), budget) is None:
            size = f"{ring.char}^{len(supp)}"
            raise BudgetError(f"exhaustive candidate space has size {size} > budget {budget}")
        stream = fp_vectors(supp, ring.char)
    elif mode == "random":
        if count > budget:
            raise BudgetError(f"random candidate count {count} > budget {budget}")
        monos = [m for m in supp if sum(m) >= 1]
        # a draw leaves each monomial out or gives it one of p - 1 residues (six
        # integers over Q), so the stream holds at most p^e - 1 (7^e - 1) series
        size = fp_space_size(ring.char or 7, len(supp), len(monos) + count)
        full = len(monos) + count if size is None else size - 1

        def draws():  # the stop test comes before each draw, so no draw is wasted
            rng = random.Random(seed)
            for _ in range(50 * (count + 1)):
                if len(out) == full:
                    return
                yield {m: rng.randrange(1, ring.char) if ring.char else rng.choice([-3, -2, -1, 1, 2, 3])
                       for m in supp if rng.random() < 0.35}

        stream = chain(({m: 1} for m in monos), draws())
    else:
        raise PrecondError(f"unknown sampling mode {mode!r}")
    seen = set()
    for terms in stream:
        s = TruncatedSeries(ring, terms)
        key = tuple(s.sorted_terms())
        if key not in seen and not s.is_zero:
            seen.add(key)
            out.append(s)
    return out


def _scan_pairs(I, deg_max, mode, count, seed, budget):
    """One lazy pass over the candidate pairs with exact orders: (oracle, candidates,
    rows, pair count), the candidates those of exact order, rows yielding
    (g, h, nu_g, nu_h, nu_gh, g*h) per pair.

    A factor with a nonzero constant term is a unit of A_D, and I + m^n is an
    ideal, so g*h lies in I + m^n iff the other factor does: nu_gh is read off
    the other factor's order, with no product.  Every other nu_gh is read
    (Subspace.remainder_order) off the (degree, part) pairs of g*h as
    subspace.graded_product yields them at top D, from ord(g)+ord(h) on, so g*h
    is built only up to its order.  The full product is formed only where nu_gh
    is inexact, the one case that looks at it again.  A scan with more pairs
    than the budget is refused before its first pair."""
    if deg_max < 1:
        raise PrecondError("deg_max must be >= 1: the candidates have degree 1..deg_max")
    ring = I.ring
    if 2 * deg_max > ring.trunc:
        raise PrecondError("need 2*deg_max <= trunc so products keep meaningful orders")
    cands = scan_candidates(ring, deg_max, mode, count, seed, budget)
    oracle = NuOracle(I)
    live = [(g, v) for g, v in zip(cands, map(oracle.nu, cands)) if v.exact]
    npairs = len(live) * (len(live) + 1) // 2
    if npairs > budget:
        raise BudgetError(f"pair scan has {npairs} pairs > budget {budget}")
    D = ring.trunc
    label = labeller(ring.num_vars, D, 1)
    forms = [graded(g, label) for g, _ in live]
    units = [G[0][0] == 0 for G in forms]  # a nonzero constant term

    def rows():
        for i, (g, ng) in enumerate(live):
            for j in range(i, len(live)):
                h, nh = live[j]
                if units[i]:
                    yield g, h, ng, nh, nh, None
                elif units[j]:
                    yield g, h, ng, nh, ng, None
                else:
                    ngh = oracle.span.remainder_order(graded_product(forms[i], forms[j], D))
                    yield g, h, ng, nh, ngh, None if ngh.exact else g * h
    return oracle, [g for g, _ in live], rows(), npairs


def _icl_reports(I, deg_max, slopes, mode, count, seed, budget) -> list:
    """One IclReport per slope, all read off a single pass over the pairs.

    Violations and skipped pairs do not depend on the slope.  An exact pair's
    excess at a = p/q, q*nu(gh) - p*(nu(g) + nu(h)), depends only on its key
    (nu(g) + nu(h), nu(gh)), so each slope reads b = max(0, largest excess)
    off the keys, and its attaining pairs off the keys whose excess is b.
    """
    oracle, cands, rows, npairs = _scan_pairs(I, deg_max, mode, count, seed, budget)
    filed = {}  # (nu(g) + nu(h), nu(gh)) -> the exact pairs with those orders
    violations = []
    skipped = []
    for g, h, ng, nh, ngh, gh in rows:
        if ngh.exact:
            filed.setdefault((ng.value + nh.value, ngh.value), []).append((g, h, ng, nh, ngh))
        elif oracle.sound_member(gh):
            violations.append((g, h, ng, nh))
        else:
            skipped.append((g, h, ng, nh, ngh))
    note = (
        f"constants certified for the scanned pairs only (factors of degree <= {deg_max}, "
        f"truncation {I.ring.trunc}); no claim beyond the scan"
    )
    # simplest witnesses first: fewest terms, then lowest degree, then text, read as the
    # candidate's rank in text order (distinct candidates print distinct texts: no tie);
    # a violation leaves every slope without attaining pairs, so nothing to rank
    ranked = [] if violations else sorted(cands, key=TruncatedSeries.to_str)
    shapes = {id(s): (len(s.terms), s.max_degree(), r) for r, s in enumerate(ranked)}

    def simplest(t):
        (ng, dg, rg), (nh, dh, rh) = shapes[id(t[0])], shapes[id(t[1])]
        return (ng + nh, dg + dh, rg, rh)

    reports = []
    for a in slopes:
        b_best = None  # a violation leaves no finite b
        attaining = []
        if not violations:
            # ngh - a*(ng + nh) for a = p/q, scaled by q to stay an int
            p, q = a.numerator, a.denominator
            excess = {(total, ngh): q * ngh - p * total for total, ngh in filed}
            best = max([0, *excess.values()])
            b_best = Fraction(best, q)
            attaining = heapq.nsmallest(
                8, chain.from_iterable(filed[key] for key, e in excess.items() if e == best), key=simplest)
        reports.append(IclReport(I, a, b_best, attaining, list(violations), deg_max, note,
                                 seed, mode, npairs, list(skipped)))
    return reports


def icl_scan(
    I: IdealSpec,
    deg_max: int,
    a: Fraction = Fraction(1),
    mode: str = "random",
    count: int = 40,
    seed: int = 0,
    budget: int = 200_000,
) -> IclReport:
    """Fix the slope a and scan for the smallest additive constant b.

    Pairs whose product is certified inside the ideal while both factors have
    finite order are genuine zero-divisor witnesses in the quotient and are
    reported as violations (no finite b exists).  Pairs whose product merely
    sinks below the truncation horizon are skipped and listed.
    """
    a = Fraction(a)
    if a < 1:
        raise PrecondError("ICL slope a must be >= 1")
    return _icl_reports(I, deg_max, (a,), mode, count, seed, budget)[0]


def icl_envelope(
    I: IdealSpec,
    deg_max: int,
    mode: str = "random",
    count: int = 40,
    seed: int = 0,
    budget: int = 200_000,
) -> list:
    """Lower envelope of (a, b_min) over the standard slope grid, from one scan."""
    return _icl_reports(I, deg_max, SLOPE_GRID, mode, count, seed, budget)


class ValuationReport(NamedTuple):
    is_valuation: bool
    counterexample: Optional[tuple]  # (g, h, nu_g, nu_h, nu_gh or None)
    scan_degree: int
    pair_count: int
    seed: Optional[int]


def valuation_check(
    I: IdealSpec,
    deg_max: int,
    mode: str = "random",
    count: int = 40,
    seed: int = 0,
    budget: int = 200_000,
) -> ValuationReport:
    """True iff nu(g*h) = nu(g) + nu(h) on every scanned pair with decidable orders."""
    _, _, rows, npairs = _scan_pairs(I, deg_max, mode, count, seed, budget)
    D = I.ring.trunc
    for g, h, ng, nh, ngh, gh in rows:
        total = ng.value + nh.value
        if ngh.exact:
            if ngh.value != total:
                return ValuationReport(False, (g, h, ng, nh, ngh), deg_max, npairs, seed)
        else:
            # product sank below the horizon although the sum is visible: strict gap
            if total <= D:
                return ValuationReport(False, (g, h, ng, nh, ngh), deg_max, npairs, seed)
    return ValuationReport(True, None, deg_max, npairs, seed)
