"""Quadratic lower-bound witnesses for X1*X2 - X3*X4 and exhaustive
irreducibility certificates for the perturbed product T1*T2 - T3^i.

The witness family (T1^i, T2^i, T1*T2 - T3^i, x4) satisfies
x1*x2 - x3*x4 = T3^(i^2) exactly, where x4 is the binomial cofactor of
(x3 + T3^i)^i.  Combined with the fact that nothing congruent to x3 modulo
m^(i+1) factors into non-units, this pins the approximation function of the
quadric below by i -> i^2 - 1.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple, Optional

from .errors import BudgetError, PrecondError
from .series import ExtOrder, RingSpec, TruncatedSeries, _is_prime, fp_space_size, fp_vectors, sub_multiple
from .subspace import LinearMap, degree_labels, graded, graded_product, labeller, vec_to_series


class WitnessFamily(NamedTuple):
    i: int
    x1: TruncatedSeries
    x2: TruncatedSeries
    x3: TruncatedSeries
    x4: TruncatedSeries
    residual: TruncatedSeries
    residual_order: ExtOrder
    char_note: Optional[str] = None


def monomial_witness_family(i: int, ring: RingSpec) -> WitnessFamily:
    """x1 = T1^i, x2 = T2^i, x3 = T1*T2 - T3^i, x4 the closed-form cofactor.

    x4 = sum_{k=1..i} C(i,k) * x3^(k-1) * T3^(i*(i-k)), so that
    x3*x4 + T3^(i^2) = (x3 + T3^i)^i = (T1*T2)^i = x1*x2 holds identically in
    any characteristic; the binomial expansion avoids dividing by a non-unit.
    """
    if ring.num_vars < 3:
        raise PrecondError("witness family needs at least 3 variables")
    if i < 1:
        raise PrecondError("witness index i must be >= 1")
    if i * i > ring.trunc:
        raise PrecondError("truncation too small")
    N = ring.num_vars

    def mono(e1, e2, e3, coeff=1):
        exps = [0] * N
        exps[0], exps[1], exps[2] = e1, e2, e3
        return TruncatedSeries.monomial(ring, exps, coeff)

    x1 = mono(i, 0, 0)
    x2 = mono(0, i, 0)
    x3 = mono(1, 1, 0) - mono(0, 0, i)
    x4 = TruncatedSeries.zero(ring)
    x3_pow = TruncatedSeries.one(ring)
    for k in range(1, i + 1):
        x4 = x4 + (x3_pow * mono(0, 0, i * (i - k))).scale(comb(i, k))
        x3_pow = x3_pow * x3
    residual = x1 * x2 - x3 * x4
    expected = mono(0, 0, i * i)
    if residual != expected:
        raise PrecondError("witness self-check failed: the residual is not T3^(i^2)")
    note = None
    if ring.char:
        dead = [k for k in range(1, i) if comb(i, k) % ring.char == 0]
        if dead:
            note = (
                f"characteristic {ring.char} kills the binomial coefficients C({i},k) "
                f"for k in {dead}; the residual identity still holds"
            )
    return WitnessFamily(i, x1, x2, x3, x4, residual, residual.order(), note)


class IrreducibilityCertificate(NamedTuple):
    i: int
    p: int
    search_space_size: int
    factorizations_found: int
    method: str


def _factorization_scan(target: dict, i: int, p: int, budget: int):
    """Count pairs of non-units with x*y congruent to `target` modulo m^(i+1),
    over F_p: (size of the space searched, count, first pair found).

    Non-units are determined modulo m^(i+1) by their homogeneous layers of
    degrees 1..i-1: anything deeper meets the other factor's order >= 1 and
    lands beyond degree i, so the space is F_p^e with e = 2 * sum of the layer
    dimensions.  The scan walks the layers in lockstep, each depth one linear
    solve (LinearMap) for the layers that give the product its next degree: at
    depth 1, for each x_1, the y_1 with x_1*y_1 the degree-2 target; at depth
    d >= 2, degree d+1 of x*y is x_1*y_d + y_1*x_d plus fixed terms, so the
    (x_d, y_d) that fit are a particular solution plus the kernel's span.  As
    coefficient lists, x_d then y_d, in increasing order they come in the order
    of a loop over fp_vectors, so the first pair found is that loop's.
    Monomials are labels (subspace.labeller), also the rows of each map.  The
    target is filed by degree once (subspace.graded), as the layers are, and
    x_u * y_v is the one (u + v, part) pair of subspace.graded_product at top i.
    """
    e = 2 * sum(comb(d + 2, 2) for d in range(1, i))
    # a p >= 2 meets the size gate first: trial division of a p too large to search is slow
    if p >= 2 and (size := fp_space_size(p, e, budget)) is None:
        raise BudgetError(f"search space has size {p}^{e} > budget {budget}")
    if not _is_prime(p):
        raise PrecondError(f"p = {p} is not a prime; the certificate is over the field F_p")
    ring = RingSpec(3, p, i)
    layer_keys = {d: degree_labels(3, i, 1, d) for d in range(1, i + 1)}
    filed = dict(graded(TruncatedSeries(ring, target), labeller(3, i, 1)))  # degree -> the target's terms

    def layer(terms, d):
        """The layer of degree d with these (key, c) terms, in graded form."""
        return ((d, terms),) if terms else ()

    def times(form, d):
        """The columns of u -> x * u on the layers u of degree d, x a linear layer."""
        return [{k + ku: c for _, terms in form for k, c in terms} for ku in layer_keys[d]]

    def fits(graph, need, d):
        """The solutions of graph = need, a particular one plus the kernel's span, in
        increasing order of their coefficient lists, each cut into layers of degree d."""
        sol = graph.solve(need)
        out = [] if sol is None else [sol]
        for k in graph.kernel():
            out = [[(a + c * b) % p for a, b in zip(v, k)] for v in out for c in range(p)]
        keys = layer_keys[d]
        return [[layer(tuple((k, c) for k, c in zip(keys, v[j:]) if c), d) for j in range(0, len(v), len(keys))]
                for v in sorted(out)]

    found, counterexample = 0, None
    maps = {}  # depth -> its map, which reads x_1 and y_1 only: cleared at each depth-1 pair

    def dfs(xl, yl):
        nonlocal found, counterexample
        # xl, yl: the layers of degrees 1..depth-1, graded; product checked through degree depth
        depth = len(xl) + 1
        if depth == i:
            found += 1
            if counterexample is None:
                counterexample = tuple({d: vec_to_series(dict(form[0][1] if form else ()), ring, 1)[0].terms
                                        for d, form in enumerate(ls, 1)} for ls in (xl, yl))
            return
        # degree depth+1 of x*y is sum_{u=1..depth} x_u * y_(depth+1-u); the terms
        # u = 2..depth-1 are fixed, so they are taken off the target here
        need = dict(filed.get(depth + 1, ()))
        for u in range(2, depth):
            for _, part in graded_product(xl[u - 1], yl[depth - u], i):
                sub_multiple(need, part, 1, p)
        if depth == 1:
            firsts = (layer(tuple(v.items()), 1) for v in fp_vectors(layer_keys[1], p))
            pairs = ((x1, y1) for x1 in firsts for (y1,) in fits(LinearMap(times(x1, 1), ring), need, 1))
        else:
            if depth not in maps:
                maps[depth] = LinearMap(times(yl[0], depth) + times(xl[0], depth), ring)
            pairs = fits(maps[depth], need, depth)
        for x, y in pairs:
            if depth == 1:
                maps.clear()
            dfs(xl + [x], yl + [y])

    dfs([], [])
    return size, found, counterexample


def irreducibility_exhaustive(i: int, p: int, budget: int = 10_000_000) -> IrreducibilityCertificate:
    """Certify that no pair of non-units multiplies to T1*T2 - T3^i modulo m^(i+1)."""
    if i < 2:
        raise PrecondError("need i >= 2 (for i=1 the product T1*T2 - T3 has unit cofactors)")
    target = {(1, 1, 0): 1, (0, 0, i): -1}
    size, found, _ = _factorization_scan(target, i, p, budget)
    return IrreducibilityCertificate(
        i=i,
        p=p,
        search_space_size=size,
        factorizations_found=found,
        method=(
            "exhaustive over non-unit pairs determined by homogeneous layers of degrees "
            f"1..{i - 1}, refined layer by layer with early rejection"
        ),
    )


class LowerBoundReport(NamedTuple):
    i_max: int
    families: list  # WitnessFamily per i
    certificates: list  # IrreducibilityCertificate per feasible (i, p)
    statement: str


def lower_bound_certificate(
    i_max: int,
    ring: RingSpec,
    certificate_primes=(2, 3),
    budget: int = 10_000_000,
) -> LowerBoundReport:
    """Bundle the two ingredients of the quadratic lower bound per index i:
    the witness family with residual order exactly i^2, and, where an
    exhaustive finite-field check fits the budget, the no-factorization
    certificate for the perturbed product."""
    if i_max < 1:
        raise PrecondError("i_max must be >= 1")
    if i_max * i_max > ring.trunc:
        raise PrecondError("truncation too small")
    families = [monomial_witness_family(i, ring) for i in range(1, i_max + 1)]
    certs = []
    for i in range(2, i_max + 1):
        for p in certificate_primes:
            try:
                certs.append(irreducibility_exhaustive(i, p, budget=budget))
            except BudgetError:  # the space exceeds the budget: no certificate at (i, p)
                continue
    statement = (
        f"for each certified i <= {i_max} the family gives a residual of order exactly i^2 "
        "while every non-unit factorization of the third coordinate is excluded modulo "
        "m^(i+1); together these force the approximation function of X1*X2 - X3*X4 "
        "to be at least i^2 - 1"
    )
    return LowerBoundReport(i_max=i_max, families=families, certificates=certs, statement=statement)
