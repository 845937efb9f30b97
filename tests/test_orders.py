import hashlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from artinlab import orders
from artinlab.errors import BudgetError, PrecondError
from artinlab.orders import (
    SLOPE_GRID,
    NuOracle,
    icl_envelope,
    icl_scan,
    nu,
    nu_bar_estimate,
    scan_candidates,
    valuation_check,
)
from artinlab.series import ExtOrder, RingSpec, TruncatedSeries, monomials_up_to
from artinlab.subspace import (
    IdealSpec,
    ModuleSpec,
    Subspace,
    distance_order,
    graded,
    graded_product,
    labeller,
    series_to_vec,
    span_ideal,
    span_module,
    vec_to_series,
)
from artinlab.parsing import parse_poly


def cusp_ring(D=8):
    R = RingSpec(2, 0, D)
    return R, IdealSpec.of(R, [parse_poly("T1^2 - T2^3", R)])


def test_nu_values_cusp():
    R, I = cusp_ring()
    t1 = parse_poly("T1", R)
    assert nu(I, t1) == ExtOrder.of(1)
    assert nu(I, t1**2) == ExtOrder.of(3)
    member = parse_poly("(T1^2 - T2^3)*(1 + T1)", R)
    assert nu(I, member) == ExtOrder.at_least(R.trunc + 1)


def test_nu_zero_ideal_is_order():
    R = RingSpec(2, 0, 5)
    I = IdealSpec.of(R, [])
    for text in ["T1", "T1*T2 + T2^3", "3"]:
        x = parse_poly(text, R)
        assert nu(I, x) == x.order()


def test_nu_against_naive_membership_sweep():
    R, I = cusp_ring(D=6)
    for text in ["T1", "T2", "T1^2", "T1*T2", "T1^2 + T2^2", "T1^3"]:
        x = parse_poly(text, R)
        got = nu(I, x)
        want = oracles.naive_nu(I, x)
        assert (got.value if got.exact else R.trunc + 1) == want


def test_nu_superadditive():
    R, I = cusp_ring(D=8)
    oracle = NuOracle(I)
    elems = [parse_poly(t, R) for t in ["T1", "T2", "T1 + T2^2", "T1^2", "T1*T2"]]
    for g in elems:
        for h in elems:
            ng, nh = oracle.nu(g), oracle.nu(h)
            if ng.exact and nh.exact and ng.value + nh.value <= R.trunc:
                assert oracle.nu(g * h) >= ExtOrder.of(ng.value + nh.value)


def test_nu_generator_invariance():
    R = RingSpec(2, 0, 6)
    f1 = parse_poly("T1^2 - T2^3", R)
    f2 = parse_poly("T1*T2^2", R)
    I = IdealSpec.of(R, [f1, f2])
    J = IdealSpec.of(R, [f1 + parse_poly("T2", R) * f2, f2.scale(5), f1])
    a, b = NuOracle(I), NuOracle(J)
    for text in ["T1", "T2", "T1^2", "T1*T2", "T2^2", "T1^2+T2^2"]:
        x = parse_poly(text, R)
        assert a.nu(x) == b.nu(x)


def test_nu_bar_cusp_three_halves():
    R = RingSpec(2, 0, 12)
    I = IdealSpec.of(R, [parse_poly("T1^2 - T2^3", R)])
    rep = nu_bar_estimate(I, parse_poly("T1", R), 4)
    assert rep.estimate == Fraction(3, 2)
    assert [(n, v.value) for n, v in rep.samples] == [(1, 1), (2, 3), (3, 4), (4, 6)]
    assert rep.flags == []
    assert Fraction(rep.nu_x.value) <= rep.estimate  # lower inequality


def test_nu_bar_zero_ideal_is_one():
    R = RingSpec(2, 0, 8)
    I = IdealSpec.of(R, [])
    for n_max in (1, 2, 4):
        assert nu_bar_estimate(I, parse_poly("T1", R), n_max).estimate == 1


def test_nu_bar_monotone_in_n_max():
    R = RingSpec(2, 0, 12)
    I = IdealSpec.of(R, [parse_poly("T1^2 - T2^3", R)])
    x = parse_poly("T1", R)
    prev = Fraction(0)
    for n_max in range(1, 5):
        est = nu_bar_estimate(I, x, n_max).estimate
        assert est >= prev
        prev = est


def test_nu_bar_flags_truncation():
    R = RingSpec(2, 0, 4)
    I = IdealSpec.of(R, [parse_poly("T1^2 - T2^3", R)])
    rep = nu_bar_estimate(I, parse_poly("T1", R), 4)
    assert any("skipped" in f or "truncation" in f for f in rep.flags)


def test_icl_scan_cusp_b1():
    R = RingSpec(2, 0, 8)
    I = IdealSpec.of(R, [parse_poly("T1^2 + T2^3", R)])
    rep = icl_scan(I, 3, a=Fraction(1), seed=0, count=30)
    assert rep.b_min == 1
    assert rep.violations == []
    pair = rep.attaining_pairs[0]
    assert pair[0].to_str() == "T1" and pair[1].to_str() == "T1"
    assert (pair[2].value, pair[3].value, pair[4].value) == (1, 1, 3)


def test_icl_scan_valuation_case_b0():
    R = RingSpec(3, 0, 8)
    I = IdealSpec.of(R, [parse_poly("T1^2 + T2^2 + T3^2", R)])
    rep = icl_scan(I, 3, a=Fraction(1), seed=0, count=25)
    assert rep.b_min == 0
    assert rep.violations == []


def test_icl_scan_zero_divisor_violation():
    R = RingSpec(2, 0, 8)
    I = IdealSpec.of(R, [parse_poly("T1*T2", R)])
    rep = icl_scan(I, 3, a=Fraction(1), seed=0, count=25)
    assert rep.b_min is None
    pairs = {(g.to_str(), h.to_str()) for g, h, *_ in rep.violations}
    assert ("T1", "T2") in pairs


def test_icl_b_min_monotone_in_scan_degree():
    R = RingSpec(2, 2, 8)
    I = IdealSpec.of(R, [parse_poly("T1^2 + T2^3", R)])
    b1 = icl_scan(I, 1, a=Fraction(1), mode="exhaustive", budget=10**6).b_min
    b2 = icl_scan(I, 2, a=Fraction(1), mode="exhaustive", budget=10**6).b_min
    assert b1 <= b2


def test_icl_attaining_pairs_satisfy_reported_equation():
    R = RingSpec(2, 0, 8)
    I = IdealSpec.of(R, [parse_poly("T1^2 + T2^3", R)])
    for a in (Fraction(1), Fraction(3, 2)):
        rep = icl_scan(I, 3, a=a, seed=1, count=20)
        for g, h, ng, nh, ngh in rep.attaining_pairs:
            assert Fraction(ngh.value) == a * (ng.value + nh.value) + rep.b_min


def test_icl_envelope_slopes():
    R = RingSpec(2, 0, 8)
    I = IdealSpec.of(R, [parse_poly("T1^2 + T2^3", R)])
    reps = icl_envelope(I, 2, seed=0, count=10)
    assert [r.a for r in reps] == [Fraction(1), Fraction(3, 2), Fraction(2)]
    # larger slope can only shrink the offset
    finite = [r.b_min for r in reps if r.b_min is not None]
    assert finite == sorted(finite, reverse=True)


def test_icl_scan_preconditions():
    R = RingSpec(2, 0, 4)
    I = IdealSpec.of(R, [parse_poly("T1", R)])
    with pytest.raises(PrecondError):
        icl_scan(I, 3, a=Fraction(1))  # 2*3 > 4
    with pytest.raises(PrecondError):
        icl_scan(I, 2, a=Fraction(1, 2))
    with pytest.raises(PrecondError):
        icl_scan(I, 2, a=Fraction(1), mode="exhaustive")  # needs finite field
    with pytest.raises(BudgetError):
        icl_scan(IdealSpec.of(RingSpec(2, 5, 4), [parse_poly("T1", RingSpec(2, 5, 4))]), 2, mode="exhaustive", budget=10)


def test_valuation_check_cases():
    R3 = RingSpec(3, 0, 8)
    sphere = IdealSpec.of(R3, [parse_poly("T1^2 + T2^2 + T3^2", R3)])
    assert valuation_check(sphere, 3, seed=0, count=20).is_valuation

    R2 = RingSpec(2, 0, 8)
    cusp = IdealSpec.of(R2, [parse_poly("T1^2 - T2^3", R2)])
    rep = valuation_check(cusp, 3, seed=0, count=20)
    assert not rep.is_valuation
    g, h, ng, nh, ngh = rep.counterexample
    assert ngh.value != ng.value + nh.value

    zero = IdealSpec.of(R2, [])
    assert valuation_check(zero, 3, seed=0, count=20).is_valuation


def test_valuation_check_stops_at_its_first_counterexample():
    # on T1*T2 the pair (T1, T2) is a counterexample near the start of the scan:
    # the check returns there, with the report of the full scan, and computes no
    # order of a later pair (one remainder_order per candidate, then one per
    # pair with no unit factor up to the counterexample)
    R = RingSpec(2, 0, 8)
    I = IdealSpec.of(R, [parse_poly("T1*T2", R)])
    _, _, rows, npairs = orders._scan_pairs(I, 3, "random", 40, 5, 10**6)
    rows = list(rows)
    stop = next(n for n, (g, h, ng, nh, ngh, _) in enumerate(rows)
                if (ngh.value != ng.value + nh.value if ngh.exact else ng.value + nh.value <= R.trunc))
    scanned = sum(1 for g, h, *_ in rows[:stop + 1] if g.order().value and h.order().value)
    ncands = len(scan_candidates(R, 3, "random", 40, 5))
    calls = []
    real = Subspace.remainder_order

    def counted(self, parts, *args):
        calls.append(1)
        return real(self, parts, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Subspace, "remainder_order", counted)
        rep = valuation_check(I, 3, count=40, seed=5)
    assert len(calls) == ncands + scanned < npairs == 990
    assert rep == orders.ValuationReport(False, rows[stop][:5], 3, npairs, 5)


def test_scan_candidates_deterministic():
    R = RingSpec(2, 0, 8)
    a = scan_candidates(R, 2, "random", count=10, seed=3)
    b = scan_candidates(R, 2, "random", count=10, seed=3)
    assert [s.to_str() for s in a] == [s.to_str() for s in b]
    c = scan_candidates(R, 2, "random", count=10, seed=4)
    assert [s.to_str() for s in a] != [s.to_str() for s in c]


# (ring, deg_max, mode, count, seed) -> (sha256 of the candidates' text, calls to the
# seeded generator), captured before the random and exhaustive modes shared one stream
PINNED_CANDIDATES = [
    ((2, 0, 6), 2, "random", 0, 7, "67a3ec765e50554370257086ca020ce0aab17e6885eb65d99c10819d173d48b4", 0),
    ((2, 0, 6), 2, "random", 10, 7, "82e772387579b24073bb5022eccdf75bd41cfd603edb85695547e9195de81bb3", 88),
    ((2, 0, 6), 2, "random", 40, 7, "d64a3bb7f7ff67288e35f99aba2803db11118729de6d7b0fb4b42cdebb5d0051", 409),
    ((1, 0, 4), 1, "random", 10, 7, "70a59f4dc963ad6856179e1864a882d9dfdd1ab96df960aa3af30576d8aebff9", 63),
    ((1, 0, 4), 1, "random", 40, 7, "b87a98f3a2459a4ebf45966b64602a07338a5f77150bb23a83d7b937b3710a04", 1324),
    ((2, 5, 6), 2, "random", 0, 7, "67a3ec765e50554370257086ca020ce0aab17e6885eb65d99c10819d173d48b4", 0),
    ((2, 5, 6), 2, "random", 10, 7, "b83c5cdd7ff8c8b26522118b9a51f2e767226471049eecfb2fe72592baab26cc", 109),
    ((2, 5, 6), 2, "random", 40, 7, "bccacbca13d602db19ce73b8de2c931707beac514db44adae377b8c1e6da1104", 485),
    ((1, 5, 4), 1, "random", 10, 7, "43b68a18c24ec411999af5f1d149bac01294b58b286abcfe3e14a196c7ba902a", 71),
    # only 24 nonzero series exist: the stream ends with the draw that finds the
    # last of them, not after all 50*41 draws
    ((1, 5, 4), 1, "random", 40, 7, "30a537558786b302f05733069e7d6e00657d61e7887cb1ff92fe53e4cd8647d6", 1105),
    ((2, 2, 6), 2, "exhaustive", 0, 0, "edd52231b987b8ef63be8c89a833a6cf5fa201d6c12fecf2e268c2db6b434a66", 0),
    ((2, 3, 4), 1, "exhaustive", 0, 0, "c9c84692856925a62b3341a33ddb4e5bed84134910e1aff09aea3ca154d5e1e8", 0),
    ((1, 3, 6), 2, "exhaustive", 0, 0, "74ebe96c260b7179ce872187a187d49e6a2f2693ae0383b9add072a009a46a90", 0),
]


class CountingRandom(random.Random):
    """The seeded generator, counting its calls; getrandbits is overridden too,
    so that randrange and choice keep drawing through it as before."""

    calls = 0

    def random(self):
        CountingRandom.calls += 1
        return super().random()

    def getrandbits(self, k):
        CountingRandom.calls += 1
        return super().getrandbits(k)


def test_scan_candidates_pinned(monkeypatch):
    monkeypatch.setattr(orders.random, "Random", CountingRandom)
    for ring, deg_max, mode, count, seed, digest, calls in PINNED_CANDIDATES:
        CountingRandom.calls = 0
        cands = scan_candidates(RingSpec(*ring), deg_max, mode, count, seed)
        text = json.dumps([c.to_str() for c in cands])
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (ring, mode, count)
        assert CountingRandom.calls == calls, (ring, mode, count)


def reduce_order(xs, U):
    """The order read off the full remainder of Subspace.reduce: the least degree
    of a column left in it, D+1 (at least) when nothing is left.  It shares the
    elimination step with the degree-fed Subspace.remainder_order; dense_order
    is the reference that shares nothing."""
    if isinstance(xs, TruncatedSeries):
        xs = (xs,)
    rem = U.reduce(series_to_vec(xs, U.ring))
    if not rem:
        return ExtOrder.at_least(U.ring.trunc + 1)
    return ExtOrder.of(min(degree_of(k, U.ring, U.arity) for k in rem))


def degree_of(label, R, arity):
    """The degree of a label, that of the one monomial vec_to_series decodes it to."""
    return next(sum(m) for s in vec_to_series({label: 1}, R, arity) for m in s.terms)


def dense_order(xs, M):
    """oracles.naive_nu as an ExtOrder: ranks of dense matrices, no echelon form."""
    n = oracles.naive_nu(M, xs if isinstance(xs, tuple) else (xs,))
    return ExtOrder.of(n) if n <= M.ring.trunc else ExtOrder.at_least(n)


def degree_fed_product_order(g, h, U):
    """nu(g*h) as the pair scan reads it: the (degree, part) pairs of g*h from
    degree ord(g)+ord(h), fed lazily (graded_product with top D).  The factors
    may reach degree D here: no part past D is formed (none at all when a
    factor is zero), so every part holds products of degree <= D, whose labels
    are the sums of the factors' labels."""
    D = U.ring.trunc
    label = labeller(U.ring.num_vars, D, 1)
    return U.remainder_order(graded_product(graded(g, label), graded(h, label), D))


SCALARS = {0: [1, -1, 2, -3, Fraction(1, 2), Fraction(-3, 2)], 2: [1], 3: [1, 2], 32003: [1, 2, 16001, 32002]}


def sparse_series(R, support):
    """Series of R with at most 4 terms on the monomials of support (zero if
    there are none), their scalars drawn from SCALARS."""
    if not support:
        return st.just(TruncatedSeries.zero(R))
    return st.dictionaries(st.sampled_from(support), st.sampled_from(SCALARS[R.char]),
                           max_size=4).map(lambda t: TruncatedSeries(R, t))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_degree_fed_order_matches_full_remainder(data):
    char = data.draw(st.sampled_from(sorted(SCALARS)))
    R = RingSpec(data.draw(st.integers(1, 3)), char, data.draw(st.integers(2, 6)))
    arity = data.draw(st.sampled_from([1, 1, 2]))
    monos = list(monomials_up_to(R.num_vars, R.trunc))
    # generators inside m, so that the quotient is not zero; x and the factors may be units
    gens = data.draw(st.lists(st.tuples(*[sparse_series(R, monos[1:])] * arity), max_size=3))
    M = ModuleSpec(R, arity, tuple(gens))
    U = span_module(M)
    zero = TruncatedSeries.zero(R)
    unit = TruncatedSeries.constant(R, SCALARS[char][-1])
    xs = data.draw(st.tuples(*[sparse_series(R, monos)] * arity))
    for x in (xs, (zero,) * arity, (unit,) * arity):
        want = dense_order(x, M)
        assert distance_order(x if arity > 1 else x[0], U) == want, x
        assert reduce_order(x, U) == want, x
    if arity > 1:
        return
    top = TruncatedSeries.monomial(R, (R.trunc,) + (0,) * (R.num_vars - 1))
    g, h = data.draw(sparse_series(R, monos)), data.draw(sparse_series(R, monos))
    # top * (anything in m) truncates to 0; unit * unit has order 0 outside the ideal
    for a, b in ((g, h), (h, g), (g, g), (unit, h), (unit, unit), (zero, g), (top, g), (top, top)):
        want = dense_order(a * b, M)
        assert degree_fed_product_order(a, b, U) == want, (a, b)
        assert reduce_order(a * b, U) == want, (a, b)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_remainder_order_reads_from_its_start(data):
    # a vector with no entry below degree start has the order of its full
    # remainder, whichever way its (degree, part) pairs are fed: tagged from
    # start, one part per degree up to D; sparse, its nonempty degrees only,
    # with gaps between them; dense from degree 0, empty below start.  start > D
    # leaves no part and gives >= D+1.  The read takes every part below the
    # order and then the first one at or past it, if any: so a dense feed takes
    # none past the order, and every part when the order is >= D+1
    char = data.draw(st.sampled_from(sorted(SCALARS)))
    R = RingSpec(data.draw(st.integers(1, 3)), char, data.draw(st.integers(2, 6)))
    D = R.trunc
    arity = data.draw(st.sampled_from([1, 1, 2]))
    start = data.draw(st.integers(0, D + 2))
    monos = list(monomials_up_to(R.num_vars, D))
    gens = data.draw(st.lists(st.tuples(*[sparse_series(R, monos[1:])] * arity), max_size=3))
    U = span_module(ModuleSpec(R, arity, tuple(gens)))
    xs = data.draw(st.tuples(*[sparse_series(R, [m for m in monos if sum(m) >= start])] * arity))
    vec = series_to_vec(xs, R)
    # or a basis row of U with entries past its pivot's degree, cut after that
    # degree: the remainder, the rest of the row negated, lies past the last part
    rows = [(d, r) for r in U.rows
            if start <= (d := degree_of(min(r), R, arity)) < degree_of(max(r), R, arity)]
    if rows and data.draw(st.booleans()):
        d, row = data.draw(st.sampled_from(rows))
        vec = {k: c for k, c in row.items() if degree_of(k, R, arity) == d}
        xs = vec_to_series(vec, R, arity)
    by_degree = [{k: c for k, c in vec.items() if degree_of(k, R, arity) == d} for d in range(D + 1)]
    want = reduce_order(xs, U)
    feeds = [[(d, by_degree[d]) for d in range(start, D + 1)],
             [(d, part) for d, part in enumerate(by_degree) if part],
             list(enumerate(by_degree))]
    for feed in feeds:
        reads = []

        def fed():
            for d, part in feed:
                reads.append(d)
                yield d, part

        assert U.remainder_order(fed()) == want, feed
        below = [d for d, _ in feed if d < want.value]
        assert reads == below + [d for d, _ in feed if d >= want.value][:1], feed


def test_scans_form_full_products_only_for_inexact_pairs(monkeypatch):
    # (ring, ideal, deg_max, mode, scan): the F_32003 cusp has one skipped pair and
    # T1*T2 over F_2 has 36 violations, each certified on its full product
    cases = [(RingSpec(2, 32003, 8), "T1^2 + T2^3", 3, "random", icl_envelope),
             (RingSpec(2, 2, 6), "T1*T2", 2, "exhaustive", icl_envelope),
             (RingSpec(2, 0, 8), "T1*T2", 3, "random", valuation_check),
             (RingSpec(3, 0, 8), "T1^2 + T2^2 + T3^2", 3, "random", valuation_check)]
    expected = []
    for R, text, deg_max, mode, scan in cases:
        I = IdealSpec.of(R, [parse_poly(text, R)])
        U = span_ideal(I)
        cands = scan_candidates(R, deg_max, mode, 40, 5)
        nus = [reduce_order(g, U) for g in cands]
        live = [k for k, v in enumerate(nus) if v.exact]
        pairs = [(i, j) for i in live for j in live if i <= j]
        inexact, stop = [], None
        for i, j in pairs:
            ngh, total = reduce_order(cands[i] * cands[j], U), nus[i].value + nus[j].value
            if not ngh.exact:
                inexact.append((i, j))
            if stop is None and (ngh.value != total if ngh.exact else total <= R.trunc):
                stop = len(inexact)
        expected.append((len(pairs), inexact, stop if scan is valuation_check else None))
    assert [(n, len(x)) for n, x, _ in expected] == [(1225, 1), (1953, 36), (990, 60), (1770, 0)]
    # valuation_check stops at its first counterexample, so on T1*T2 it forms
    # only the products of the inexact pairs up to that one
    assert [stop for *_, stop in expected] == [None, None, 1, None]

    pools = []  # every candidate list stays alive, so no other object takes its ids
    position = {}  # id -> index of each candidate of the running scan
    products = []
    real_candidates, real_mul = orders.scan_candidates, TruncatedSeries.__mul__

    def candidates(*args):
        pools.append(real_candidates(*args))
        position.clear()
        position.update((id(c), k) for k, c in enumerate(pools[-1]))
        return pools[-1]

    def mul(a, b):
        if id(a) in position and id(b) in position:
            products.append((position[id(a)], position[id(b)]))
        return real_mul(a, b)

    monkeypatch.setattr(orders, "scan_candidates", candidates)
    monkeypatch.setattr(TruncatedSeries, "__mul__", mul)
    for (R, text, deg_max, mode, scan), (npairs, inexact, stop) in zip(cases, expected):
        products.clear()
        rep = scan(IdealSpec.of(R, [parse_poly(text, R)]), deg_max, mode=mode, seed=5)
        rep = rep[0] if isinstance(rep, list) else rep
        assert rep.pair_count == npairs
        assert products == inexact[:stop], (text, len(products), len(inexact))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_scan_rows_match_dense_oracle(data):
    # every row's nu(g*h) against the dense rank sweep; a pair with a unit factor
    # (nonzero constant term) is read off the other factor, with no remainder_order
    char = data.draw(st.sampled_from(sorted(SCALARS)))
    num_vars = data.draw(st.integers(1, 3))
    trunc = data.draw(st.integers(2, {1: 6, 2: 4, 3: 3}[num_vars]))
    R = RingSpec(num_vars, char, trunc)
    deg_max = data.draw(st.integers(1, trunc // 2))
    exhaustive = char == 2 and len(monomials_up_to(num_vars, deg_max)) <= 4
    mode = "exhaustive" if exhaustive and data.draw(st.booleans()) else "random"
    count, seed = data.draw(st.integers(0, 6)), data.draw(st.integers(0, 50))
    monos = list(monomials_up_to(num_vars, trunc))[1:]
    gens = data.draw(st.lists(st.dictionaries(st.sampled_from(monos), st.sampled_from(SCALARS[char]),
                                              min_size=1, max_size=3), max_size=2))
    I = IdealSpec.of(R, [TruncatedSeries(R, t) for t in gens])
    calls, reads = [], []
    real, real_parts = Subspace.remainder_order, orders.graded_product

    def counted(self, parts, *args):
        calls.append(1)
        return real(self, parts, *args)

    def counted_parts(*args):
        for part in real_parts(*args):
            reads.append(1)
            yield part

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Subspace, "remainder_order", counted)
        mp.setattr(orders, "graded_product", counted_parts)
        _, _, rows, npairs = orders._scan_pairs(I, deg_max, mode, count, seed, 10**6)
        rows = list(rows)
    cands = scan_candidates(R, deg_max, mode, count, seed, 10**6)
    live = [g for g in cands if dense_order(g, I).exact]
    assert npairs == len(rows) == len(live) * (len(live) + 1) // 2
    assert [(g, h) for g, h, *_ in rows] == [(g, h) for i, g in enumerate(live) for h in live[i:]]
    products = {}
    for g, h, ng, nh, ngh, gh in rows:
        assert (ng, nh) == (dense_order(g, I), dense_order(h, I))
        key = tuple((g * h).sorted_terms())
        if key not in products:
            products[key] = dense_order(g * h, I)
        assert ngh == products[key], (g, h)
        assert gh == (None if ngh.exact else g * h)
    # one call per candidate's own nu, then one per pair with no unit factor
    units = sum(1 for g, h, *_ in rows if g.order().value == 0 or h.order().value == 0)
    assert len(calls) == len(cands) + npairs - units
    # each such pair reads the parts of g*h from degree ord(g)+ord(h) up to its
    # order (up to D when inexact), and none past the degree of g*h
    want = sum(min(ngh.value if ngh.exact else trunc, g.max_degree() + h.max_degree())
               - g.order().value - h.order().value + 1
               for g, h, ng, nh, ngh, _ in rows if g.order().value and h.order().value)
    assert len(reads) == want


def test_pair_read_takes_no_part_past_the_order(monkeypatch):
    # (T1 + T1^2)^2 has order 2 modulo T1^5: its read takes the one part of
    # degree ord(g)+ord(h) = 2, not the parts of degrees 3 and 4 behind it
    R = RingSpec(1, 0, 5)
    g = parse_poly("T1 + T1^2", R)
    reads = []
    real_parts = orders.graded_product

    def counted_parts(*args):
        for part in real_parts(*args):
            reads.append(1)
            yield part

    monkeypatch.setattr(orders, "scan_candidates", lambda *args: [g])
    monkeypatch.setattr(orders, "graded_product", counted_parts)
    _, _, rows, _ = orders._scan_pairs(IdealSpec.of(R, [parse_poly("T1^5", R)]), 2, "random", 0, 0, 10)
    assert [ngh for *_, ngh, _ in rows] == [ExtOrder.of(2)]
    assert len(reads) == 1


ICL_IDEALS = [(2, 0, "T1^2 + T2^3"), (2, 0, "T1^2 - T2^3; T1*T2^2"), (2, 0, "T1*T2"), (2, 0, "0"),
              (3, 0, "T1^2 + T2^2 + T3^2"), (2, 2, "T1^2 + T2^3"), (2, 3, "T1*T2 - T2^3")]


@settings(max_examples=60, deadline=None)
@given(ideal=st.sampled_from(ICL_IDEALS), deg_max=st.sampled_from([1, 2]), extra=st.integers(0, 3),
       a=st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 3), Fraction(7, 4),
                          Fraction(11, 8), Fraction(9, 5), Fraction(13, 4)]),
       exhaustive=st.booleans(), count=st.integers(0, 12), seed=st.integers(0, 50))
def test_icl_scan_matches_fraction_definition(ideal, deg_max, extra, a, exhaustive, count, seed):
    # b_min and its attaining pairs from nu(g*h) - a*(nu(g) + nu(h)) in Fractions,
    # over the scanned pairs in scan order, then stable-sorted simplest first;
    # the single-slope scan at a, and each report of the envelope at its slope
    num_vars, char, text = ideal
    R = RingSpec(num_vars, char, 2 * deg_max + extra)
    I = IdealSpec.of(R, [parse_poly(t, R) for t in text.split(";")])
    mode = "exhaustive" if exhaustive and char and deg_max == 1 else "random"
    rep = icl_scan(I, deg_max, a=a, mode=mode, count=count, seed=seed, budget=10**6)
    envelope = icl_envelope(I, deg_max, mode=mode, count=count, seed=seed, budget=10**6)
    assert [r.a for r in envelope] == list(SLOPE_GRID)
    cands = scan_candidates(R, deg_max, mode, count, seed, 10**6)
    U = span_ideal(I)
    nus = [reduce_order(g, U) for g in cands]
    rows = []
    for i in range(len(cands)):
        for j in range(i, len(cands)):
            if nus[i].exact and nus[j].exact:
                ngh = reduce_order(cands[i] * cands[j], U)
                if ngh.exact:
                    rows.append((cands[i], cands[j], nus[i], nus[j], ngh))

    def simplest(row):
        g, h = row[0], row[1]
        return (len(g.terms) + len(h.terms), g.max_degree() + h.max_degree(), g.to_str(), h.to_str())

    for report in [rep, *envelope]:
        if report.violations:
            assert report.b_min is None and report.attaining_pairs == []
            continue
        diffs = [(Fraction(ngh.value) - report.a * (ng.value + nh.value), (g, h, ng, nh, ngh))
                 for g, h, ng, nh, ngh in rows]
        b_min = max([Fraction(0)] + [d for d, _ in diffs])
        assert report.b_min == b_min and isinstance(report.b_min, Fraction)
        attaining = sorted((row for d, row in diffs if d == b_min), key=simplest)[:8]
        assert report.attaining_pairs == attaining
