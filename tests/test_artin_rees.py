from fractions import Fraction
from functools import lru_cache
from math import ceil

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from artinlab import artin
from artinlab.artin import artin_rees_index, stable_ar_scan
from artinlab.series import ExtOrder, RingSpec, TruncatedSeries, monomials_up_to
from artinlab.subspace import (
    IdealSpec,
    ModuleSpec,
    Subspace,
    member,
    multiples,
    span_module,
    vec_to_series,
)
from artinlab.parsing import parse_poly
from oracles import cap_m_power, contains, graded_span, same_subspace, span_m_power, subspace_intersect

F7 = RingSpec(2, 7, 5)
R5 = RingSpec(2, 0, 5)


def test_principal_ideal_indices():
    R = RingSpec(2, 0, 8)
    t1 = parse_poly("T1", R)
    res = artin_rees_index(IdealSpec.of(R, [t1]))
    assert res.i0 == 1
    assert res.certified_up_to == 7
    res2 = artin_rees_index(IdealSpec.of(R, [t1**2]))
    assert res2.i0 == 2
    assert res2.certified_up_to == 6
    res3 = artin_rees_index(IdealSpec.of(F7, [parse_poly("3*T1*T2^2", F7)]))
    assert (res3.i0, res3.certified_up_to) == (2, 2)
    assert res3.tight_witness == (2, (parse_poly("T1*T2^2", F7),))


def test_diagonal_module_index():
    R = RingSpec(2, 0, 8)
    z = TruncatedSeries.zero(R)
    M = ModuleSpec(R, 2, ((parse_poly("T1", R), z), (z, parse_poly("T2", R))))
    assert artin_rees_index(M).i0 == 1


def test_index_matches_naive_sweep():
    R = RingSpec(2, 0, 6)
    cases = [
        IdealSpec.of(R, [parse_poly("T1", R)]),
        IdealSpec.of(R, [parse_poly("T1^2", R)]),
        IdealSpec.of(R, [parse_poly("T1^2 - T2^3", R)]),
        IdealSpec.of(R, [parse_poly("T1*T2", R), parse_poly("T2^2", R)]),
    ]
    for I in cases:
        res = artin_rees_index(I)
        assert res.i0 == oracles.naive_ar_index(I, res.certified_up_to)


def test_tight_witness_is_genuine():
    R = RingSpec(2, 0, 8)
    rows = (("T1", "T2"), ("T2^2", "T1^2 + T2^3"))
    cases = [
        IdealSpec.of(R, [parse_poly("T1^2", R)]).as_module(),
        # arity 2: the witness is the first basis row in degree-major order
        ModuleSpec(R, 2, tuple(tuple(parse_poly(c, R) for c in row) for row in rows)),
    ]
    for M in cases:
        res = artin_rees_index(M)
        assert res.tight_witness is not None
        i, elem = res.tight_witness
        # witness lies in the intersection ...
        inter_ok = member(elem, span_module(M)) and member(
            elem, span_m_power(R, i, M.arity)
        )
        assert inter_ok
        # ... but not in m^(i - i0 + 1) * M, so index i0 - 1 fails at i
        too_deep = graded_span(M, i - res.i0 + 1)
        assert not member(elem, too_deep)


def test_inclusion_holds_at_reported_index():
    R = RingSpec(2, 0, 7)
    I = IdealSpec.of(R, [parse_poly("T1^2 - T2^3", R)])
    res = artin_rees_index(I)
    M = I.as_module()
    U = span_module(M)
    for i in range(res.certified_up_to + 1):
        inter = subspace_intersect(U, span_m_power(R, i, M.arity))
        assert contains(graded_span(M, max(i - res.i0, 0)), inter)


def test_index_generator_invariant():
    R = RingSpec(2, 0, 7)
    f1 = parse_poly("T1^2 - T2^3", R)
    f2 = parse_poly("T1*T2^2", R)
    I = IdealSpec.of(R, [f1, f2])
    J = IdealSpec.of(R, [f1, f2, f1 + parse_poly("T2", R) * f2, f2.scale(7)])
    assert artin_rees_index(I).i0 == artin_rees_index(J).i0


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_index_ignores_the_order_of_the_generators(data):
    # the Nakayama rule keeps generators of one degree in the given order, so the
    # kept subset depends on it; the range, the profile and the witness must not
    R = RingSpec(2, data.draw(st.sampled_from([0, 2, 3])), data.draw(st.integers(3, 6)))
    monos = [m for m in monomials_up_to(2, 3) if sum(m) >= 1]
    scalars = [1, 2, -1, Fraction(1, 2), 3] if R.char == 0 else list(range(1, R.char))
    series = st.dictionaries(st.sampled_from(monos), st.sampled_from(scalars), min_size=1, max_size=3).map(
        lambda d: TruncatedSeries(R, d))
    gens = data.draw(st.lists(series, min_size=1, max_size=3))
    # a multiple of a generator, often of the same degree as another one
    gens.append(data.draw(series) * gens[0] + gens[-1])
    want = artin_rees_index(IdealSpec.of(R, gens))
    got = artin_rees_index(IdealSpec.of(R, data.draw(st.permutations(gens))))
    assert (got.i0, got.certified_up_to, got.tight_witness, got.deficits) == \
        (want.i0, want.certified_up_to, want.tight_witness, want.deficits)


def test_certified_range_shrinks_with_generator_degree():
    # a generator of full degree leaves only i = 0 certified
    R = RingSpec(2, 0, 3)
    res = artin_rees_index(IdealSpec.of(R, [parse_poly("T1^3", R)]))
    assert res.certified_up_to == 0
    assert res.i0 == 0


@lru_cache(maxsize=None)
def translate_reference(I, x):
    """(nu(x), reference_deficits of (x)+I over the range that its greedy
    pruning certifies), or (nu(x), None) for x in I, all from the oracles."""
    R = I.ring
    nu = oracles.naive_nu(I, x)
    if nu > R.trunc:
        return nu, None
    M = ModuleSpec(R, 1, tuple((g,) for g in I.generators) + ((x,),))
    cert = R.trunc - ModuleSpec(R, 1, oracles.greedy_generators(M)).max_generator_degree()
    return nu, reference_deficits(M, cert)


def checked_scan(I, xs, **kw):
    """stable_ar_scan, its checks required to be those rebuilt from the oracles:
    for each x outside I, the rows e >= offset of its reference profile."""
    rep = stable_ar_scan(I, xs, **kw)
    a, b = Fraction(kw.get("a", 1)), kw.get("b", 0)
    want, skipped = [], []
    for x in xs:
        nu, deficits = translate_reference(I, x)
        if deficits is None:
            skipped.append(x)
            continue
        offset = ceil(a * nu) + b
        want += [(x, e - offset, ExtOrder.of(nu), e, e - offset <= j) for e, j in deficits[offset:]]
    assert (rep.checks, rep.skipped) == (want, skipped)
    return rep


def test_stable_scan_zero_ideal():
    R = RingSpec(2, 0, 8)
    xs = [parse_poly(t, R) for t in ["T1", "T1^2", "T1*T2"]]
    rep = checked_scan(IdealSpec.of(R, []), xs, a=1, b=0)
    assert rep.all_hold
    assert rep.minimal_pass == (1, 0)
    assert all(h for *_, h in rep.checks)


def test_stable_scan_skips_members():
    R = RingSpec(2, 0, 8)
    f = parse_poly("T1^2 + T2^3", R)
    I = IdealSpec.of(R, [f])
    rep = checked_scan(I, [f * parse_poly("T1", R)], a=1, b=0)
    assert len(rep.skipped) == 1 and not rep.checks and rep.all_hold


def test_stable_scan_finds_finite_constants_for_cusp():
    R = RingSpec(2, 0, 8)
    I = IdealSpec.of(R, [parse_poly("T1^2 + T2^3", R)])
    xs = [parse_poly(t, R) for t in ["T1", "T2", "T1^2", "T1*T2", "T2^2"]]
    rep = checked_scan(I, xs, a=1, b=0, grid_b_max=5)
    assert rep.minimal_pass is not None
    a_min, b_min = rep.minimal_pass
    again = checked_scan(I, xs, a=a_min, b=b_min, grid_b_max=5)
    assert again.all_hold


def test_stable_scan_inclusion_matches_direct_check():
    # every reported row, recomputed from scratch on both sides
    R = RingSpec(2, 0, 8)
    ideals = [["T1^2 + T2^3"], ["T1^2 - T2^3", "T1*T2^2"]]
    xs = [parse_poly(t, R) for t in ["T1", "T2", "T1*T2 + T2^3", "T2^2"]]
    for gens in ideals:
        I = IdealSpec.of(R, [parse_poly(g, R) for g in gens])
        for a in (1, Fraction(3, 2), 2):
            for b in (0, 1, 2):
                rep = checked_scan(I, xs, a=a, b=b, grid_b_max=2)
                assert rep.checks and not rep.skipped
                for x in xs:
                    aug = ModuleSpec(R, 1, tuple((g,) for g in I.generators) + ((x,),))
                    rows = [row for row in rep.checks if row[0] == x]
                    for i, (xx, ii, nu_x, exponent, holds) in enumerate(rows):
                        assert ii == i and exponent == i + ceil(a * nu_x.value) + b
                        lhs = subspace_intersect(span_module(aug), span_m_power(R, exponent))
                        rhs = graded_span(aug, i)
                        assert holds == contains(rhs, lhs)


def reference_deficits(M, cert):
    """(i, largest j <= i with M cap m^i inside m^j * M), one span per j."""
    U = span_module(M)
    out = []
    for i in range(cert + 1):
        inter = cap_m_power(U, i)
        j_ok = 0
        for j in range(i, -1, -1):
            if contains(graded_span(M, j), inter):
                j_ok = j
                break
        out.append((i, j_ok))
    return out


RINGS = [RingSpec(2, 0, 6), RingSpec(2, 0, 7), RingSpec(2, 3, 6), RingSpec(2, 7, 7)]
COEFFS = [1, -1, 2, 3, Fraction(1, 2)]


@st.composite
def modules(draw):
    R = draw(st.sampled_from(RINGS))
    arity = draw(st.sampled_from([1, 2]))
    monos = [m for m in monomials_up_to(2, 3) if sum(m) >= 1]
    mk = st.dictionaries(st.sampled_from(monos), st.sampled_from(COEFFS), max_size=3).map(
        lambda d: TruncatedSeries(R, d)
    )
    gens = draw(st.lists(st.tuples(*[mk] * arity), min_size=1, max_size=3))
    return ModuleSpec(R, arity, tuple(gens))


@settings(max_examples=40, deadline=None)
@given(modules())
# i0 = 2 at cert = 2: the profile reads every row of M cap m^cert
@example(ModuleSpec(F7, 1, ((parse_poly("3*T1*T2^2", F7),),)))
def test_profile_matches_per_degree_definition(M):
    R, arity = M.ring, M.arity
    res = artin_rees_index(M)
    assert same_subspace(span_module(res.module), span_module(M))
    assert res.deficits == reference_deficits(M, res.certified_up_to)
    assert res.i0 == max((i - j for i, j in res.deficits), default=0)
    if res.i0 == 0:
        assert res.tight_witness is None
        return
    i, elem = res.tight_witness
    assert i == min(i for i, j in res.deficits if i - j == res.i0)
    assert member(elem, span_module(M)) and member(elem, span_m_power(R, i, arity))
    assert not member(elem, graded_span(M, i - res.i0 + 1))
    # the first basis row of U cap m^i outside m^(prof[i]+1) * M, from a span of its own
    bad = graded_span(res.module, res.deficits[i][1] + 1)
    row = next(r for r in cap_m_power(span_module(res.module), i).rows if not bad.contains_vec(r))
    assert elem == vec_to_series(row, R, arity)


@settings(max_examples=40, deadline=None)
@given(modules())
def test_basis_row_lies_in_a_graded_span_iff_it_is_the_spans_row(M):
    # the lm rule of the tagged span: a basis row r of U = span_module(M) with
    # pivot q lies in m^j * M, which lies in U, iff lm[q] >= j, iff that span's
    # row at q is r
    U, lm, _ = artin._tagged_span(M)
    assert same_subspace(U, span_module(M))
    assert sorted(lm) == U.pivots
    for j in range(M.ring.trunc + 2):
        span = graded_span(M, j)
        for q, r in zip(U.pivots, U.rows):
            assert (lm[q] >= j) == span.contains_vec(r) == (span.row_of.get(q) == r), (j, q)


@st.composite
def redundant_modules(draw):
    """modules(), with a generator that the others generate put among them."""
    M = draw(modules())
    u = TruncatedSeries.monomial(M.ring, draw(st.sampled_from(monomials_up_to(2, 2))))
    gens = list(M.generators)
    gens.insert(draw(st.integers(0, len(gens))), tuple(u * a + b for a, b in zip(gens[0], gens[-1])))
    return ModuleSpec(M.ring, M.arity, tuple(gens))


@settings(max_examples=40, deadline=None)
@given(redundant_modules())
# T1*T2 + T1^4 = T1 * (T2 + T1^3 + T1^5) at D = 5: the greedy pruning keeps both
# generators, the Nakayama rule only the second
@example(ModuleSpec(R5, 1, ((parse_poly("T1*T2 + T1^4", R5),), (parse_poly("T2 + T1^3 + T1^5", R5),))))
def test_kept_generators_match_the_greedy_pruning(M):
    R, arity = M.ring, M.arity
    U, _, kept = artin._tagged_span(M)
    kept = ModuleSpec(R, arity, tuple(kept))
    greedy = ModuleSpec(R, arity, oracles.greedy_generators(M))
    assert kept.max_generator_degree() == greedy.max_generator_degree()
    assert same_subspace(span_module(kept), U) and same_subspace(span_module(greedy), U)
    # a minimal generating set: one generator per dimension of M / m*M
    assert len(kept.generators) == len(U.pivots) - len(graded_span(M, 1).pivots)
    assert artin_rees_index(M).module == kept


def test_ar_index_builds_one_span():
    # one Subspace, each multiple of each generator inserted into it once
    R = RingSpec(2, 0, 6)
    I = IdealSpec.of(R, [parse_poly("T1^2 - T2^3", R), parse_poly("T1*T2^2", R)])
    spans, inserts = [], []
    init, insert = Subspace.__init__, Subspace.insert

    def counting_init(self, *args):
        spans.append(self)
        init(self, *args)

    def counting_insert(self, vec):
        inserts.append(self)
        return insert(self, vec)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(Subspace, "__init__", counting_init)
        m.setattr(Subspace, "insert", counting_insert)
        artin_rees_index(I)
    count = sum(len(list(multiples((g,), d, R))) for g in I.generators for d in range(R.trunc + 1))
    assert len(spans) == 1 and inserts == [spans[0]] * count


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_stable_scan_grows_the_span_of_each_x(data):
    R = data.draw(st.sampled_from(RINGS))
    # constant terms too, so that some x are units and (x) + I is the whole ring
    series = st.dictionaries(st.sampled_from(monomials_up_to(2, 3)), st.sampled_from(COEFFS),
                             max_size=3).map(lambda d: TruncatedSeries(R, d))
    I = IdealSpec.of(R, data.draw(st.lists(series, max_size=2)))
    xs = data.draw(st.lists(series, min_size=1, max_size=3))
    a = data.draw(st.sampled_from([1, Fraction(3, 2), 2, Fraction(5, 3)]))
    checked_scan(I, xs, a=a, b=data.draw(st.integers(0, 2)), grid_b_max=3)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_stable_scan_grid_is_the_least_passing_b(data):
    # the grid's b at each slope, read off the Artin-Rees indices, is the least b
    # in 0..cap at which every check of the scan at that slope holds
    R = RingSpec(2, data.draw(st.sampled_from([0, 3, 7])), data.draw(st.integers(4, 7)))
    series = st.dictionaries(st.sampled_from(monomials_up_to(2, 3)), st.sampled_from(COEFFS),
                             max_size=3).map(lambda d: TruncatedSeries(R, d))
    I = IdealSpec.of(R, data.draw(st.lists(series, max_size=2)))
    xs = data.draw(st.lists(series, min_size=1, max_size=3))
    grid_b_max = data.draw(st.sampled_from([None, 0, 1, 2, 5]))
    cap = R.trunc if grid_b_max is None else grid_b_max
    grid = stable_ar_scan(I, xs, grid_b_max=grid_b_max).grid
    assert [a for a, _ in grid] == [1, Fraction(3, 2), 2]
    for a, b_min in grid:
        passing = (b for b in range(cap + 1) if stable_ar_scan(I, xs, a=a, b=b).all_hold)
        assert b_min == next(passing, None), (a, b_min)
