import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from artinlab.errors import PrecondError
from artinlab.series import ExtOrder, RingSpec, TruncatedSeries, monomials_of_degree, monomials_up_to
from artinlab.subspace import (
    IdealSpec,
    LinearMap,
    ModuleSpec,
    Subspace,
    degree_labels,
    distance_order,
    graded,
    graded_product,
    labeller,
    member,
    multiples,
    series_to_vec,
    solve_linear,
    span_ideal,
    span_module,
    vec_to_series,
)
from oracles import (
    cap_m_power,
    contains,
    graded_span,
    same_subspace,
    span_m_power,
    subspace_intersect,
    subspace_sum,
)


def ring(n=2, char=0, D=4):
    return RingSpec(n, char, D)


def var(R, i):
    return TruncatedSeries.variable(R, i)


def test_span_ideal_monomial_counts():
    R = ring(D=2)
    U = span_ideal(IdealSpec.of(R, [var(R, 0)]))
    assert len(U.rows) == 3  # T1, T1^2, T1*T2
    R1 = ring(D=1)
    assert len(span_ideal(IdealSpec.of(R1, [var(R1, 0), var(R1, 1)])).rows) == 2


def test_span_ideal_rank_matches_dense_oracle():
    R = ring(D=5)
    f = var(R, 0) ** 2 - var(R, 1) ** 3
    I = IdealSpec.of(R, [f])
    U = span_ideal(I)
    rows = oracles.module_vectors(I.as_module())
    assert len(U.rows) == oracles.dense_rank(rows, R)


def test_span_module_dims():
    R = ring(D=1)
    z = TruncatedSeries.zero(R)
    M = ModuleSpec(R, 2, ((var(R, 0), z), (z, var(R, 1))))
    assert len(span_module(M).rows) == 2
    M2 = ModuleSpec(R, 2, ((var(R, 0), var(R, 0)),))
    assert len(span_module(M2).rows) == 1
    M3 = ModuleSpec(R, 2, ((var(R, 0), z), (var(R, 1), z), (z, var(R, 0)), (z, var(R, 1))))
    assert len(span_module(M3).rows) == 4  # all of m*A^2 at D=1


def test_span_m_power():
    R = ring(D=3)
    full = span_m_power(R, 0)
    assert len(full.rows) == len(monomials_up_to(2, 3))
    assert len(span_m_power(R, R.trunc + 1).rows) == 0
    assert len(span_m_power(R, 2).rows) == 7  # degree-2 and degree-3 monomials
    with pytest.raises(PrecondError):
        span_m_power(R, 9)
    with pytest.raises(PrecondError):
        full.cap_start(9)


def test_order_reads_build_no_monomial_table():
    # remainder_order and cap_start find a degree's labels from the step slot, and
    # distance_order and series_to_vec compute each label where they read it, so on
    # T1, T2 at D = 1200 (722,401 monomials) each peaks far below one word per
    # monomial (a table of the ring's labels took 137 MiB)
    R = RingSpec(2, 2, 1200)
    label, U, T1 = labeller(2, 1200, 1), Subspace(R), TruncatedSeries.monomial(R, (1, 0))
    U.insert({label((2, 0)): 1})
    peaks = []
    tracemalloc.start()
    try:
        for read, want in [(lambda: U.remainder_order([(3, {label((2, 1)): 1})]), ExtOrder.of(3)),
                           (lambda: (U.cap_start(2), U.cap_start(5)), (0, 1)),
                           (lambda: distance_order(T1, U), ExtOrder.of(1)),
                           (lambda: series_to_vec((T1,), R), {label((1, 0)): 1})]:
            tracemalloc.reset_peak()
            assert read() == want
            peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert max(peaks) < 2**20, peaks


def test_sum_intersect_dimension_formula_examples():
    R = ring(D=3)
    I = span_ideal(IdealSpec.of(R, [var(R, 0)]))
    V = span_m_power(R, 2)
    s = subspace_sum(I, V)
    x = subspace_intersect(I, V)
    assert len(s.rows) + len(x.rows) == len(I.rows) + len(V.rows)
    assert same_subspace(subspace_sum(I, I), I)
    assert same_subspace(subspace_intersect(I, I), I)


def test_intersection_is_scaled_ideal():
    # (T1) cap m^2 at D=3 equals T1*m
    R = ring(D=3)
    I = IdealSpec.of(R, [var(R, 0)])
    inter = subspace_intersect(span_ideal(I), span_m_power(R, 2))
    scaled = graded_span(I, 1)
    assert same_subspace(inter, scaled)
    assert len(inter.rows) == 5


def test_canonical_form_generator_invariance():
    # two generating sets of the same truncated ideal produce identical bases
    R = ring(D=5)
    t1, t2 = var(R, 0), var(R, 1)
    g1, g2 = t1**2 - t2**3, t1 * t2
    I = IdealSpec.of(R, [g1, g2])
    J = IdealSpec.of(R, [g1 + t2 * g2, g2, g1.scale(3)])
    assert same_subspace(span_ideal(I), span_ideal(J))


def test_member_and_distance_order():
    R = RingSpec(2, 0, 6)
    t1, t2 = var(R, 0), var(R, 1)
    I = IdealSpec.of(R, [t1**2 - t2**3])
    U = span_ideal(I)
    assert member((t1**2 - t2**3) * t2, U)
    assert not member(t1, U)
    assert distance_order((t1**2 - t2**3).scale(2), U) == ExtOrder.at_least(7)
    assert distance_order(t1, U) == ExtOrder.of(1)
    assert distance_order(t1**2, U) == ExtOrder.of(3)


def test_distance_order_matches_naive_sweep():
    R = RingSpec(2, 0, 6)
    t1, t2 = var(R, 0), var(R, 1)
    I = IdealSpec.of(R, [t1**2 - t2**3])
    U = span_ideal(I)
    for x in [t1, t2, t1**2, t1 * t2, t2**2, t1**2 + t2**2, t1**3, (t1**2 - t2**3) * t1]:
        got = distance_order(x, U)
        want = oracles.naive_nu(I, x)
        if got.exact:
            assert got.value == want
        else:
            assert want == R.trunc + 1


def test_distance_order_monotone_under_shrinking():
    R = RingSpec(2, 0, 6)
    t1, t2 = var(R, 0), var(R, 1)
    big = span_ideal(IdealSpec.of(R, [t1, t2**2]))
    small = span_ideal(IdealSpec.of(R, [t1 * t2, t2**2]))
    for x in [t1, t2, t1 + t2, t1**2 + t2**3]:
        assert distance_order(x, big) >= distance_order(x, small)


def test_ideal_and_module_specs_check_compare_and_hash():
    R, S = RingSpec(2, 0, 5), RingSpec(2, 5, 5)
    t1, t2 = var(R, 0), var(R, 1)
    I = IdealSpec.of(R, [t1, t2**2])
    assert I == IdealSpec(R, (t1, t2**2)) and hash(I) == hash(IdealSpec(R, (t1, t2**2)))
    assert I != IdealSpec(R, (t1,)) and I != IdealSpec.of(R, [t2**2, t1])
    assert I.as_module() == ModuleSpec(R, 1, ((t1,), (t2**2,)))
    assert hash(I.as_module()) == hash(ModuleSpec(R, 1, ((t1,), (t2**2,))))
    with pytest.raises(PrecondError, match="incompatible rings"):
        IdealSpec(S, (t1,))
    with pytest.raises(PrecondError, match="module arity must be >= 1"):
        ModuleSpec(R, 0, ())
    with pytest.raises(PrecondError, match="generator vector length does not match arity"):
        ModuleSpec(R, 2, ((t1,),))
    with pytest.raises(PrecondError, match="incompatible rings"):
        ModuleSpec(S, 2, ((t1, t2),))


def test_zero_ideal_distance_is_plain_order():
    R = RingSpec(2, 0, 5)
    t1, t2 = var(R, 0), var(R, 1)
    U = span_ideal(IdealSpec.of(R, []))
    for x in [t1, t1 * t2 + t2**3, TruncatedSeries.constant(R, 2)]:
        assert distance_order(x, U) == x.order()


def test_vector_membership_arity_mismatch():
    R = ring()
    U = span_m_power(R, 1, arity=2)
    with pytest.raises(PrecondError):
        member(var(R, 0), U)


def test_echelon_form_is_canonical_reduced():
    # pivot columns strictly increase, carry coefficient 1, and vanish in
    # every other row
    R = ring(D=4)
    U = span_ideal(IdealSpec.of(R, [var(R, 0) + var(R, 1) ** 2, var(R, 0) * var(R, 1)]))
    assert U.pivots == sorted(set(U.pivots))
    for pos, (p, row) in enumerate(zip(U.pivots, U.rows)):
        assert row[p] == 1
        assert min(row) == p
        for other_pos, other in enumerate(U.rows):
            if other_pos != pos:
                assert p not in other


def test_solve_linear_matches_dense_rank():
    # a system is given by columns: the image of each unknown, and the target
    R = RingSpec(2, 0, 4)
    # x0 + x2 = 3, x1 - x2 = 1: x2 is free and set to 0
    cols = [{0: 1}, {1: 1}, {0: 1, 1: -1}]
    assert solve_linear(cols, {0: 3, 1: 1}, R) == [3, 1, 0]
    # and 2*x0 + 2*x2 = 6 (consistent) or = 5 (inconsistent)
    cols3 = [{0: 1, 2: 2}, {1: 1}, {0: 1, 1: -1, 2: 2}]
    assert solve_linear(cols3, {0: 3, 1: 1, 2: 6}, R) == [3, 1, 0]
    assert solve_linear(cols3, {0: 3, 1: 1, 2: 5}, R) is None
    assert solve_linear([{0: 0}, {}], {0: 0}, R) == [0, 0]
    assert solve_linear([{0: 0}], {0: 1}, R) is None
    assert solve_linear([{0: 2}], {0: 1}, RingSpec(1, 5, 3)) == [3]
    # random systems over Q, F_2..F_7 and F_32003, explicit zero entries included:
    # consistent iff rank [A] == rank [A | b], a returned solution satisfies
    # every row, and the answer equals the per-coordinate reference exactly
    # (the same free unknowns set to zero).  The kernel read of the same graph
    # gives n - rank [A] independent vectors, each mapping to 0.
    rng = random.Random(5)
    for char in (0, 2, 3, 5, 7, 32003):
        R = RingSpec(1, char, 3)
        values = [0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 4)] if char == 0 else range(char)
        for _ in range(60):
            n = rng.randint(1, 5)
            eqs = [({k: rng.choice(values) for k in rng.sample(range(n), rng.randint(0, n))},
                    rng.choice(values)) for _ in range(rng.randint(1, 6))]
            dense = [[coeffs.get(k, 0) for k in range(n)] for coeffs, _ in eqs]
            augmented = [row + [rhs] for row, (_, rhs) in zip(dense, eqs)]
            cols = [{r: coeffs[k] for r, (coeffs, _) in enumerate(eqs) if k in coeffs} for k in range(n)]
            target = {r: rhs for r, (_, rhs) in enumerate(eqs)}
            sol = solve_linear(cols, target, R)
            assert sol == oracles.transposed_solve(cols, target, R), (char, cols, target)
            consistent = oracles.dense_rank(dense, R) == oracles.dense_rank(augmented, R)
            assert (sol is not None) == consistent
            if sol is not None:
                for row, (_, rhs) in zip(dense, eqs):
                    assert R.s_from(sum(a * x for a, x in zip(row, sol)) - rhs) == 0
            kernel = LinearMap(cols, R).kernel()
            assert len(kernel) == n - oracles.dense_rank(dense, R), (char, cols)
            assert not kernel or oracles.dense_rank(kernel, R) == len(kernel)
            for x in kernel:
                assert all(R.s_from(sum(a * c for a, c in zip(row, x))) == 0 for row in dense)


def dense_to_vec(vec, R, arity):
    """Oracle coordinates (component-major) to the package's column layout."""
    monos = monomials_up_to(R.num_vars, R.trunc)
    parts = [{} for _ in range(arity)]
    for idx, c in enumerate(vec):
        if c != 0:
            parts[idx // len(monos)][monos[idx % len(monos)]] = c
    return series_to_vec([TruncatedSeries(R, p) for p in parts], R)


def assert_matches_dense_intersection(inter, rows_u, rows_v, R, arity):
    dense = oracles.naive_intersection_basis(rows_u, rows_v, R)
    assert len(inter.rows) == oracles.dense_rank(dense, R) if dense else len(inter.rows) == 0
    # mutual containment of the two computed intersections
    for vec in dense:
        assert inter.contains_vec(dense_to_vec(vec, R, arity))


def test_intersection_equals_dense_kernel_oracle():
    R = RingSpec(2, 0, 4)
    t1, t2 = var(R, 0), var(R, 1)
    pairs = [
        ([t1], [t2]),
        ([t1, t2**2], [t1 * t2]),
        ([t1**2 - t2**3], [t1 * t2, t2**2]),
        ([t1 + t2], [t1 - t2]),
    ]
    for gens_u, gens_v in pairs:
        Iu, Iv = IdealSpec.of(R, gens_u), IdealSpec.of(R, gens_v)
        inter = subspace_intersect(span_ideal(Iu), span_ideal(Iv))
        rows_u = oracles.module_vectors(Iu.as_module())
        rows_v = oracles.module_vectors(Iv.as_module())
        assert_matches_dense_intersection(inter, rows_u, rows_v, R, 1)
    # U cap m^i read off the pivots, for ideals and an arity-2 module
    M2 = ModuleSpec(R, 2, ((t1, t2), (t2**2, t1**2 + t2**3)))
    for M in [IdealSpec.of(R, g).as_module() for g, _ in pairs] + [M2]:
        U = span_module(M)
        rows_u = oracles.module_vectors(M)
        for i in range(R.trunc + 2):
            inter = cap_m_power(U, i)
            assert same_subspace(inter, subspace_intersect(U, span_m_power(R, i, M.arity)))
            rows_v = oracles.m_power_vectors(R, i, M.arity)
            assert_matches_dense_intersection(inter, rows_u, rows_v, R, M.arity)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_dimension_formula_random(data):
    R = RingSpec(2, 7, 3)
    monos = list(monomials_up_to(2, 3))
    coeffs = st.integers(min_value=0, max_value=6)
    mk = st.dictionaries(st.sampled_from(monos), coeffs, max_size=4).map(
        lambda d: TruncatedSeries(R, d)
    )
    gens_u = [s for s in data.draw(st.lists(mk, min_size=1, max_size=2)) if not s.is_zero]
    gens_v = [s for s in data.draw(st.lists(mk, min_size=1, max_size=2)) if not s.is_zero]
    U = span_ideal(IdealSpec.of(R, gens_u))
    V = span_ideal(IdealSpec.of(R, gens_v))
    s = subspace_sum(U, V)
    x = subspace_intersect(U, V)
    assert len(s.rows) + len(x.rows) == len(U.rows) + len(V.rows)
    for row in x.rows:
        assert U.contains_vec(row) and V.contains_vec(row)
    assert contains(s, U) and contains(s, V)
    M = ModuleSpec(R, 2, tuple(zip(gens_u, gens_v)) + tuple((g, g * g) for g in gens_u))
    for W, arity in ((U, 1), (V, 1), (span_module(M), 2)):
        for i in range(R.trunc + 2):
            assert same_subspace(cap_m_power(W, i), subspace_intersect(W, span_m_power(R, i, arity)))


def assert_canonical_scalars(values, R):
    """Over Q an integral scalar is an int and any other a Fraction with
    denominator != 1; over F_p a residue in 0..p-1.  Never a float."""
    for c in values:
        if R.char:
            assert type(c) is int and 0 <= c < R.char, c
        else:
            assert type(c) is int or (type(c) is Fraction and c.denominator != 1), repr(c)


# non-integral rationals with small numerators and denominators, so that products
# and eliminations often land back on integers
SCALARS = [Fraction(1, 2), Fraction(-3, 4), Fraction(2, 3), Fraction(-5, 2), Fraction(4, 3), 1, -1, 2, 3]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_scalar_representation_random(data):
    R = data.draw(st.sampled_from([RingSpec(2, 0, 3), RingSpec(2, 0, 4), RingSpec(2, 7, 3)]))
    arity = data.draw(st.sampled_from([1, 2]))
    monos = list(monomials_up_to(R.num_vars, R.trunc))
    mk = st.dictionaries(st.sampled_from(monos), st.sampled_from(SCALARS), max_size=4).map(
        lambda d: TruncatedSeries(R, d)
    )
    vecs = data.draw(st.lists(st.tuples(*[mk] * arity), min_size=1, max_size=5))
    x = data.draw(st.tuples(*[mk] * arity))
    # ring operations
    a, b = vecs[0][0], x[0]
    for s in (a, b, a + b, a - b, a * b, -a, a.scale(Fraction(2, 3)), a * a * b):
        assert_canonical_scalars(s.terms.values(), R)
    # echelon inserts and remainders
    U = Subspace(R, arity)
    for v in vecs:
        U.insert(series_to_vec(v, R))
    for p, row in zip(U.pivots, U.rows):
        assert row[p] == 1
        assert_canonical_scalars(row.values(), R)
    dense = [oracles.dense_coords(v, R) for v in vecs]
    assert len(U.rows) == oracles.dense_rank(dense, R)
    rem = U.reduce(series_to_vec(x, R))
    assert_canonical_scalars(rem.values(), R)
    # the remainder is the canonical one: no pivot column, and x - rem lies in U
    assert not set(rem) & set(U.pivots)
    diff = [xs - rs for xs, rs in zip(x, vec_to_series(rem, R, arity))]
    assert oracles.naive_member(oracles.dense_coords(diff, R), dense, R)


def test_monomial_index_contract():
    # for N 1..4, D 1..8 and arity 1..3, against the positional layout written out
    # here (degree, then component, then monomials_of_degree order): the labels
    # sort as the layout does and are distinct; label(m, comp) = label(m) +
    # label(1, comp); a shift by u adds label(u); degree d lies in the block
    # d*step <= label < (d+1)*step of Subspace.step; degree_labels lists each
    # degree's component-0 labels in layout order; vec_to_series decodes every
    # label and series_to_vec gives it back; multiples shift by the labels of the
    # module's own arity
    for N in range(1, 5):
        for D in range(1, 9):
            R = RingSpec(N, 2, D)
            for arity in range(1, 4):
                label, step, one = labeller(N, D, arity), Subspace(R, arity).step, (0,) * N
                layout = [(comp, m) for d in range(D + 1) for comp in range(arity)
                          for m in monomials_of_degree(N, d)]
                labels = [label(m, comp) for comp, m in layout]
                assert labels == sorted(set(labels)), (N, D, arity)
                for d in range(D + 1):
                    want = tuple(k for (comp, m), k in zip(layout, labels) if comp == 0 and sum(m) == d)
                    assert degree_labels(N, D, arity, d) == want, (N, D, arity, d)
                zero = TruncatedSeries.zero(R)
                for (comp, m), k in zip(layout, labels):
                    assert sum(m) * step <= k < (sum(m) + 1) * step, (N, D, arity, comp, m)
                    assert k == label(m) + label(one, comp), (N, D, arity, comp, m)
                    xs = tuple(TruncatedSeries.monomial(R, m) if c == comp else zero for c in range(arity))
                    assert vec_to_series({k: 1}, R, arity) == xs, (N, D, arity, k)
                    assert series_to_vec(xs, R) == {k: 1}
                    for u in monomials_up_to(N, D - sum(m)):
                        assert label(tuple(a + b for a, b in zip(m, u)), comp) == k + label(u), (m, u)
                ones = (TruncatedSeries.one(R),) * arity
                for d in range(D + 1):
                    want = [{label(u, comp): 1 for comp in range(arity)} for u in monomials_of_degree(N, d)]
                    assert list(multiples(ones, d, R)) == want, (N, D, arity, d)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_multiples_are_the_monomial_products(data):
    R = RingSpec(data.draw(st.integers(1, 3)), data.draw(st.sampled_from([0, 5])), data.draw(st.integers(1, 4)))
    monos = list(monomials_up_to(R.num_vars, R.trunc))
    mk = st.dictionaries(st.sampled_from(monos), st.sampled_from(SCALARS if R.char == 0 else [1, 2, 3, 4]),
                         max_size=4).map(lambda d: TruncatedSeries(R, d))
    gen = data.draw(st.tuples(*[mk] * data.draw(st.sampled_from([1, 2]))))  # zero components allowed
    live = [g for g in gen if not g.is_zero]
    for sound in (False, True):
        # d runs one degree past D; past the cap (D - ord(gen), or D - deg(gen) when
        # sound) no vector at all, not even a zero one
        if not live:
            cap = -1
        elif sound:
            cap = R.trunc - max(g.max_degree() for g in live)
        else:
            cap = R.trunc - min(g.order().value for g in live)
        for d in range(R.trunc + 2):
            products = [[TruncatedSeries.monomial(R, u) * g for g in gen] for u in monomials_of_degree(R.num_vars, d)]
            want = [] if d > cap else [series_to_vec(p, R) for p in products]
            assert list(multiples(gen, d, R, sound)) == want, (gen, d, sound)


@st.composite
def product_cases(draw):
    """(L, g, h, top): a ring L of N = 1..3 variables over Q, F_2, F_3 or F_32003
    with trunc D + 1, two sparse series of L of degree <= D (zero allowed) and a
    cut top in 0..D + 1."""
    char = draw(st.sampled_from([0, 2, 3, 32003]))
    num_vars = draw(st.integers(1, 3))
    D = draw(st.integers(1, {1: 6, 2: 4, 3: 3}[num_vars]))
    L = RingSpec(num_vars, char, D + 1)
    scalars = SCALARS if char == 0 else sorted({1, char - 1, min(2, char - 1)})
    series = st.dictionaries(st.sampled_from(monomials_up_to(num_vars, D)), st.sampled_from(scalars),
                             max_size=4).map(lambda t: TruncatedSeries(L, t))
    return L, draw(series), draw(series), draw(st.integers(0, D + 1))


T1_OVER_Q = TruncatedSeries.variable(RingSpec(1, 0, 3), 0)


@settings(max_examples=200, deadline=None)
@given(product_cases())
# T1*T1 has its one part at degree 2: cut at top 1 it has none, at top 2 exactly that one
@example((RingSpec(1, 0, 3), T1_OVER_Q, T1_OVER_Q, 1))
@example((RingSpec(1, 0, 3), T1_OVER_Q, T1_OVER_Q, 2))
def test_graded_product_contract(case):
    # the parts of graded_product, reduced, are the homogeneous parts of g*h
    # (TruncatedSeries.__mul__) read through the labels, one per degree from
    # ord(g)+ord(h) up to min(top, deg g + deg h), none past top, each tagged
    # with its degree
    L, g, h, top = case
    label = labeller(L.num_vars, L.trunc, 1)
    G, H = graded(g, label), graded(h, label)
    for s, form in ((g, G), (h, H)):
        assert [d for d, _ in form] == sorted({sum(m) for m in s.terms})
        assert {k: c for _, terms in form for k, c in terms} == series_to_vec((s,), L)
    parts = list(graded_product(G, H, top))
    gh = g * h
    low = g.order().value + h.order().value
    high = -1 if g.is_zero or h.is_zero else min(top, g.max_degree() + h.max_degree())
    assert len(parts) == max(0, high - low + 1), (g, h, top)
    assert [e for e, _ in parts] == list(range(low, high + 1)), (g, h, top)
    p = L.char
    for e, part in parts:
        reduced = {k: r for k, c in part.items() if (r := c % p if p else c)}
        assert reduced == series_to_vec((gh.homogeneous_part(e),), L), (g, h, top, e)


def assert_pivot_index(U):
    # pivots lists the keys of row_of in increasing order, and rows their rows,
    # the very dicts that row_of holds
    assert U.pivots == sorted(U.row_of)
    assert all(U.row_of[p] is row for p, row in zip(U.pivots, U.rows))
    # holders maps each non-pivot column to the pivots of the rows holding it
    # (an emptied set may stay), and indexes no pivot column
    want = {}
    for p, row in zip(U.pivots, U.rows):
        for k in row:
            if k != p:
                want.setdefault(k, set()).add(p)
    assert {k: s for k, s in U.holders.items() if s} == want
    assert not U.holders.keys() & set(U.pivots)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_pivot_index_follows_inserts_and_copies(data):
    char = data.draw(st.sampled_from([0, 2, 3, 32003]))
    R = RingSpec(data.draw(st.integers(1, 3)), char, data.draw(st.integers(1, 4)))
    arity = data.draw(st.sampled_from([1, 2]))
    monos = list(monomials_up_to(R.num_vars, R.trunc))
    mk = st.dictionaries(st.sampled_from(monos), st.sampled_from(SCALARS if char == 0 else [1, -1, 2, 3]),
                         max_size=3).map(lambda d: TruncatedSeries(R, d))
    U = Subspace(R, arity)
    for v in data.draw(st.lists(st.tuples(*[mk] * arity), max_size=8)):
        U.insert(series_to_vec(v, R))
        assert_pivot_index(U)
    V = oracles.copy(U)
    assert_pivot_index(V)
    assert all(a is not b for a, b in zip(U.rows, V.rows))
    assert not {id(s) for s in U.holders.values()} & {id(s) for s in V.holders.values()}
    # the copy grows on its own; each unit vector back-eliminates its column
    # from every older row that holds it, in place, so the index must still
    # hold those rows themselves
    before = {p: dict(row) for p, row in U.row_of.items()}
    for comp in range(arity):
        for x in monos:
            unit = [TruncatedSeries.zero(R)] * arity
            unit[comp] = TruncatedSeries.monomial(R, x)
            V.insert(series_to_vec(unit, R))
            assert_pivot_index(V)
    label = labeller(R.num_vars, R.trunc, arity)
    assert V.rows == [{k: 1} for k in sorted(label(m, comp) for m in monos for comp in range(arity))]
    assert_pivot_index(U)
    assert U.row_of == before
    for i in range(R.trunc + 2):
        assert_pivot_index(cap_m_power(U, i))
        assert_pivot_index(span_m_power(R, i, arity))


def echelon_draws(char, arity):
    """A ring of characteristic char and sparse vectors over its columns: few
    columns and small scalars, so that new pivots often land above old rows and
    back-elimination often cancels or creates an entry."""
    R = RingSpec(2, char, 2)
    ncols = len(monomials_up_to(R.num_vars, R.trunc)) * arity
    if char == 0:
        scalars = st.sampled_from(SCALARS)
    else:
        scalars = st.one_of(st.sampled_from(sorted({1, char - 1})), st.integers(1, char - 1))
    vecs = st.lists(st.dictionaries(st.integers(0, ncols - 1), scalars, max_size=4), max_size=10)
    return st.tuples(st.just(R), st.just(ncols), vecs)


@settings(max_examples=120, deadline=None)
@given(st.tuples(st.sampled_from([0, 2, 3, 32003]), st.sampled_from([1, 2])).flatmap(lambda ca: echelon_draws(*ca)))
# back-elimination at column 3 cancels the first row's entry at 4; at column 4
# it gives two rows an entry at 5
@example((RingSpec(2, 0, 2), 6, [{0: 1, 3: 1, 4: 1}, {3: 1, 4: 1}, {1: 1, 3: 1}, {3: 1, 5: 2}]))
# each new pivot lands above the rows already there
@example((RingSpec(2, 3, 2), 12, [{5: 1, 9: 2}, {4: 2, 5: 1}, {1: 1, 4: 1, 9: 1}, {0: 2, 1: 1, 11: 1}]))
def test_insert_keeps_the_dense_rref(case):
    # after every insert the rows and pivots are those of a dense Gauss-Jordan
    # reduction of the vectors inserted so far, in canonical scalars, and the
    # column index matches the rows
    R, ncols, vecs = case
    U = Subspace(R)
    dense = []
    for vec in vecs:
        U.insert(vec)
        dense.append([vec.get(k, 0) for k in range(ncols)])
        want = oracles.dense_rref(dense, R)
        assert [[row.get(k, 0) for k in range(ncols)] for row in U.rows] == want
        assert U.pivots == [next(k for k, c in enumerate(row) if c) for row in want]
        for row in U.rows:
            assert_canonical_scalars(row.values(), R)
        assert_pivot_index(U)


@settings(max_examples=80, deadline=None)
@given(st.tuples(st.sampled_from([0, 2, 3, 32003]), st.sampled_from([1, 2])).flatmap(lambda ca: echelon_draws(*ca)))
# the insert of pivot 3 rewrites one older row, the insert of pivot 4 two
@example((RingSpec(2, 0, 2), 6, [{0: 1, 3: 1, 4: 1}, {3: 1, 4: 1}, {1: 1, 3: 1}, {3: 1, 5: 2}]))
def test_insert_returns_the_pivots_of_the_rows_it_wrote(case):
    # insert returns the pivots of exactly the rows it created or changed, the
    # new one first, and () for a vector the span already holds
    R, ncols, vecs = case
    U = Subspace(R)
    for vec in vecs:
        before = {q: dict(row) for q, row in U.row_of.items()}
        wrote = U.insert(vec)
        assert type(wrote) is tuple and len(set(wrote)) == len(wrote)
        assert set(wrote) == {q for q, row in U.row_of.items() if before.get(q) != row}
        assert U.row_of.keys() - before.keys() == set(wrote[:1])
        assert U.insert(vec) == ()


def test_insert_of_the_constant_returns_pivot_zero():
    # label 0, the constant of component 0, is a pivot like any other: the
    # growth reads as a nonempty tuple, not as the falsy pivot itself
    R = RingSpec(2, 0, 3)
    label = labeller(R.num_vars, R.trunc, 1)
    U = Subspace(R)
    assert U.insert({label((1, 0)): 1, label((0, 2)): 3}) == (label((1, 0)),)
    wrote = U.insert({label((0, 0)): 1})
    assert wrote and wrote == (0,)
    assert U.insert({label((0, 0)): 2, label((1, 0)): 1, label((0, 2)): 3}) == ()
