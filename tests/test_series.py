import pytest
from hypothesis import given, settings, strategies as st

import oracles
from artinlab.errors import PrecondError
from artinlab.series import ExtOrder, RingSpec, TruncatedSeries, monomials_up_to
from artinlab.xpoly import PolyInX

QQ = RingSpec(2, 0, 4)
T1 = TruncatedSeries.variable(QQ, 0)
T2 = TruncatedSeries.variable(QQ, 1)


def test_product_difference_of_squares():
    assert (T1 + T2) * (T1 - T2) == T1**2 - T2**2


def test_truncation_kills_high_degrees():
    assert (T1**3 * T1**3).is_zero
    assert (T1**5).is_zero  # e > D


def test_witness_product_expansion():
    R = RingSpec(3, 0, 6)
    x = TruncatedSeries.monomial(R, (1, 1, 0)) - TruncatedSeries.monomial(R, (0, 0, 2))
    y = TruncatedSeries.monomial(R, (1, 1, 0)) + TruncatedSeries.monomial(R, (0, 0, 2))
    expected = TruncatedSeries.monomial(R, (2, 2, 0)) - TruncatedSeries.monomial(R, (0, 0, 4))
    assert x * y == expected
    assert x**2 == TruncatedSeries.monomial(R, (2, 2, 0)) - TruncatedSeries.monomial(
        R, (1, 1, 2), 2
    ) + TruncatedSeries.monomial(R, (0, 0, 4))


def test_power_basics():
    R = RingSpec(1, 0, 3)
    t = TruncatedSeries.variable(R, 0)
    one = TruncatedSeries.one(R)
    assert (one + t) ** 2 == one + t.scale(2) + t**2
    assert (t**7).is_zero
    assert t**0 == one


def test_order_values():
    s = T1**2 * T2 + TruncatedSeries.monomial(QQ, (0, 4))
    assert s.order() == ExtOrder.of(3)
    assert TruncatedSeries.zero(QQ).order() == ExtOrder.at_least(5)
    assert TruncatedSeries.constant(QQ, 5).order() == ExtOrder.of(0)


def test_homogeneous_part_and_initial_form():
    s = T1 + T1 * T2 + T2**3
    assert s.homogeneous_part(2) == T1 * T2
    assert (T1 + T1 * T2).homogeneous_part(3).is_zero
    assert (T1**2 + T2**3).initial_form() == T1**2
    mixed = (T1 * T2).scale(3) + T2**2 + T1**4
    assert mixed.initial_form() == (T1 * T2).scale(3) + T2**2
    c = TruncatedSeries.constant(QQ, 7)
    assert c.initial_form() == c
    with pytest.raises(PrecondError):
        TruncatedSeries.zero(QQ).initial_form()
    with pytest.raises(PrecondError):
        s.homogeneous_part(9)


def test_incompatible_rings_error():
    other = TruncatedSeries.variable(RingSpec(2, 0, 5), 0)
    with pytest.raises(PrecondError, match="incompatible rings"):
        T1 + other


def test_extorder_total_order_and_absorption():
    D = QQ.trunc
    top = ExtOrder.at_least(D + 1)
    assert ExtOrder.of(1) < ExtOrder.of(2) < top


def test_prime_field_arithmetic():
    R = RingSpec(2, 5, 4)
    a = TruncatedSeries.variable(R, 0).scale(3)
    assert (a + a.scale(4)).is_zero  # 3 + 12 = 15 = 0 mod 5
    assert a.scale(2) == TruncatedSeries.variable(R, 0)  # 6 = 1 mod 5


def test_extorder_at_least_dominates_under_every_comparison():
    # a tuple's own order puts (n, False) below (n, True): each of <, <=, > and >=
    # must read the key, or max and sorted pick "exactly n" over "at least n"
    low, high = ExtOrder.of(3), ExtOrder.at_least(3)
    assert low < high and low <= high and high > low and high >= low
    assert not (high < low or high <= low or low > high or low >= high)
    assert max(low, high) is high and max(high, low) is high
    assert min(low, high) is low and min(high, low) is low
    assert sorted([ExtOrder.of(4), high, ExtOrder.at_least(2), low]) == [
        ExtOrder.at_least(2), low, high, ExtOrder.of(4)]


def test_extorder_is_shared_and_frozen():
    assert ExtOrder.of(5) is ExtOrder.of(5)
    assert ExtOrder.at_least(5) == ExtOrder.at_least(5) != ExtOrder.of(5)
    for value in (ExtOrder.of(2), ExtOrder.at_least(2), RingSpec(2, 0, 4)):
        for name in value._fields:
            with pytest.raises(AttributeError):
                setattr(value, name, 1)


def test_ring_spec_validation():
    for args, message in [((0, 0, 3), "num_vars must be >= 1"), ((2, 0, 0), "trunc must be >= 1"),
                          ((2, 2**31, 3), r"prime characteristic must be < 2\^31"),
                          ((2, 4, 3), "characteristic 4 is not 0 or a prime")]:
        with pytest.raises(PrecondError, match=message):
            RingSpec(*args)
    assert RingSpec(2, 5, 4) == RingSpec(num_vars=2, char=5, trunc=4)
    assert hash(RingSpec(2, 5, 4)) == hash(RingSpec(2, 5, 4))
    assert len({RingSpec(2, 5, 4), RingSpec(2, 5, 4), RingSpec(2, 0, 4), RingSpec(2, 5, 3)}) == 3


# ---------------------------------------------------------------------------
# randomized algebra laws, exact equality of term maps
# ---------------------------------------------------------------------------

def series_strategy(ring):
    monos = list(monomials_up_to(ring.num_vars, ring.trunc))
    if ring.char == 0:
        coeffs = st.integers(min_value=-4, max_value=4)
    else:
        coeffs = st.integers(min_value=0, max_value=ring.char - 1)
    return st.dictionaries(st.sampled_from(monos), coeffs, max_size=6).map(
        lambda d: TruncatedSeries(ring, d)
    )


RINGS = [RingSpec(2, 0, 4), RingSpec(3, 5, 3)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(RINGS).flatmap(lambda R: st.tuples(st.just(R), series_strategy(R), series_strategy(R), series_strategy(R))))
def test_ring_laws(data):
    _, a, b, c = data
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a - a).is_zero


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(RINGS).flatmap(lambda R: st.tuples(st.just(R), series_strategy(R), series_strategy(R))))
def test_order_laws(data):
    R, a, b = data
    oa, ob = a.order(), b.order()
    if not a.is_zero and not b.is_zero and oa.value + ob.value <= R.trunc:
        assert (a * b).order() == ExtOrder.of(oa.value + ob.value)
    assert (a + b).order() >= min(oa, ob)
    if oa != ob:
        assert (a + b).order() == min(oa, ob)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(RINGS).flatmap(lambda R: st.tuples(st.just(R), series_strategy(R))))
def test_homogeneous_reconstruction(data):
    R, a = data
    total = TruncatedSeries.zero(R)
    for d in range(R.trunc + 1):
        total = total + a.homogeneous_part(d)
    assert total == a


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(RINGS).flatmap(lambda R: st.tuples(series_strategy(R), st.integers(0, 7))))
def test_power_is_repeated_product(data):
    # e runs past D (4 and 3 here), and the zero series is checked with every e
    a, e = data
    one = TruncatedSeries.one(a.ring)
    for base in (a, TruncatedSeries.zero(a.ring)):
        want = one
        for _ in range(e):
            want = want * base
        assert base**e == want


def xpoly_strategy(ring):
    exps = st.tuples(st.integers(0, 2), st.integers(0, 2))
    return st.dictionaries(exps, series_strategy(ring), max_size=3).map(
        lambda d: PolyInX(ring, 2, d)
    )


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(RINGS).flatmap(lambda R: st.tuples(xpoly_strategy(R), st.integers(0, 7))))
def test_polyinx_power_is_repeated_product(data):
    p, e = data
    for base in (p, PolyInX(p.ring, 2)):
        want = PolyInX.from_series(TruncatedSeries.one(p.ring), 2)
        for _ in range(e):
            want = want * base
        assert (base**e).terms == want.terms


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(RINGS).flatmap(lambda R: st.tuples(
    xpoly_strategy(R), series_strategy(R), series_strategy(R))))
def test_polyinx_eval_is_repeated_product(data):
    p, x1, x2 = data
    want = TruncatedSeries.zero(p.ring)
    for (e1, e2), coeff in p.terms.items():
        term = coeff
        for x, e in ((x1, e1), (x2, e2)):
            for _ in range(e):
                term = term * x
        want = want + term
    assert oracles.evaluate(p, [x1, x2]) == want
