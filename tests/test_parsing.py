from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from artinlab.errors import PrecondError
from artinlab.parsing import MAX_NESTING, ParseError, parse_expr, parse_poly
from artinlab.series import RingSpec, TruncatedSeries, monomials_up_to


R3 = RingSpec(3, 0, 6)


def test_basic_terms():
    s = parse_poly("T1^2*T2 + 3*T3", R3)
    assert s.terms == {(2, 1, 0): Fraction(1), (0, 0, 1): Fraction(3)}


def test_perturbed_product_shape():
    s = parse_poly("(T1*T2 - T3^2)", R3)
    assert s == parse_poly("T1*T2", R3) - parse_poly("T3^2", R3)


def test_cancellation_to_zero():
    assert parse_poly("T1 - T1", R3).is_zero


def test_precedence_and_unary():
    assert parse_poly("-T1^2", R3) == -(parse_poly("T1", R3) ** 2)
    assert parse_poly("2*T1 + 3*T2*T1", R3) == parse_poly("T1*(2 + 3*T2)", R3)
    assert parse_poly("(T1 + T2)^2", R3) == parse_poly("T1^2 + 2*T1*T2 + T2^2", R3)
    assert parse_poly("--T1", R3) == parse_poly("T1", R3)


def test_rational_coefficients():
    s = parse_poly("1/2*T1 - 3/4", R3)
    assert s.terms[(1, 0, 0)] == Fraction(1, 2)
    assert s.terms[(0, 0, 0)] == Fraction(-3, 4)


def test_rational_coefficients_prime_field():
    R = RingSpec(2, 5, 4)
    s = parse_poly("1/2*T1", R)  # 2^-1 = 3 mod 5
    assert s.terms[(1, 0)] == 3


def test_truncation_applies():
    R = RingSpec(1, 0, 3)
    assert parse_poly("T1^9", R).is_zero


def test_unknowns_build_systems():
    poly = parse_expr("X1*X2 - (T1*T2 - T3^2)*X3", R3, unknowns=["X1", "X2", "X3"])
    assert set(poly.terms) == {(1, 1, 0), (0, 0, 1)}
    xs = [parse_poly(t, R3) for t in ["T1", "T2", "0"]]
    assert oracles.evaluate(poly, xs) == parse_poly("T1*T2", R3)


def test_error_positions():
    with pytest.raises(ParseError, match="position 5"):
        parse_poly("T1 + $", R3)
    with pytest.raises(ParseError, match="unknown variable 'Z1'"):
        parse_poly("Z1 + T1", R3)
    with pytest.raises(ParseError, match="exponent"):
        parse_poly("T1^-2", R3)
    with pytest.raises(ParseError, match="unexpected end of input at position 4"):
        parse_poly("T1 +", R3)
    with pytest.raises(ParseError):
        parse_poly("(T1", R3)


def test_deep_nesting_is_refused_at_its_position():
    # MAX_NESTING levels parse, in a series and in a system; one more is refused at
    # the opening parenthesis that passes the limit, before the descent starts
    def nested(n):
        return "-" + "(" * n + "T1" + ")" * n

    for unknowns in (None, ["X1"]):
        want = parse_expr("-T1", R3, unknowns=unknowns).terms
        assert parse_expr(nested(MAX_NESTING), R3, unknowns=unknowns).terms == want
        for n in (MAX_NESTING + 1, 10 * MAX_NESTING):
            with pytest.raises(ParseError, match=f"nested deeper than {MAX_NESTING} at position {MAX_NESTING + 1}$"):
                parse_expr(nested(n), R3, unknowns=unknowns)


def test_zero_literal():
    assert parse_poly("0", R3).is_zero


def series_strategy(ring):
    monos = list(monomials_up_to(ring.num_vars, ring.trunc))
    if ring.char == 0:
        coeffs = st.fractions(
            min_value=-5, max_value=5, max_denominator=6
        ).filter(lambda f: f != 0)
    else:
        coeffs = st.integers(min_value=1, max_value=ring.char - 1)
    return st.dictionaries(st.sampled_from(monos), coeffs, max_size=5).map(
        lambda d: TruncatedSeries(ring, d)
    )


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([RingSpec(2, 0, 4), RingSpec(3, 0, 3), RingSpec(2, 7, 4)]).flatmap(
    lambda R: st.tuples(st.just(R), series_strategy(R))
))
def test_print_parse_round_trip(data):
    R, s = data
    assert parse_poly(s.to_str(), R) == s


def expression_strategy():
    """Expression strings over T1..T3: integers, p/q (zero and non-invertible
    denominators included), + - * ^, parentheses and unary minus; one in four
    loses its last character, so malformed text is drawn too."""
    atoms = st.one_of(
        st.sampled_from(["T1", "T2", "T3"]),
        st.integers(0, 12).map(str),
        st.tuples(st.integers(0, 9), st.integers(0, 9)).map(lambda pq: "%d/%d" % pq),
    )
    text = st.recursive(atoms, lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from([" + ", " - ", "*"]), inner).map("".join),
        st.tuples(inner, st.integers(0, 4)).map(lambda t: "(%s)^%d" % t),
        st.tuples(atoms, st.integers(0, 4)).map(lambda t: "%s^%d" % t),
        inner.map(lambda e: "(%s)" % e),
        inner.map(lambda e: "-" + e),
    ), max_leaves=8)
    return st.tuples(text, st.integers(0, 3)).map(lambda t: t[0][:-1] if t[1] == 0 and len(t[0]) > 1 else t[0])


def outcome(parse):
    try:
        return parse()
    except PrecondError as exc:
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([RingSpec(3, 0, 4), RingSpec(3, 3, 4), RingSpec(3, 3, 2)]), expression_strategy())
def test_plain_series_parse_as_the_constant_term_of_a_system(R, text):
    # a system with no unknowns is a polynomial in one unknown X1; its constant
    # term is the series, and both routes fail alike on bad text
    plain = outcome(lambda: parse_poly(text, R))
    system = outcome(lambda: parse_expr(text, R, unknowns=[]).terms.get((0,), TruncatedSeries.zero(R)))
    assert plain == system, text
