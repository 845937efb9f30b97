import pytest
from hypothesis import given, settings, strategies as st

import oracles

from artinlab import witness
from artinlab.cli import main
from artinlab.errors import BudgetError, PrecondError
from artinlab.series import ExtOrder, RingSpec, TruncatedSeries, monomials_of_degree
from artinlab.witness import (
    irreducibility_exhaustive,
    lower_bound_certificate,
    monomial_witness_family,
)
from artinlab.parsing import parse_poly


def test_family_degenerate_index_one():
    R = RingSpec(3, 0, 4)
    fam = monomial_witness_family(1, R)
    assert fam.x4 == TruncatedSeries.one(R)
    assert fam.residual == parse_poly("T3", R)
    assert fam.residual_order == ExtOrder.of(1)


def test_family_index_two_closed_form():
    R = RingSpec(3, 0, 6)
    fam = monomial_witness_family(2, R)
    assert fam.x4 == parse_poly("T1*T2 + T3^2", R)
    assert fam.residual == parse_poly("T3^4", R)
    assert fam.residual_order == ExtOrder.of(4)


def test_family_index_three():
    R = RingSpec(3, 0, 9)
    fam = monomial_witness_family(3, R)
    assert fam.residual == parse_poly("T3^9", R)
    assert fam.residual_order == ExtOrder.of(9)


def test_family_exact_orders_not_just_lower_bounds():
    R = RingSpec(3, 0, 25)
    for i in range(1, 6):
        fam = monomial_witness_family(i, R)
        assert fam.residual_order == ExtOrder.of(i * i)


def test_family_structure_invariants():
    R = RingSpec(3, 0, 16)
    for i in (2, 3, 4):
        fam = monomial_witness_family(i, R)
        # third coordinate agrees with T1*T2 below degree i
        diff = fam.x3 - parse_poly("T1*T2", R)
        assert diff.order() >= ExtOrder.of(i)
        # and the initial form of x1 is not divisible by T1*T2
        mono = next(iter(fam.x1.initial_form().terms))
        assert mono[1] == 0  # no T2 at all in T1^i


def test_family_preconditions():
    with pytest.raises(PrecondError, match="truncation"):
        monomial_witness_family(3, RingSpec(3, 0, 8))
    with pytest.raises(PrecondError, match="3 variables"):
        monomial_witness_family(2, RingSpec(2, 0, 9))


def test_family_self_check_raises_precond_error(monkeypatch, capsys):
    # a wrong cofactor must end in PrecondError (CLI exit 2), never in an
    # AssertionError that prints a traceback and vanishes under python -O
    monkeypatch.setattr(witness, "comb", lambda n, k: 0)
    with pytest.raises(PrecondError, match="self-check"):
        monomial_witness_family(2, RingSpec(3, 0, 4))
    assert main(["witness", "--i", "2", "--trunc", "4"]) == 2
    assert "self-check" in capsys.readouterr().err


def test_family_char_note():
    fam = monomial_witness_family(2, RingSpec(3, 2, 6))
    assert fam.char_note is not None and "C(2,k)" in fam.char_note
    assert fam.residual == parse_poly("T3^4", RingSpec(3, 2, 6))  # identity survives


def test_certificates_small_primes():
    c = irreducibility_exhaustive(2, 2)
    assert (c.search_space_size, c.factorizations_found) == (64, 0)
    c = irreducibility_exhaustive(2, 3)
    assert (c.search_space_size, c.factorizations_found) == (729, 0)
    c = irreducibility_exhaustive(3, 2)
    assert (c.search_space_size, c.factorizations_found) == (2**18, 0)


def test_certificate_deterministic():
    a = irreducibility_exhaustive(2, 3)
    b = irreducibility_exhaustive(2, 3)
    assert (a.search_space_size, a.factorizations_found) == (
        b.search_space_size,
        b.factorizations_found,
    )


def test_scan_finds_factorizations_when_they_exist():
    # positive control: the unperturbed product T1*T2 factors, and the scan
    # must notice (e.g. x = T1, y = T2 up to units)
    from artinlab.witness import _factorization_scan

    size, found, ce = _factorization_scan({(1, 1, 0): 1}, 2, 2, 10**6)
    assert size == 64
    assert found > 0
    assert ce is not None
    # while the perturbed target admits none
    assert _factorization_scan({(1, 1, 0): 1, (0, 0, 2): -1}, 2, 2, 10**6)[1:] == (0, None)


def test_scan_counts_deeper_factorizations():
    # i = 3 solves degree 3 for the pairs (x_2, y_2) as one linear map; the
    # counts were taken from the full pairwise product.  At i = 4 depth 3 takes
    # the fixed terms x_2*y_2 off the target: (T1 + T3^2)*(T2 + T3^2) over F_3
    # has 4*3^9 factorizations, two orders times two scalars for the linear
    # layers, times the 3^(3+6) units 1 + w_1 + w_2 at depths 2 and 3, and none
    # if those terms are added instead
    from artinlab.witness import _factorization_scan

    for target, i, p, want in [
        ({(1, 1, 0): 1}, 3, 2, 16),
        ({(1, 1, 0): 1, (0, 2, 1): 1}, 3, 2, 16),
        ({(1, 1, 0): 1}, 2, 3, 4),
        ({(1, 1, 0): 1, (1, 0, 2): 1, (0, 1, 2): 1, (0, 0, 4): 1}, 4, 3, 4 * 3**9),
    ]:
        _, found, ce = _factorization_scan(target, i, p, 3**38)  # the raw space at i = 4, p = 3
        assert found == want, (target, i, p)
        # the reported pair multiplies to the target modulo m^(i+1)
        R = RingSpec(3, p, i)
        x, y = (TruncatedSeries(R, {m: c for layer in f.values() for m, c in layer.items()})
                for f in ce)
        assert x * y == TruncatedSeries(R, target)


def test_scan_matches_the_naive_loop():
    # the layers solved for at each depth give the size, the count and the first
    # pair of the loop that multiplies every y layer by x_1 (tests/oracles.py)
    from artinlab.witness import _factorization_scan

    for target, i, p, count in [
        ({(1, 1, 0): 1}, 3, 3, 108),
        ({(1, 1, 0): 1, (0, 0, 2): -1}, 2, 2, 0),
        ({(1, 1, 0): 1, (0, 0, 2): -1}, 2, 3, 0),
        ({(1, 1, 0): 1, (0, 0, 3): -1}, 3, 2, 0),
        ({(1, 1, 0): 1, (1, 0, 2): 1}, 3, 2, 16),  # T1 * (T2 + T3^2)
        ({(2, 0, 0): 1, (1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1}, 3, 2, 16),  # (T1 + T2)(T1 + T3)
        ({(2, 0, 0): 1, (0, 1, 1): 1}, 3, 2, 0),  # T1^2 + T2*T3, a cone
        ({(2, 0, 1): 1}, 3, 2, 256),  # T1^2*T3: no quadratic part, so many pairs at each depth
    ]:
        got = _factorization_scan(target, i, p, 10**9)
        assert got == oracles.naive_factorization_scan(target, i, p), (target, i, p)
        assert got[1] == count and (got[2] is None) == (count == 0), (target, i, p)


@st.composite
def scan_targets(draw):
    """A target, i and p: at i <= 3 over F_2 or i = 2 over F_3, with a quadratic part
    that is a product of two linear forms, a square, any form or zero."""
    i, p = draw(st.sampled_from([(2, 2), (3, 2), (2, 3)]))
    coeff = st.integers(0, p - 1)
    linear, quadratic = monomials_of_degree(3, 1), monomials_of_degree(3, 2)
    kind = draw(st.sampled_from(["product", "square", "form", "zero"]))
    target = {}
    if kind in ("product", "square"):
        a = draw(st.lists(coeff, min_size=3, max_size=3))
        b = a if kind == "square" else draw(st.lists(coeff, min_size=3, max_size=3))
        for m1, c1 in zip(linear, a):
            for m2, c2 in zip(linear, b):
                m = tuple(u + v for u, v in zip(m1, m2))
                target[m] = (target.get(m, 0) + c1 * c2) % p
    elif kind == "form":
        target = dict(zip(quadratic, draw(st.lists(coeff, min_size=6, max_size=6))))
    for d in range(3, i + 1):
        target.update(draw(st.dictionaries(st.sampled_from(monomials_of_degree(3, d)), coeff, max_size=3)))
    return target, i, p


@settings(max_examples=100, deadline=None)
@given(scan_targets())
def test_scan_matches_the_naive_loop_on_random_targets(case):
    # the same size, count and first pair as the naive loop (tests/oracles.py)
    from artinlab.witness import _factorization_scan

    target, i, p = case
    assert _factorization_scan(target, i, p, 10**9) == oracles.naive_factorization_scan(target, i, p)


def test_certificate_needs_prime_field():
    for p in (0, 1, 4, 6, -2):
        with pytest.raises(PrecondError, match="not a prime"):
            irreducibility_exhaustive(2, p)
    # the size gate refuses a p too large to search before any primality test
    with pytest.raises(BudgetError):
        irreducibility_exhaustive(2, 2**89 - 1)


def test_certificate_budget():
    with pytest.raises(BudgetError):
        irreducibility_exhaustive(4, 3, budget=1000)


def test_lower_bound_report():
    R = RingSpec(3, 0, 9)
    rep = lower_bound_certificate(3, R, certificate_primes=(2,), budget=10**7)
    assert [f.residual_order.value for f in rep.families] == [1, 4, 9]
    assert {(c.i, c.p) for c in rep.certificates} == {(2, 2), (3, 2)}
    assert all(c.factorizations_found == 0 for c in rep.certificates)
    assert "i^2 - 1" in rep.statement


def test_lower_bound_report_trivial_index():
    rep = lower_bound_certificate(1, RingSpec(3, 0, 4))
    assert len(rep.families) == 1
    assert rep.families[0].residual_order == ExtOrder.of(1)
    assert rep.certificates == []
