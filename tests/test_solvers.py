import random

import pytest

from artinlab import artin
from artinlab.artin import reduce_mod_principal, solve_fx_hy, solve_linear_regular
from artinlab.errors import PrecondError
from artinlab.orders import NuOracle
from artinlab.series import ExtOrder, RingSpec, TruncatedSeries, monomials_up_to
from artinlab.subspace import IdealSpec
from artinlab.parsing import parse_poly


# ---------------------------------------------------------------------------
# worked examples, bit-exact
# ---------------------------------------------------------------------------

def test_linreg_worked_example():
    R = RingSpec(2, 0, 8)
    f = [parse_poly("T1", R), parse_poly("T2^2", R)]
    x = [parse_poly("T2^2", R), parse_poly("-T1 + T1^5", R)]
    cert = solve_linear_regular(f, x, 3)
    assert [s.to_str() for s in cert.output] == ["T2^2", "-T1"]
    assert (cert.input[0] - cert.output[0]).is_zero
    assert (cert.input[1] - cert.output[1]) == parse_poly("T1^5", R)
    assert cert.proximity[1] == ExtOrder.of(5)
    assert not cert.residual_order.exact


def test_linreg_small_input_snaps_to_zero():
    R = RingSpec(2, 0, 8)
    f = [parse_poly("T1", R), parse_poly("T2^2", R)]
    cert = solve_linear_regular(f, [parse_poly("T1^4", R), parse_poly("T2^3", R)], 2)
    assert all(s.is_zero for s in cert.output)


def test_linreg_exact_solution_round_trip():
    R = RingSpec(2, 0, 8)
    f = [parse_poly("T1", R), parse_poly("T2^2", R)]
    z = parse_poly("T1*T2 + T2^3", R)
    cert = solve_linear_regular(f, [f[1] * z, -(f[0] * z)], 3)
    total = f[0] * cert.output[0] + f[1] * cert.output[1]
    assert total.is_zero
    assert all(p >= ExtOrder.of(4) for p in cert.proximity)


def test_linreg_insufficient_approximation():
    R = RingSpec(2, 0, 8)
    f = [parse_poly("T1", R), parse_poly("T2^2", R)]
    with pytest.raises(PrecondError, match="insufficient"):
        solve_linear_regular(f, [parse_poly("T2", R), parse_poly("T1", R)], 3)


def test_linreg_requires_sorted_orders():
    R = RingSpec(2, 0, 8)
    with pytest.raises(PrecondError, match="non-decreasing"):
        solve_linear_regular(
            [parse_poly("T2^2", R), parse_poly("T1", R)],
            [parse_poly("T1", R), parse_poly("T2", R)],
            1,
        )


def test_linreg_unverifiable_regularity_needs_flag():
    R = RingSpec(2, 0, 8)
    f = [parse_poly("T1 + T2", R), parse_poly("T1*T2", R)]  # regular, but not monomial
    x = [TruncatedSeries.zero(R), TruncatedSeries.zero(R)]
    with pytest.raises(PrecondError, match="assume_regular"):
        solve_linear_regular(f, x, 1)
    cert = solve_linear_regular(f, x, 1, assume_regular=True)
    assert cert.regularity == "assumed"


def test_linreg_overlapping_variables_rejected():
    # initial forms T1, T1*T2 share a variable: not a regular sequence
    R = RingSpec(2, 0, 8)
    f = [parse_poly("T1", R), parse_poly("T1*T2", R)]
    with pytest.raises(PrecondError):
        solve_linear_regular(f, [TruncatedSeries.zero(R)] * 2, 1)


def test_fxhy_worked_example():
    R = RingSpec(2, 0, 9)
    f = parse_poly("T1^2 + T2^3", R)
    h = parse_poly("T1", R)
    i = 3
    x = parse_poly("T1 + T1^4", R)
    cert = solve_fx_hy(2, f, h, x, -f, i)
    assert cert.output[0].to_str() == "T1"
    assert cert.output[1] == -f
    assert all(p >= ExtOrder.of(i + 1) for p in cert.proximity)


def test_fxhy_zero_and_exact_family():
    R = RingSpec(2, 0, 9)
    f = parse_poly("T1^2 + T2^3", R)
    h = parse_poly("T1", R)
    z0 = TruncatedSeries.zero(R)
    cert = solve_fx_hy(2, f, h, z0, z0, 3)
    assert all(s.is_zero for s in cert.output)
    z = parse_poly("1 + T2", R)
    cert2 = solve_fx_hy(2, f, h, h * z, -(f * z), 3)
    assert cert2.output[0] == h * z
    assert cert2.output[1] == -(f * z)


def test_wrong_corrections_raise_precond_error(monkeypatch):
    # a helper that returns a wrong correction must end in PrecondError (CLI
    # exit 2), never in an AssertionError that vanishes under python -O
    R = RingSpec(2, 0, 9)
    f = parse_poly("T1^2 + T2^3", R)
    h = parse_poly("T1", R)
    x = parse_poly("T1 + T1^4", R)
    with monkeypatch.context() as m:
        m.setattr(artin, "_antisymmetric_step", lambda *args: {})
        with pytest.raises(PrecondError, match="did not converge"):
            solve_linear_regular(
                [parse_poly("T1", R), parse_poly("T2^2", R)],
                [parse_poly("T2^2", R), parse_poly("-T1 + T1^5", R)],
                3,
            )
    with monkeypatch.context() as m:
        m.setattr(artin, "_solve_homogeneous", lambda gens, degrees, target, ring: [{} for _ in degrees])
        with pytest.raises(PrecondError, match="did not converge"):
            solve_fx_hy(2, f, h, x, -f, 3)
    # a wrong normal form of h survives the elimination loop and is caught
    # only by the final exactness check
    def wrong_normal_form(h_, f_, k):
        a, h1 = reduce_mod_principal(h_, f_, k)
        return a, h1 + parse_poly("T2^5", R)

    with monkeypatch.context() as m:
        m.setattr(artin, "reduce_mod_principal", wrong_normal_form)
        with pytest.raises(PrecondError, match="failed to be an exact solution"):
            solve_fx_hy(2, f, h, x, -f, 3)


def test_fxhy_shape_preconditions():
    R = RingSpec(2, 0, 9)
    h = parse_poly("T1", R)
    z = TruncatedSeries.zero(R)
    with pytest.raises(PrecondError, match="shape"):
        solve_fx_hy(2, parse_poly("T1^2 + T2^4", R), h, z, z, 2)  # ord(g) = 4 != 3
    with pytest.raises(PrecondError, match="T1 must not divide"):
        solve_fx_hy(2, parse_poly("T1^2 + T1*T2^2", R), h, z, z, 2)
    f = parse_poly("T1^2 + T2^3", R)
    with pytest.raises(PrecondError, match="lies in"):
        solve_fx_hy(2, f, f * parse_poly("T2", R), z, z, 2)
    with pytest.raises(PrecondError, match="insufficient"):
        solve_fx_hy(2, f, h, parse_poly("T2", R), parse_poly("T1", R), 3)


def test_reduce_mod_principal_normal_form():
    R = RingSpec(2, 0, 9)
    f = parse_poly("T1^2 + T2^3", R)
    for text in ["T1", "T1^3", "T1^2*T2 + T2", "T1^4 + T1^2 + 1"]:
        h = parse_poly(text, R)
        a, h1 = reduce_mod_principal(h, f, 2)
        assert a * f + h1 == h
        assert all(m[0] < 2 for m in h1.terms)


def test_reduce_mod_principal_matches_subspace_nu():
    R = RingSpec(2, 0, 9)
    f = parse_poly("T1^2 + T2^3", R)
    I = IdealSpec.of(R, [f])
    oracle = NuOracle(I)
    for text in ["T1", "T1^3", "T1^2*T2 + T2", "T1^2 + T2^3 + T2^5", "T2^2"]:
        h = parse_poly(text, R)
        _, h1 = reduce_mod_principal(h, f, 2)
        got = ExtOrder.at_least(R.trunc + 1) if h1.is_zero else h1.order()
        assert got == oracle.nu(h)


# ---------------------------------------------------------------------------
# seeded random instance suites
# ---------------------------------------------------------------------------

def random_series(rng, ring, min_deg, max_deg, nterms=3):
    monos = [m for m in monomials_up_to(ring.num_vars, max_deg) if min_deg <= sum(m)]
    terms = {}
    for _ in range(nterms):
        m = rng.choice(monos)
        terms[m] = rng.choice([-2, -1, 1, 2, 3])
    return TruncatedSeries(ring, terms)


def linreg_instance(rng):
    R = RingSpec(2, 0, 10)
    e1 = rng.choice([1, 2])
    e2 = rng.choice([2, 3])
    f = [
        TruncatedSeries.monomial(R, (e1, 0), rng.choice([1, 2, -1]))
        + random_series(rng, R, e1 + 1, e1 + 2, 1),
        TruncatedSeries.monomial(R, (0, e2), rng.choice([1, 3, -2]))
        + random_series(rng, R, e2 + 1, e2 + 2, 1),
    ]
    if f[0].order().value > f[1].order().value:
        f.reverse()
    i = rng.choice([1, 2, 3])
    en = f[1].order().value
    z = random_series(rng, R, 0, 3)
    x = [f[1] * z, -(f[0] * z)]
    # perturbations small enough to keep the residual inside m^(i+ord(fn)+1)
    x[0] = x[0] + random_series(rng, R, i + en - f[0].order().value + 1, R.trunc, 2)
    x[1] = x[1] + random_series(rng, R, i + en - f[1].order().value + 1, R.trunc, 2)
    return f, x, i, en


def test_linreg_random_suite():
    rng = random.Random(20240817)
    for trial in range(100):
        f, x, i, en = linreg_instance(rng)
        cert = solve_linear_regular(f, x, i)
        total = f[0] * cert.output[0] + f[1] * cert.output[1]
        assert total.is_zero, f"trial {trial}: residual nonzero"
        for j, p in enumerate(cert.proximity):
            need = i + en - f[j].order().value + 1
            assert p >= ExtOrder.of(min(need, 11)), f"trial {trial}: coordinate {j}"
            assert p >= ExtOrder.of(min(i + 1, 11))


def test_linreg_three_generators():
    R = RingSpec(3, 0, 10)
    f = [parse_poly(t, R) for t in ["T1", "T2^2", "T3^2"]]
    rng = random.Random(5)
    for trial in range(25):
        # random antisymmetric z builds an exact solution
        z12 = random_series(rng, R, 0, 2)
        z13 = random_series(rng, R, 0, 2)
        z23 = random_series(rng, R, 0, 2)
        x = [
            f[1] * z12 + f[2] * z13,
            -(f[0] * z12) + f[2] * z23,
            -(f[0] * z13) - (f[1] * z23),
        ]
        i = rng.choice([1, 2, 3])
        en = 2
        for j in range(3):
            lo = i + en - f[j].order().value + 1
            x[j] = x[j] + random_series(rng, R, lo, R.trunc, 2)
        cert = solve_linear_regular(f, x, i)
        total = sum((g * xb for g, xb in zip(f, cert.output)), TruncatedSeries.zero(R))
        assert total.is_zero, f"trial {trial}"
        for j, p in enumerate(cert.proximity):
            need = i + en - f[j].order().value + 1
            assert p >= ExtOrder.of(min(need, R.trunc + 1)), f"trial {trial}"


def test_linreg_equal_orders():
    # two generators of the same order keep the whole index set live at once
    R = RingSpec(2, 0, 8)
    f = [parse_poly("T1", R), parse_poly("T2", R)]
    z = parse_poly("1 + T1 + T2^2", R)
    x = [f[1] * z + parse_poly("T1^5", R), -(f[0] * z) + parse_poly("T2^6", R)]
    cert = solve_linear_regular(f, x, 3)
    total = f[0] * cert.output[0] + f[1] * cert.output[1]
    assert total.is_zero
    assert all(p >= ExtOrder.of(4) for p in cert.proximity)


def fxhy_instance(rng):
    R = RingSpec(3, 0, 10)
    k = rng.choice([1, 2])
    g = TruncatedSeries.monomial(R, (0, k + 1, 0), rng.choice([1, -1, 2])) + random_series(
        rng, R, k + 2, k + 3, 1
    )
    f = TruncatedSeries.monomial(R, (k, 0, 0)) + g
    h = random_series(rng, R, 1, 3, 2)
    a, h1 = reduce_mod_principal(h, f, k)
    if h1.is_zero:
        h = h + TruncatedSeries.monomial(R, (0, 1, 0))
        a, h1 = reduce_mod_principal(h, f, k)
    nu_h = h1.order().value
    i = rng.choice([1, 2])
    bound = i + max(k, nu_h + 1)
    if bound > R.trunc:
        i = 1
        bound = i + max(k, nu_h + 1)
    z = random_series(rng, R, 0, 2)
    x = h * z + random_series(rng, R, bound + 1 - k, R.trunc, 2)
    y = -(f * z) + random_series(rng, R, bound + 1 - nu_h, R.trunc, 2)
    return k, f, h, x, y, i, bound


def test_fxhy_random_suite():
    rng = random.Random(911)
    ran = 0
    for trial in range(100):
        k, f, h, x, y, i, bound = fxhy_instance(rng)
        if bound > 10 or not (f * x + h * y).order() > ExtOrder.of(bound):
            continue
        ran += 1
        cert = solve_fx_hy(k, f, h, x, y, i)
        residual = f * cert.output[0] + h * cert.output[1]
        assert residual.is_zero, f"trial {trial}"
        assert all(p >= ExtOrder.of(i + 1) for p in cert.proximity), f"trial {trial}"
    assert ran >= 90  # nearly every sampled instance must be admissible
