"""Acceptance suite: one test per criterion, each printing a PASS line with
its timing.  Exact arithmetic throughout; tolerances are zero unless a
criterion states a runtime budget."""

import random
import time
from fractions import Fraction

from artinlab.artin import artin_rees_index, solve_fx_hy, solve_linear_regular
from artinlab.bounds import BoundParams, FORMULA_IDS, evaluate_bound
from artinlab.orders import NuOracle, nu_bar_estimate
from artinlab.series import ExtOrder, RingSpec, TruncatedSeries, monomials_up_to
from artinlab.subspace import IdealSpec, ModuleSpec
from artinlab.witness import monomial_witness_family
from artinlab.parsing import parse_expr, parse_poly
from artinlab.cli import run_command

from test_bounds import _grid_params
from test_solvers import fxhy_instance, linreg_instance


def _report(num, label, t0, limit):
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE {num}: PASS - {label} ({elapsed:.2f}s < {limit}s)")
    assert elapsed < limit, f"criterion {num} exceeded its runtime budget"


def test_criterion_1_witness_family():
    t0 = time.perf_counter()
    R = RingSpec(3, 0, 36)
    for i in range(1, 7):
        rep, _ = run_command(["witness", "--i", str(i), "--trunc", "36"])
        assert rep["result"]["residual"] == ("T3" if i == 1 else f"T3^{i * i}")
        assert rep["result"]["residual_order"] == i * i
        fam = monomial_witness_family(i, R)
        assert fam.residual_order == ExtOrder.of(i * i)
        assert fam.residual == TruncatedSeries.monomial(R, (0, 0, i * i))
    _report(1, "witness residuals are literally T3^(i^2) for i = 1..6 at D = 36", t0, 1.0)


def test_criterion_2_irreducibility_certificates():
    t0 = time.perf_counter()
    for i, p, size in ((2, 2, 64), (2, 3, 729), (3, 2, 2**18)):
        rep, _ = run_command(["irr-check", "--i", str(i), "--p", str(p)])
        assert rep["result"]["search_space_size"] == size
        assert rep["result"]["factorizations_found"] == 0
    _report(2, "no non-unit factorization for (2,2), (2,3), (3,2)", t0, 30.0)


def test_criterion_3_intersection_indices():
    from artinlab.subspace import span_module
    from oracles import contains, graded_span, span_m_power, subspace_intersect

    t0 = time.perf_counter()
    R = RingSpec(2, 0, 8)
    t1, t2 = parse_poly("T1", R), parse_poly("T2", R)
    z = TruncatedSeries.zero(R)

    cases = [
        (IdealSpec.of(R, [t1]).as_module(), 1),
        (IdealSpec.of(R, [t1**2]).as_module(), 2),
        (ModuleSpec(R, 2, ((t1, z), (z, t2))), 1),
    ]
    for M, expected in cases:
        res = artin_rees_index(M)
        assert res.i0 == expected
        # independent brute-force sweep over every i in certified range,
        # straight from the definition of the inclusion
        tight_seen = False
        U = span_module(M)
        for i in range(res.certified_up_to + 1):
            inter = subspace_intersect(U, span_m_power(R, i, M.arity))
            assert contains(graded_span(M, max(i - expected, 0)), inter)
            if expected >= 1 and not contains(graded_span(M, max(i - expected + 1, 0)), inter):
                tight_seen = True
        assert tight_seen == (expected >= 1)
    _report(3, "i0 = 1, 2, 1 at D = 8, confirmed by the definition sweep", t0, 5.0)


def test_criterion_4_linear_system_consistency():
    t0 = time.perf_counter()
    R = RingSpec(2, 2, 5)
    i0 = artin_rees_index(IdealSpec.of(R, [parse_poly("T1", R)])).i0
    for i in range(4):
        rep, _ = run_command(
            ["beta-lb", "--vars", "T1,T2", "--char", "2", "--trunc", "5",
             "--system", "T1*X1", "--unknowns", "X1", "--i", str(i)]
        )
        assert rep["result"]["beta_lower_bound"] == i + 1
        assert rep["result"]["beta_lower_bound"] == i + i0
    _report(4, "beta-lb on T1*X1 equals i + 1 = i + i0 for i = 0..3", t0, 60.0)


def test_criterion_5_icl_constants():
    t0 = time.perf_counter()
    rep, _ = run_command(
        ["icl-scan", "--vars", "T1,T2", "--trunc", "8", "--ideal", "T1^2 + T2^3",
         "--deg-max", "3", "--a", "1", "--count", "40"]
    )
    assert rep["result"]["b_min"] == 1  # equals ord(g) - 2 for g = T2^3
    assert rep["result"]["violations"] == []
    top = rep["result"]["attaining_pairs"][0]
    assert (top["g"], top["h"]) == ("T1", "T1")
    assert (top["nu_g"], top["nu_h"], top["nu_gh"]) == (1, 1, 3)

    rep2, _ = run_command(
        ["icl-scan", "--vars", "T1,T2,T3", "--trunc", "8",
         "--ideal", "T1^2 + T2^2 + T3^2", "--deg-max", "3", "--a", "1", "--count", "40"]
    )
    assert rep2["result"]["b_min"] == 0
    assert rep2["result"]["violations"] == []

    rep3, _ = run_command(
        ["icl-scan", "--vars", "T1,T2", "--trunc", "8", "--ideal", "T1*T2",
         "--deg-max", "3", "--a", "1", "--count", "40"]
    )
    assert rep3["result"]["b_min"] == "unbounded-at-truncation"
    assert {"g": "T1", "h": "T2", "nu_g": 1, "nu_h": 1} in rep3["result"]["violations"]
    _report(5, "b_min = 1 (cusp, pair (T1,T1)), 0 (quadric), unbounded for (T1*T2)", t0, 60.0)


def test_criterion_6_rees_estimator():
    t0 = time.perf_counter()
    R = RingSpec(2, 0, 12)
    I = IdealSpec.of(R, [parse_poly("T1^2 - T2^3", R)])
    rep = nu_bar_estimate(I, parse_poly("T1", R), 4)
    assert rep.estimate == Fraction(3, 2)
    assert rep.nu_x == ExtOrder.of(1)
    assert Fraction(rep.nu_x.value) <= rep.estimate
    _report(6, "nu-bar estimate 3/2 with nu(T1) = 1 <= 3/2", t0, 5.0)


def test_criterion_7_solver_property_suites():
    t0 = time.perf_counter()
    # worked examples, bit-exact
    R = RingSpec(2, 0, 8)
    f_pair = [parse_poly("T1", R), parse_poly("T2^2", R)]
    cert = solve_linear_regular(
        f_pair, [parse_poly("T2^2", R), parse_poly("-T1 + T1^5", R)], 3
    )
    assert [s.to_str() for s in cert.output] == ["T2^2", "-T1"]
    cert = solve_linear_regular(f_pair, [parse_poly("T1^4", R), parse_poly("T2^3", R)], 2)
    assert [s.to_str() for s in cert.output] == ["0", "0"]
    zz = parse_poly("T1*T2 + T2^3", R)
    cert = solve_linear_regular(f_pair, [f_pair[1] * zz, -(f_pair[0] * zz)], 3)
    assert (f_pair[0] * cert.output[0] + f_pair[1] * cert.output[1]).is_zero
    assert all(p >= ExtOrder.of(4) for p in cert.proximity)

    R9 = RingSpec(2, 0, 9)
    f9 = parse_poly("T1^2 + T2^3", R9)
    h9 = parse_poly("T1", R9)
    cert = solve_fx_hy(2, f9, h9, parse_poly("T1 + T1^4", R9), -f9, 3)
    assert cert.output[0].to_str() == "T1" and cert.output[1] == -f9
    zero9 = TruncatedSeries.zero(R9)
    cert = solve_fx_hy(2, f9, h9, zero9, zero9, 3)
    assert all(s.is_zero for s in cert.output)
    z9 = parse_poly("1 + T2", R9)
    cert = solve_fx_hy(2, f9, h9, h9 * z9, -(f9 * z9), 3)
    assert cert.output == (h9 * z9, -(f9 * z9))

    # 100 seeded instances per solver
    rng = random.Random(20240817)
    for _ in range(100):
        f, x, i, en = linreg_instance(rng)
        got = solve_linear_regular(f, x, i)
        total = f[0] * got.output[0] + f[1] * got.output[1]
        assert total.is_zero
        for j, p in enumerate(got.proximity):
            assert p >= ExtOrder.of(min(i + en - f[j].order().value + 1, 11))

    rng = random.Random(911)
    ran = 0
    trials = 0
    while ran < 100 and trials < 400:
        trials += 1
        k, f, h, x, y, i, bound = fxhy_instance(rng)
        if bound > 10 or not (f * x + h * y).order() > ExtOrder.of(bound):
            continue
        ran += 1
        got = solve_fx_hy(k, f, h, x, y, i)
        assert (f * got.output[0] + h * got.output[1]).is_zero
        assert all(p >= ExtOrder.of(i + 1) for p in got.proximity)
    assert ran == 100
    _report(7, "100 seeded instances per solver: residual 0, proximities met", t0, 30.0)


def test_criterion_8_bound_catalog():
    t0 = time.perf_counter()
    assert evaluate_bound("cor48_artin", BoundParams(max_ord=2), 5) == 16
    assert evaluate_bound("lem66", BoundParams(n=2, i_I=1, c=0), 4) == 6
    assert evaluate_bound("prop74", BoundParams(a=2, n=1, t=1), 10) == 5
    for fid in FORMULA_IDS:
        for params in _grid_params(fid):
            values = [evaluate_bound(fid, params, i) for i in range(51)]
            assert values == sorted(values)
    for i in range(101):
        p = BoundParams(n=2, i_I=1, c=0)
        assert evaluate_bound("lem66", p, i) <= evaluate_bound("prop72", p, i)
    _report(8, "reference values 16, 6, 5; monotone grids; lem66 <= prop72", t0, 1.0)


def test_criterion_9_generator_invariance():
    t0 = time.perf_counter()
    rng = random.Random(1789)
    R = RingSpec(2, 0, 6)
    monos = [m for m in monomials_up_to(2, 4) if sum(m) >= 1]

    def rand_series(min_deg=1, terms=2):
        d = {}
        for _ in range(terms):
            m = rng.choice([m for m in monos if sum(m) >= min_deg])
            d[m] = rng.choice([-2, -1, 1, 2])
        return TruncatedSeries(R, d)

    tests = [parse_poly(t, R) for t in ["T1", "T2", "T1*T2", "T1^2 + T2^2", "T2^3"]]
    for trial in range(20):
        gens = [rand_series(1), rand_series(2)]
        while any(g.is_zero for g in gens):
            gens = [rand_series(1), rand_series(2)]
        I = IdealSpec.of(R, gens)
        # augment with random combinations u1*g1 + u2*g2
        extra = []
        for _ in range(2):
            u1, u2 = rand_series(0), rand_series(0)
            extra.append(u1 * gens[0] + u2 * gens[1])
        J = IdealSpec.of(R, gens + extra)
        a, b = NuOracle(I), NuOracle(J)
        for x in tests:
            assert a.nu(x) == b.nu(x), f"trial {trial}"
        assert artin_rees_index(I).i0 == artin_rees_index(J).i0, f"trial {trial}"
    _report(9, "nu and i0 invariant under augmented generating sets (20 seeds)", t0, 60.0)
