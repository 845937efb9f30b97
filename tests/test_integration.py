"""Cross-module consistency: measured quantities against catalog bounds."""

import os
import subprocess
import sys
from fractions import Fraction

from artinlab.artin import artin_rees_index, beta_lower_bound_bruteforce
from artinlab.bounds import BoundParams, cross_check_bound
from artinlab.orders import NuOracle, icl_scan
from artinlab.series import RingSpec
from artinlab.subspace import IdealSpec
from artinlab.parsing import parse_expr, parse_poly


def test_measured_beta_within_linear_bound():
    # beta-lb for the one-generator linear form versus i + i0
    R = RingSpec(2, 2, 5)
    sys_ = [parse_expr("T1*X1", R, unknowns=["X1"])]
    i0 = artin_rees_index(IdealSpec.of(R, [parse_poly("T1", R)])).i0
    points = [(i, beta_lower_bound_bruteforce(sys_, i).value) for i in range(4)]
    rep = cross_check_bound("lin31", BoundParams(i_I=i0), points)
    assert rep.ok
    # and the bound is attained on the nose here
    assert all(measured == bound for _, measured, bound, _ in rep.rows)


def test_scanned_offset_matches_generator_order():
    # the scanned additive constant for T1^2 + T2^3 equals ord(g) - 2 = 1,
    # and the affine form built from it caps the scanned order data
    R = RingSpec(2, 0, 8)
    I = IdealSpec.of(R, [parse_poly("T1^2 + T2^3", R)])
    rep = icl_scan(I, 3, a=Fraction(1), seed=0, count=40)
    ord_g = 3
    assert rep.b_min == ord_g - 2
    oracle = NuOracle(I)
    x = parse_poly("T1", R)
    nu_x = oracle.nu(x).value
    points = []
    for g, h, ng, nh, ngh in rep.attaining_pairs:
        points.append((ng.value + nh.value, ngh.value))
    check = cross_check_bound(
        "prop43i", BoundParams(a=1, b=rep.b_min, nu_x=0, i_I=0), points
    )
    assert check.ok


def test_quadratic_witness_defeats_affine_candidates():
    # the certified lower-bound points i^2 - 1 escape every tabulated affine bound
    points = [(i, i * i - 1) for i in range(1, 9)]
    for i_I in (0, 1, 2, 5):
        rep = cross_check_bound("lin31", BoundParams(i_I=i_I), points)
        assert not rep.ok
        assert "no affine bound" in rep.note
    rep2 = cross_check_bound("prop43i", BoundParams(a=2, b=3, nu_x=1, i_I=2), points)
    assert not rep2.ok


def test_solver_feeds_bound_parameters():
    # ex434's exponent built from the solver's own shape data bounds the
    # proximity level the solver actually needed
    from artinlab.artin import reduce_mod_principal, solve_fx_hy
    from artinlab.bounds import evaluate_bound

    R = RingSpec(2, 0, 9)
    f = parse_poly("T1^2 + T2^3", R)
    h = parse_poly("T1", R)
    k = 2
    _, h1 = reduce_mod_principal(h, f, k)
    nu_h = h1.order().value
    i = 3
    bound = evaluate_bound("ex434", BoundParams(n=k, nu_x=nu_h), i)
    assert bound == i + max(k, nu_h + 1)
    x = parse_poly("T1 + T1^4", R)
    cert = solve_fx_hy(k, f, h, x, -f, i)
    assert (f * x + h * (-f)).order().value >= bound + 1
    assert all(p.value >= i + 1 for p in cert.proximity if p.exact)


SCRIPTS = os.path.join(os.path.dirname(__file__), os.pardir, "scripts")


def test_scripts_run_from_any_directory(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}

    def run(script, *args):
        proc = subprocess.run([sys.executable, os.path.join(SCRIPTS, script), *args],
                              cwd=tmp_path, env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    out = run("icl_survey.py", "2", "6", "5")
    # the stable inclusion scan of each of the four ideals; the cusp passes at b = 2
    assert out.count("stable inclusion at (a, b) = (1, 0):") == 4
    assert "smallest passing grid point: (Fraction(1, 1), 2)" in out
    out = run("witness_table.py", "3")
    assert "T3^9" in out and "certificate i=3 p=2: scanned 262144 pairs, 0 factorizations" in out
