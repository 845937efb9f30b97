import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from math import ceil, comb

from hypothesis import HealthCheck, example, given, settings, strategies as st

from artinlab.cli import COMMANDS, build_parser, main, parse, run_command
from artinlab.series import RingSpec, TruncatedSeries, monomials_up_to

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def run_cli(*argv, expect=0, timeout=None):
    proc = subprocess.run(
        [sys.executable, "-m", "artinlab", *argv],
        capture_output=True,
        text=True,
        env=cli_env(),
        timeout=timeout,
    )
    assert proc.returncode == expect, proc.stderr or proc.stdout
    return proc


def test_ar_index_example():
    out = run_cli("ar-index", "--vars", "T1,T2", "--char", "0", "--trunc", "8", "--ideal", "T1")
    rep = json.loads(out.stdout)
    assert rep["result"]["i0"] == 1
    assert rep["result"]["certified_up_to"] == 7


def test_ar_index_module_rows():
    out = run_cli(
        "ar-index", "--vars", "T1,T2", "--trunc", "8", "--module", "T1,0;0,T2"
    )
    rep = json.loads(out.stdout)
    assert rep["result"]["i0"] == 1


def test_witness_example():
    out = run_cli("witness", "--i", "2", "--trunc", "6")
    rep = json.loads(out.stdout)
    assert rep["result"]["residual"] == "T3^4"
    assert rep["result"]["residual_order"] == 4


def test_bound_example():
    out = run_cli("bound", "--formula", "lem66", "--n", "2", "--iI", "1", "--c", "0", "--i", "4")
    assert json.loads(out.stdout)["result"]["value"] == 6


def test_ord_and_nu():
    out = run_cli("ord", "--vars", "T1,T2", "--trunc", "5", "--x", "T1^2*T2 + T2^4")
    assert json.loads(out.stdout)["result"]["ord"] == 3
    out = run_cli(
        "nu", "--vars", "T1,T2", "--trunc", "6", "--ideal", "T1^2 - T2^3", "--x", "T1^2"
    )
    assert json.loads(out.stdout)["result"]["nu"] == 3


def test_nubar_flags_and_csv():
    out = run_cli(
        "nubar", "--vars", "T1,T2", "--trunc", "12", "--ideal", "T1^2 - T2^3",
        "--x", "T1", "--nmax", "4",
    )
    rep = json.loads(out.stdout)
    assert rep["result"]["estimate"] == "3/2"
    out_csv = run_cli(
        "nubar", "--vars", "T1,T2", "--trunc", "12", "--ideal", "T1^2 - T2^3",
        "--x", "T1", "--nmax", "4", "--format", "csv",
    )
    lines = out_csv.stdout.strip().splitlines()
    assert lines[0] == "n,nu"
    assert lines[1:] == ["1,1", "2,3", "3,4", "4,6"]


def test_nubar_refuses_samples_past_the_truncation():
    # past n = D+1, x^n is 0 for a non-unit and a unit for a unit, so no sample
    # can change the estimate: n_max > D+1 exits 2 before the first product
    job = ("nubar", "--vars", "T1,T2", "--trunc", "4", "--ideal", "T1", "--x", "T2")
    proc = run_cli(*job, "--nmax", "100000000", expect=2, timeout=2)
    assert "n_max <= trunc + 1" in proc.stderr
    rep = json.loads(run_cli(*job, "--nmax", "5").stdout)["result"]
    assert rep["estimate"] == 1
    assert [s["n"] for s in rep["samples"]] == [1, 2, 3, 4, 5]


def test_icl_scan_cli():
    out = run_cli(
        "icl-scan", "--vars", "T1,T2", "--trunc", "8", "--ideal", "T1^2 + T2^3",
        "--deg-max", "3", "--a", "1", "--count", "20",
    )
    rep = json.loads(out.stdout)
    assert rep["result"]["b_min"] == 1
    assert rep["result"]["attaining_pairs"][0]["g"] == "T1"
    assert rep["seed"] == 0


def test_beta_lb_cli():
    out = run_cli(
        "beta-lb", "--vars", "T1,T2", "--char", "2", "--trunc", "5",
        "--system", "T1*X1", "--unknowns", "X1", "--i", "2",
    )
    rep = json.loads(out.stdout)
    assert rep["result"]["beta_lower_bound"] == 3


def test_beta_lb_with_no_unknowns():
    # an empty --unknowns still makes a system, in one unknown X1 that no term reads
    result = run_command(["beta-lb", "--vars", "T1", "--char", "2", "--trunc", "3", "--system", "T1",
                          "--unknowns", "", "--i", "0"])[0]["result"]
    assert result == {"beta_lower_bound": 1, "i": 0, "explored_nodes": 1, "reads": 0, "state_space_size": "16",
                      "solvable_classes": 0}


def test_beta_lb_of_linear_system_is_level_plus_ar_index():
    # on f.X = 0 the Artin function is i -> i + i0, with i0 the Artin-Rees index
    # of the ideal (f): both commands, in process, must agree on each case.  At
    # D = 10 and 12 the search walks one class per coset of its class map's kernel.
    # The work of the largest such walk, the last F_3 case at D = 10, i = 5, is
    # pinned: a walk of every class there runs past the default budget
    def result(*argv):
        code, out, err = captured(main, list(argv))
        assert code == 0, err
        return json.loads(out)["result"]

    for char, gens, text, unknowns, i0, levels in [
        ("2", "T1^2;T2^3", "T1^2*X1 + T2^3*X2", "X1,X2", 3, [(6, 1), (7, 2)]),
        ("2", "T1^2 + T2^3", "(T1^2 + T2^3)*X1", "X1", 2, [(6, 1), (7, 2)]),  # two-monomial coefficient
        ("2", "T1*T2", "T1*T2*X1", "X1", 2, [(7, 2)]),
        ("3", "T1^2;T2^3", "T1^2*X1 + T2^3*X2", "X1,X2", 3, [(6, 1)]),
        ("3", "T1^2 + T2^3", "(T1^2 + T2^3)*X1", "X1", 2, [(6, 1)]),
        ("3", "T1*T2", "T1*T2*X1", "X1", 2, [(6, 1)]),
    ]:
        assert result("ar-index", "--vars", "T1,T2", "--char", char, "--trunc", "8", "--ideal", gens)["i0"] == i0
        for D, i in levels + [(10, 3), (10, 5), (12, 4)]:  # past the reach of a walk of every class
            got = result("beta-lb", "--vars", "T1,T2", "--char", char, "--trunc", str(D),
                         "--system", text, "--unknowns", unknowns, "--i", str(i))
            assert got["beta_lower_bound"] == i + i0, (char, text, D, i)
            if (char, text, D, i) == ("3", "T1^2*X1 + T2^3*X2", 10, 5):
                assert (got["explored_nodes"], got["reads"], got["solvable_classes"]) == (10843, 728, 59049)


@st.composite
def stable_ar_draws(draw):
    """Over F_2 or F_3 in T1, T2 at D <= 8: generators of I with terms of degree
    2..4 and translates x with terms of degree 1..2, at most three terms each, so
    that few x lie in I and b_min is often positive."""
    R = RingSpec(2, draw(st.sampled_from([2, 3])), draw(st.integers(2, 8)))

    def series(lo, hi):
        monos = [m for m in monomials_up_to(2, min(hi, R.trunc)) if sum(m) >= lo]
        terms = st.dictionaries(st.sampled_from(monos), st.integers(1, R.char - 1), min_size=1, max_size=3)
        return st.lists(terms.map(lambda d: TruncatedSeries(R, d)), min_size=1, max_size=2)

    return R, draw(series(2, 4)), draw(series(1, 2))


@settings(max_examples=100, deadline=None)
@given(stable_ar_draws())
def test_stable_ar_grid_is_the_artin_rees_index_of_each_translate(draw):
    # the stable Artin-Rees lemma: at each slope a of the grid, b_min(a) =
    # max(0, max_x (i0_x - ceil(a*nu(x)))) over the x of decidable order, with
    # i0_x from ar-index on (x)+I and nu(x) from nu
    R, gens, xs = draw
    ring = ["--vars", "T1,T2", "--char", str(R.char), "--trunc", str(R.trunc)]

    def result(*argv):
        return run_command([*argv, *ring])[0]["result"]

    ideal = ";".join(g.to_str() for g in gens)
    offsets = []  # (nu(x), i0_x)
    for x in xs:
        nu = result("nu", "--ideal=" + ideal, "--x=" + x.to_str())["nu"]
        if isinstance(nu, str):  # ">=D+1": stable-ar skips x
            continue
        offsets.append((nu, result("ar-index", "--ideal=" + ideal + ";" + x.to_str())["i0"]))
    stable = result("stable-ar", "--ideal=" + ideal, "--xs=" + ";".join(x.to_str() for x in xs))
    for point in stable["grid"]:
        if point["b_min"] is not None:
            a = Fraction(point["a"])
            assert point["b_min"] == max([0] + [i0 - ceil(a * nu) for nu, i0 in offsets]), (draw, point)


def test_stable_ar_checks_the_range_ar_index_certifies():
    # T1^2 is redundant in (T1, T1^2): both commands drop it, so stable-ar checks
    # exponents up to the range ar-index certifies, 8 - 1, not 8 - 2
    ring = ["--vars", "T1,T2", "--trunc", "8"]
    stable = run_command(["stable-ar", *ring, "--ideal", "T1^2", "--xs", "T1"])[0]["result"]
    ar = run_command(["ar-index", *ring, "--ideal", "T1;T1^2"])[0]["result"]
    assert max(check["exponent"] for check in stable["checks"]) == ar["certified_up_to"] == 7


def test_irr_check_cli():
    out = run_cli("irr-check", "--i", "2", "--p", "3")
    rep = json.loads(out.stdout)
    assert rep["result"]["search_space_size"] == 729
    assert rep["result"]["factorizations_found"] == 0


def test_record_reports_print_their_fields_in_order():
    # a report record prints as the dict of its fields, in declaration order; the
    # first factorization the scan finds is not part of any certificate
    from artinlab import artin, witness

    cert_keys = ["i", "p", "search_space_size", "factorizations_found", "method"]
    assert list(witness.IrreducibilityCertificate._fields) == cert_keys
    ring = ("--vars", "T1,T2,T3", "--trunc", "9")
    cases = [(("irr-check", "--i", "2", "--p", "2"), witness.IrreducibilityCertificate),
             (("witness", "--i", "2", *ring), witness.WitnessFamily),
             (("solve-linreg", *ring, "--gens", "T1;T2^2", "--x", "T2^2; -T1", "--i", "3"),
              artin.SolveCertificate)]
    for argv, record in cases:
        assert list(run_command(list(argv))[0]["result"]) == list(record._fields)
    report = run_command(["witness", "--i-max", "2", *ring])[0]["result"]
    assert list(report) == list(witness.LowerBoundReport._fields)
    assert [list(f) for f in report["families"]] == [list(witness.WitnessFamily._fields)] * 2
    assert [list(c) for c in report["certificates"]] == [cert_keys] * 2


def test_solver_cli():
    out = run_cli(
        "solve-linreg", "--vars", "T1,T2", "--trunc", "8",
        "--gens", "T1;T2^2", "--x", "T2^2; -T1 + T1^5", "--i", "3",
    )
    rep = json.loads(out.stdout)
    assert rep["result"]["output"] == ["T2^2", "-T1"]
    out = run_cli(
        "solve-fxhy", "--vars", "T1,T2", "--trunc", "9", "--k", "2",
        "--f", "T1^2 + T2^3", "--h", "T1", "--x", "T1 + T1^4", "--y", "-T1^2 - T2^3",
        "--i", "3",
    )
    rep = json.loads(out.stdout)
    assert rep["result"]["output"][0] == "T1"


def test_byte_identical_reruns():
    argv = (
        "icl-scan", "--vars", "T1,T2", "--trunc", "8", "--ideal", "T1^2 + T2^3",
        "--deg-max", "3", "--a", "1", "--count", "15", "--seed", "7",
    )
    assert run_cli(*argv).stdout == run_cli(*argv).stdout
    argv2 = ("witness", "--i", "3", "--trunc", "9")
    assert run_cli(*argv2).stdout == run_cli(*argv2).stdout


def test_exit_code_precondition():
    proc = run_cli(
        "icl-scan", "--vars", "T1,T2", "--trunc", "4", "--ideal", "T1",
        "--deg-max", "3", "--a", "1", expect=2,
    )
    assert "precondition" in proc.stderr
    # the scan candidates are monomials of degree 1..deg_max: an empty range is refused
    proc = run_cli(
        "valcheck", "--vars", "T1,T2", "--trunc", "8", "--ideal", "T1*T2", "--deg-max", "-2",
        expect=2,
    )
    assert "deg_max must be >= 1" in proc.stderr
    # the no-factorization certificate is over the field F_p
    for p in ("0", "1", "4", "-2"):
        proc = run_cli("irr-check", "--i", "2", "--p", p, expect=2)
        assert "not a prime" in proc.stderr
    # a p below 2 is no prime whatever the size of the space
    proc = run_cli("irr-check", "--i", "40", "--p", "-2", "--budget", "0", expect=2, timeout=2)
    assert "p = -2 is not a prime" in proc.stderr
    # a huge --char is refused by its bound, before any trial division
    proc = run_cli("ord", "--char", "1000000000000000003", "--trunc", "2", "--x", "T1",
                   expect=2, timeout=30)
    assert "must be < 2^31" in proc.stderr
    # stable-ar reads the profile at i + ceil(a*nu(x)) + b, so a negative offset is refused
    proc = run_cli("stable-ar", "--vars", "T1,T2", "--trunc", "8", "--ideal", "T1^2 + T2^3",
                   "--xs", "T1;T2", "--a", "1", "--b", "-3", expect=2)
    assert "ceil(a*nu(x)) + b = -2 < 0 for x = T1" in proc.stderr


def test_exit_code_budget():
    proc = run_cli(
        "beta-lb", "--vars", "T1,T2", "--char", "2", "--trunc", "5",
        "--system", "T1*X1", "--unknowns", "X1", "--i", "2", "--budget", "3",
        expect=3,
    )
    assert "budget" in proc.stderr
    # a zero budget is a budget, not a request for the default
    proc = run_cli(
        "icl-scan", "--vars", "T1,T2", "--trunc", "8", "--ideal", "T1^2 + T2^3",
        "--deg-max", "3", "--a", "1", "--budget", "0", expect=3,
    )
    assert "budget" in proc.stderr
    # nu counts its echelon columns, C(4+40, 4) here, before building any span
    proc = run_cli(
        "nu", "--vars", "T1,T2,T3,T4", "--trunc", "40", "--ideal", "T1^2 - T2^3",
        "--x", "T1*T2", expect=3, timeout=30,
    )
    assert "135751 columns > budget 20000" in proc.stderr
    # an exhaustive space is gated on its exponent and printed as p^e: none of
    # these builds p^e, so none ends in the 4300-digit limit of int printing
    for argv, message in (
        (("irr-check", "--i", "40", "--p", "2"), "search space has size 2^22958 > budget 10000000"),
        (("irr-check", "--i", "2000", "--p", "2"), "search space has size 2^2670667998 > budget"),
        (("icl-scan", "--vars", "T1,T2,T3,T4,T5", "--char", "3", "--trunc", "40", "--ideal", "T1",
          "--deg-max", "20", "--mode", "exhaustive"), "candidate space has size 3^53130 > budget"),
        (("beta-lb", "--vars", "T1,T2,T3", "--char", "2", "--trunc", "50", "--system", "X1^2 + T1*X2",
          "--unknowns", "X1,X2", "--i", "0", "--budget", "5"), "raw state space has size 2^46852"),
        # a random pool is refused on its count before the first draw, not after
        # building 10^6 candidates or spinning through 50*(count+1) draws
        (("valcheck", "--vars", "T1,T2", "--trunc", "8", "--ideal", "T1", "--deg-max", "3",
          "--count", "1000000", "--budget", "1000"), "random candidate count 1000000 > budget 1000"),
        (("icl-scan", "--vars", "T1", "--char", "2", "--trunc", "2", "--deg-max", "1", "--ideal", "0",
          "--count", "100000000", "--a", "1"), "random candidate count 100000000 > budget 200000"),
    ):
        proc = run_cli(*argv, expect=3, timeout=2)
        assert message in proc.stderr and "Traceback" not in proc.stderr
    # this search fits its budget; its state space, past 3000 digits, is reported as p^e
    proc = run_cli("beta-lb", "--vars", "T1,T2,T3,T4", "--char", "2", "--trunc", "40",
                   "--system", "T1^40*X1", "--unknowns", "X1", "--i", "0", timeout=10)
    assert json.loads(proc.stdout)["result"]["state_space_size"] == "2^135751"


def test_beta_lb_budget_counts_the_one_walk():
    # the budget counts the nodes and reads of the one search walk: the first search
    # needs 31 nodes, so it answers at a budget of 40 and is refused at 30, after 31
    # nodes; the second needs 547 nodes and 68 reads, so it answers at 615, and at
    # 614 it is refused at its last read
    argv = ("beta-lb", "--vars", "T1,T2", "--char", "2", "--trunc", "5", "--system", "T1*X1",
            "--unknowns", "X1", "--i", "3", "--budget")
    rep = json.loads(run_cli(*argv, "40", timeout=10).stdout)["result"]
    assert (rep["beta_lower_bound"], rep["explored_nodes"], rep["reads"]) == (4, 31, 0)
    proc = run_cli(*argv, "30", expect=3, timeout=10)
    assert "budget 30 exhausted after 31 nodes and 0 reads" in proc.stderr and "Traceback" not in proc.stderr
    argv = ("beta-lb", "--vars", "T1,T2", "--char", "2", "--trunc", "5", "--system", "X1*X2 - T1*T2",
            "--unknowns", "X1,X2", "--i", "2", "--budget")
    rep = json.loads(run_cli(*argv, "615", timeout=10).stdout)["result"]
    assert (rep["beta_lower_bound"], rep["explored_nodes"], rep["reads"]) == (3, 547, 68)
    proc = run_cli(*argv, "614", expect=3, timeout=10)
    assert "budget 614 exhausted after 547 nodes and 68 reads" in proc.stderr and "Traceback" not in proc.stderr


def test_random_scan_stops_when_the_finite_space_runs_out():
    # on 1 and T1 a draw can give 3 nonzero series over F_2 and 48 over Q (each
    # coefficient absent or one of six integers): the random stream ends once it
    # has them all, not after 50*(count+1) draws
    for char, series in (("2", 3), ("0", 48)):
        proc = run_cli("icl-scan", "--vars", "T1", "--char", char, "--trunc", "2", "--deg-max", "1",
                       "--ideal", "0", "--count", "200000", "--a", "1", timeout=2)
        assert json.loads(proc.stdout)["result"]["pairs_scanned"] == series * (series + 1) // 2


def test_pair_scan_refused_before_its_first_pair():
    # the pair count k*(k+1)/2 is known once the k candidates with exact nu are:
    # a scan past its budget exits 3 there, not after budget pairs of echelon work
    for argv, message in (
        (("valcheck", "--vars", "T1,T2", "--char", "2", "--trunc", "8", "--ideal", "T1*T2", "--deg-max", "3",
          "--mode", "exhaustive"), "pair scan has 516636 pairs > budget 200000"),
        (("icl-scan", "--vars", "T1,T2,T3", "--char", "2", "--trunc", "8", "--ideal", "T1^2+T2^2+T3^2",
          "--deg-max", "2", "--mode", "exhaustive"), "pair scan has 522753 pairs > budget 200000"),
    ):
        proc = run_cli(*argv, expect=3, timeout=2)
        assert message in proc.stderr and "Traceback" not in proc.stderr


def test_beta_lb_deep_searches_answer():
    # no search is refused for its depth: X1^2 at D = 1800 cuts at k = 901 and
    # walks the zero class through 901 slots; T1*X1 cuts at k = i + 1 whatever D.
    # --budget, nodes plus reads, is the only bound on a search
    argv = ("beta-lb", "--vars", "T1", "--char", "2", "--unknowns", "X1", "--i", "0")
    for text, trunc, pinned in (("X1^2", "1800", (0, 903, 0, 1)), ("T1*X1", "990", (1, 3, 0, 1))):
        rep = json.loads(run_cli(*argv, "--system", text, "--trunc", trunc, timeout=10).stdout)["result"]
        got = tuple(rep[k] for k in ("beta_lower_bound", "explored_nodes", "reads", "solvable_classes"))
        assert got == pinned, (text, got)


def test_deep_beta_search_builds_nothing_per_monomial_up_front():
    # the search over T1, T2 at D = 1800 (1,623,601 monomials) is built, in a fresh
    # process, at a peak far below one word per monomial: it keeps a few words per
    # slot and labels a slot's monomials only when its walk first reads the slot
    code = (
        "import tracemalloc\n"
        "from artinlab.artin import _BetaSearch\n"
        "from artinlab.parsing import parse_expr\n"
        "from artinlab.series import RingSpec\n"
        "system = [parse_expr('X1^2', RingSpec(2, 2, 1800), unknowns=['X1'])]\n"
        "tracemalloc.start()\n"
        "search = _BetaSearch(system, 0, 2_000_000)\n"
        "print(tracemalloc.get_traced_memory()[1], len(search.slots))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=cli_env(), timeout=10)
    assert proc.returncode == 0, proc.stderr
    peak, slots = map(int, proc.stdout.split())
    assert slots == 1801 and peak < 5 * 2**20, (peak, slots)


def test_beta_lb_budget_refusal_builds_nothing_per_monomial():
    # a search builds a degree's keys when its walk first reads that degree and
    # labels its own coefficients with no table of the ring: in a fresh process the
    # search over T1, T2 at D = 800 (321,201 monomials), refused by --budget 1 at
    # its second node, peaks far below one word per monomial (66 MiB of RSS when
    # it built every key and the ring's monomial index up front)
    argv = ("beta-lb", "--vars", "T1,T2", "--char", "2", "--trunc", "800", "--system", "T1*X1",
            "--unknowns", "X1", "--i", "0", "--budget", "1")
    assert "budget 1 exhausted after 2 nodes" in run_cli(*argv, expect=3, timeout=10).stderr
    code = (
        "import tracemalloc\n"
        "from artinlab.artin import _BetaSearch\n"
        "from artinlab.errors import BudgetError\n"
        "from artinlab.parsing import parse_expr\n"
        "from artinlab.series import RingSpec\n"
        "system = [parse_expr('T1*X1', RingSpec(2, 2, 800), unknowns=['X1'])]\n"
        "tracemalloc.start()\n"
        "try:\n"
        "    _BetaSearch(system, 0, 1).run()\n"
        "except BudgetError as exc:\n"
        "    print(tracemalloc.get_traced_memory()[1], exc)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=cli_env(), timeout=10)
    assert proc.returncode == 0, proc.stderr
    peak, message = proc.stdout.split(" ", 1)
    assert message.startswith("enumeration budget 1 exhausted after 2 nodes"), message
    assert int(peak) < 5 * 2**20, peak


def test_beta_lb_width_guard():
    # a slot's shift map is built once, over its degree-d monomials: no per-slot
    # work that grows with p^dim_d, so a wide ring answers, or is refused by its
    # budget, in well under the timeout
    proc = run_cli("beta-lb", "--vars", "T1,T2,T3", "--char", "2", "--trunc", "12", "--system",
                   "X1^2 + T1*X2", "--unknowns", "X1,X2", "--i", "0", "--budget", "50", timeout=2)
    assert json.loads(proc.stdout)["result"]["explored_nodes"] == 17
    proc = run_cli("beta-lb", "--vars", "T1,T2,T3,T4", "--char", "2", "--trunc", "30", "--system",
                   "T1*X1 + T2*X2", "--unknowns", "X1,X2", "--i", "2", "--budget", "1000", expect=3, timeout=2)
    assert "budget 1000 exhausted after 1001 nodes and 0 reads" in proc.stderr and "Traceback" not in proc.stderr


def test_beta_lb_long_walk_keeps_no_layers():
    # X1^2 at i = 0 cuts at k = D/2 + 1 and reads each degree below k about once: a
    # long walk that answers well under the timeout and keeps no degree's layers.
    # In a fresh process, with the process-wide table of monomials built first, the
    # search, built and walked, peaks under 16 words per monomial of the ring, and
    # under 16 words per monomial of the 101 degrees it reads: its keys and the
    # streams' state (91 bytes per monomial read when written; choices built on a
    # degree's first read took 196)
    proc = run_cli("beta-lb", "--vars", "T1,T2", "--char", "2", "--trunc", "400", "--system", "X1^2",
                   "--unknowns", "X1", "--i", "0", timeout=10)
    assert json.loads(proc.stdout)["result"]["explored_nodes"] == 203
    code = (
        "import tracemalloc\n"
        "from artinlab.artin import _BetaSearch\n"
        "from artinlab.parsing import parse_expr\n"
        "from artinlab.series import RingSpec, monomials_up_to\n"
        "system = [parse_expr('X1^2', RingSpec(2, 2, 200), unknowns=['X1'])]\n"
        "monomials_up_to(2, 200)\n"
        "tracemalloc.start()\n"
        "assert _BetaSearch(system, 0, 10_000).run().explored_nodes == 103\n"
        "print(tracemalloc.get_traced_memory()[1])\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=cli_env(), timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 128 * comb(200 + 2, 2), proc.stdout
    assert int(proc.stdout) < 128 * comb(100 + 2, 2), proc.stdout


def test_beta_lb_huge_exponent():
    # powers of an unknown are kept only at the exponents of the system and taken by
    # square-and-multiply, so a huge exponent costs about log2 of it, not itself
    proc = run_cli("beta-lb", "--vars", "T1", "--char", "2", "--trunc", "3", "--system", "X1^99999999999",
                   "--unknowns", "X1", "--i", "0", timeout=2)
    assert json.loads(proc.stdout)["result"]["explored_nodes"] == 3


def test_parse_error_exit_code():
    proc = run_cli(
        "ord", "--vars", "T1,T2", "--trunc", "4", "--x", "T9 + 1", expect=2
    )
    assert "unknown variable" in proc.stderr
    proc = run_cli(
        "cross-check", "--formula", "lin31", "--iI", "3", "--points", "1=x", expect=2
    )
    assert "bad point" in proc.stderr
    proc = run_cli("ord", "--vars", "T1,T1", "--trunc", "4", "--x", "T1", expect=2)
    assert "duplicate name in --vars" in proc.stderr
    proc = run_cli(
        "beta-lb", "--vars", "T1,T2", "--char", "2", "--trunc", "4",
        "--system", "X1*X1 + T1", "--unknowns", "X1,X1", "--i", "1", expect=2,
    )
    assert "duplicate name in --unknowns" in proc.stderr
    # a negative budget or count is a malformed flag, refused before any work
    for flag, value in (("--budget", "-5"), ("--count", "-1")):
        proc = run_cli(
            "icl-scan", "--vars", "T1,T2", "--trunc", "8", "--ideal", "T1", "--deg-max", "3",
            "--a", "1", flag, value, expect=2,
        )
        assert f"argument {flag}: must be >= 0, got {value}" in proc.stderr
    proc = run_cli(
        "beta-lb", "--vars", "T1,T2", "--char", "2", "--trunc", "5",
        "--system", "T1*X1", "--unknowns", "X1", "--i", "2", "--budget", "-1", expect=2,
    )
    assert "argument --budget: must be >= 0" in proc.stderr
    proc = run_cli("irr-check", "--i", "2", "--p", "3", "--budget", "ten", expect=2)
    assert "argument --budget: invalid int value: 'ten'" in proc.stderr
    proc = run_cli("stable-ar", "--vars", "T1,T2", "--trunc", "8", "--ideal", "T1^2 + T2^3",
                   "--xs", "T1;T2", "--grid-b-max", "-1", expect=2)
    assert "argument --grid-b-max: must be >= 0, got -1" in proc.stderr
    # a command takes only the flags it reads: one it would ignore is refused
    for argv in (
        ("ord", "--vars", "T1,T2", "--trunc", "5", "--x", "T1", "--seed", "3"),
        ("ar-index", "--vars", "T1,T2", "--trunc", "8", "--ideal", "T1", "--budget", "10"),
        ("irr-check", "--i", "2", "--p", "3", "--trunc", "4"),
    ):
        proc = run_cli(*argv, expect=2)
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in proc.stderr


def test_out_file(tmp_path):
    path = tmp_path / "report.json"
    run_cli("bound", "--formula", "lin31", "--iI", "1", "--i", "3", "--out", str(path))
    assert json.loads(path.read_text())["result"]["value"] == 4


def test_unwritable_out_file_exits_2(tmp_path):
    # a missing directory or a directory as the path: an error line and exit 2, no traceback
    for path, reason in [(tmp_path / "missing" / "x", "No such file or directory"), (tmp_path, "Is a directory")]:
        proc = run_cli("ar-index", "--vars", "T1", "--trunc", "3", "--ideal", "T1", "--out", str(path), expect=2)
        assert proc.stdout == "" and "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: precondition violated: cannot write the report: ")
        assert reason in proc.stderr


def test_stable_ar_cli():
    out = run_cli(
        "stable-ar", "--vars", "T1,T2", "--trunc", "8", "--ideal", "0",
        "--xs", "T1;T1^2", "--a", "1", "--b", "0",
    )
    rep = json.loads(out.stdout)
    assert rep["result"]["all_hold"] is True


def test_cross_check_cli():
    out = run_cli(
        "cross-check", "--formula", "lin31", "--iI", "3",
        "--points", "1=0;2=3;3=8;4=15",
    )
    rep = json.loads(out.stdout)
    assert rep["result"]["ok"] is False
    assert "no affine bound" in rep["result"]["note"]


# sha256 of the stdout bytes of each invocation; a change here is a change to
# the output contract in docs/report-schema.md and must be deliberate
PINNED_OUTPUTS = [
    (("nu", "--vars", "T1,T2", "--trunc", "8", "--ideal", "T1^2 - T2^3", "--x", "T1*T2 + T2^4"),
     "3733a13967b28b471c620805402cb76b05f20e50bd0cfe0f9d0b2c86e3e88489"),
    (("nubar", "--vars", "T1,T2", "--trunc", "12", "--ideal", "T1^2 - T2^3", "--x", "T1",
      "--nmax", "4"),
     "c838a8d4edcbda3208299ec2d86c88b963db401daa10037f3d6a9c42fddd5b26"),
    (("icl-scan", "--vars", "T1,T2", "--trunc", "8", "--ideal", "T1^2 + T2^3", "--deg-max", "3",
      "--count", "10", "--seed", "3"),
     "eca4cfdf1d3573c805e4b27aec9bde1fb6493dd126769474cc7f9d6e768fb95a"),
    (("icl-scan", "--vars", "T1,T2", "--trunc", "8", "--ideal", "T1^2 + T2^3", "--deg-max", "3",
      "--a", "1", "--count", "15", "--seed", "7"),
     "9484ac82b5a2d4ed11a0d3c4fd0a4b8dc8b633047fe9bced51be211c75e8e14f"),
    (("valcheck", "--vars", "T1,T2", "--trunc", "8", "--ideal", "T1*T2", "--deg-max", "3",
      "--count", "10", "--seed", "1"),
     "9c8c2e2dc651b46d1af2d83b10af9721a44e6e64905d9f601c43e7f8fe107d82"),
    (("stable-ar", "--vars", "T1,T2", "--trunc", "8", "--ideal", "T1^2 + T2^3",
      "--xs", "T1;T2;T1*T2", "--grid-b-max", "4"),
     "d5b9d0bac73966e45dda16ceee5ae48da09a74c3bd69cbe32bb4023b8893c800"),
    (("solve-linreg", "--vars", "T1,T2", "--trunc", "8", "--gens", "T1;T2^2",
      "--x", "T2^2; -T1 + T1^5", "--i", "3"),
     "01a8d2e81aa9da08f16c2d1691886c5a3f63b3ae83b8f19804ab27442040cfcb"),
    (("solve-fxhy", "--vars", "T1,T2", "--trunc", "9", "--k", "2", "--f", "T1^2 + T2^3",
      "--h", "T1", "--x", "T1 + T1^4", "--y", "-T1^2 - T2^3", "--i", "3"),
     "974d4ee9e903bbe00c416fe58f1202dc80e091db7bbf3c4226733e0222b06b55"),
    (("ar-index", "--vars", "T1,T2", "--trunc", "8", "--ideal", "T1^2 - T2^3; T1*T2^2"),
     "970de9e8bbc186d0208a362a8a759a5683a36a7e4a89bc6e9726722bcdbb1e94"),
    (("ar-index", "--vars", "T1,T2", "--trunc", "8", "--module", "T1,0;0,T2"),
     "b20273b3941a4dca18254c763d0fbe039f9e4cfa7f6edc542ab591fe854a5b9d"),
    (("ord", "--vars", "T1,T2", "--trunc", "5", "--x", "T1^2*T2 + T2^4"),
     "096e9a97bf2cf24010c5ef1f2e99a158782a580993d2176c638e193d0321b36f"),
    (("beta-lb", "--vars", "T1,T2", "--char", "2", "--trunc", "5", "--system", "T1*X1",
      "--unknowns", "X1", "--i", "2"),
     "46e744d6ecf1502481772d628e1aadcc962952296d8e4e84156b01ad98f85568"),
    # an exponent 2 (the search's power lists), a cross term, and F_3
    (("beta-lb", "--vars", "T1,T2", "--char", "2", "--trunc", "4", "--system", "X1^2 + T1*X2",
      "--unknowns", "X1,X2", "--i", "2"),
     "fe14af9c4ebce4d23ce0f1094faa0c7b3fe8053c3920d61e35086ab726f9fed2"),
    (("beta-lb", "--vars", "T1,T2", "--char", "2", "--trunc", "4", "--system", "X1*X2 - T1*T2",
      "--unknowns", "X1,X2", "--i", "2"),
     "34df2eac0592fb910bb2bd055506190a85bf78a55f0823c67145fde319dd69e1"),
    (("beta-lb", "--vars", "T1,T2", "--char", "3", "--trunc", "4", "--system", "T1*X1 + T2*X2",
      "--unknowns", "X1,X2", "--i", "1"),
     "db7f5c66a43561471f6dd579d4362630c7183cf66995180459358d9a45acc1c4"),
    (("witness", "--i", "3", "--trunc", "9"),
     "c2506e32f92138c2901bab71bfa1a6ac2f00881679dfda3b63429f0db4fbb3ef"),
    (("witness", "--i", "2", "--char", "2", "--trunc", "6"),
     "2c899bc749f5704471485a04bdcada860fe10709bfc6e7eb561c050bf4ede64f"),
    (("witness", "--i-max", "3", "--trunc", "9"),
     "68088a583547de4fe828d0457199fc3e1bef42198b960a20423506a71ca65084"),
    (("irr-check", "--i", "2", "--p", "3"),
     "4cdcdec09030d30df175cf7c02951717ac9523844dbbb8aac3b1c284bfc110c2"),
    (("bound", "--formula", "prop43ii", "--a", "3/2", "--b", "1", "--c", "1/2", "--iI", "2",
      "--i", "5"),
     "38460255a58e2ce11e1fdc03630b8fb2f61e9631f3c6d25d216e39eff2619e0a"),
    (("cross-check", "--formula", "lin31", "--iI", "3", "--points", "1=0;2=3;3=8;4=15"),
     "af5cb18acb16bed1db9f8655000cb14e13d45adb9d29c9816a84336df59f0077"),
    # --format csv: the natural table of each command, and one key,value flattening
    (("nubar", "--vars", "T1,T2", "--trunc", "12", "--ideal", "T1^2 - T2^3", "--x", "T1",
      "--nmax", "4", "--format", "csv"),
     "48fc0261fc538177a7e945965f261b740fe93de5219a99ceb0062895ea73a4d3"),
    (("icl-scan", "--vars", "T1,T2", "--trunc", "8", "--ideal", "T1^2 + T2^3", "--deg-max",
      "3", "--a", "1", "--count", "15", "--seed", "7", "--format", "csv"),
     "6bf4106994722e84b78011d1b7e1109ba52f8cc792414cbf0f379ad58d3bcc97"),
    (("stable-ar", "--vars", "T1,T2", "--trunc", "8", "--ideal", "T1^2 + T2^3", "--xs",
      "T1;T2;T1*T2", "--grid-b-max", "4", "--format", "csv"),
     "6c5579318468ff60ab3a26b0a1d4388a890eb36e6bbf61217328c128d606497d"),
    (("cross-check", "--formula", "lin31", "--iI", "3", "--points", "1=0;2=3;3=8;4=15",
      "--format", "csv"),
     "45cf35fc6cd3df46b614200d07d69490e6a6d6b752ecfcbf03edcf0dcf5f19d3"),
    (("nu", "--vars", "T1,T2", "--trunc", "8", "--ideal", "T1^2 - T2^3", "--x", "T1*T2 + T2^4",
      "--format", "csv"),
     "b5ad405ce9554a5245daffdd6d80f2c2ee4a7a9da1511ae22bf8cfbdff12a1a5"),
    (("ar-index", "--vars", "T1,T2", "--trunc", "8", "--ideal", "T1^2 - T2^3; T1*T2^2",
      "--format", "csv"),
     "3a403263e582920d60ab1628d2281a1ee6e2c04b9d8d427aa65e79e796851b57"),
    # generators with non-unit coefficients: the normalised echelon rows, and so the
    # printed witness, carry non-integral rationals
    (("ar-index", "--vars", "T1,T2", "--trunc", "7", "--module", "2*T1 + 3*T2^2,T2;T2^2,3*T1"),
     "f150c22d56518e5795e3d7fc97a5887ebdddf6c22b204ba22fe0c59cdf7965ec"),
    (("ar-index", "--vars", "T1,T2", "--trunc", "7", "--module", "2*T1,3*T2;T2^2,T1",
      "--format", "csv"),
     "356f1f58cefd6897609da9644f7c203f2f84623ea03f6702c1722eced3400351"),
    # the Artin-Rees profile over F_7, over a large prime field, and of an arity-2
    # module at D = 14; a three-generator correction with antisymmetric steps
    (("stable-ar", "--vars", "T1,T2", "--char", "7", "--trunc", "10", "--ideal",
      "T1^2 - T2^3; T1*T2^2", "--xs", "T1 + T2^2;T2;T1*T2 + T2^3"),
     "9ebe4f9ec5c199a2633cdf6e4bebe1f44c52a14383fea13f2673da83fecf8cd3"),
    (("ar-index", "--vars", "T1,T2,T3", "--char", "32003", "--trunc", "12", "--ideal",
      "T1^2 + T2^3"),
     "4eba880e2906f812cfbf0eabeb7e3e3652f5880e354833318003b6aea3a4fe17"),
    (("ar-index", "--vars", "T1,T2", "--trunc", "14", "--module", "T1,T2; T2^2,T1^2 + T2^3"),
     "2d33084ad23f14da1007cf5d4661e39ce21c68c8fb8be93353fb3a8070eca8fd"),
    (("solve-linreg", "--vars", "T1,T2,T3", "--trunc", "8", "--gens", "T1;T2^2;T3^2",
      "--x", "T2^2;-T1+T1^5;T1^3", "--i", "2"),
     "7d77f8b768daa453040c58e6a81c51087780b985d3bea9041dd05287acb7feff"),
    # the degree-fed order of g*h: an F_p envelope with one skipped (inexact) pair,
    # a three-variable valuation over Q, and 36 violations, each certified on the
    # full product by sound membership
    (("icl-scan", "--vars", "T1,T2", "--char", "32003", "--trunc", "8", "--ideal", "T1^2 + T2^3",
      "--deg-max", "3", "--seed", "5"),
     "f265d116304a994f5a80d4f3a661d7bfa74cece2e0c13b750667347bc01c88c8"),
    (("valcheck", "--vars", "T1,T2,T3", "--trunc", "8", "--ideal", "T1^2 + T2^2 + T3^2",
      "--deg-max", "3", "--seed", "5"),
     "e908448bd3f04696ca3eed7548e9c0e348d60cec88ecff78d4c18fe1af4fd017"),
    (("icl-scan", "--vars", "T1,T2", "--char", "2", "--trunc", "6", "--ideal", "T1*T2",
      "--deg-max", "2", "--mode", "exhaustive", "--a", "1"),
     "85460cd6ad29e860ef7b3e33a6770880bb90889151c33faa12b91137b32334a8"),
    # a three-generator correction whose linear solves have free unknowns: the
    # output depends on which unknowns the solver sets to zero
    (("solve-linreg", "--vars", "T1,T2,T3", "--trunc", "8", "--gens",
      "T1 - T1*T3;T2 + T2*T3;T3 - T3^2", "--x",
      "T2*T3 + T2*T3^3;-T1*T3 + T1*T3^3;2*T1*T2*T3", "--i", "3"),
     "ac17914af238981c6b093559977fe3e0444221a53d07be4612ce6fa0f911bad4"),
]


def test_pinned_output_bytes():
    for argv, digest in PINNED_OUTPUTS:
        out = run_cli(*argv).stdout.encode("ascii")
        assert hashlib.sha256(out).hexdigest() == digest, argv


# every pinned invocation in one fresh interpreter under -O, which strips assert
# statements: the outputs and the checks behind them must not depend on them
PINNED_UNDER_O = """
import contextlib, hashlib, io, json, sys
from artinlab.cli import main
digests = []
for argv in json.load(sys.stdin):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    digests.append([code, hashlib.sha256(out.getvalue().encode("ascii")).hexdigest()])
print(json.dumps({"optimize": sys.flags.optimize, "digests": digests}))
"""


def test_pinned_output_bytes_under_optimize():
    proc = subprocess.run(
        [sys.executable, "-O", "-c", PINNED_UNDER_O],
        input=json.dumps([argv for argv, _ in PINNED_OUTPUTS]),
        capture_output=True,
        text=True,
        env=cli_env(),
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["optimize"] == 1
    assert result["digests"] == [[0, digest] for _, digest in PINNED_OUTPUTS]


def captured(fn, argv) -> tuple:
    """(what fn(argv) returns, or the code it exits with; its stdout; its stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = fn(argv)
        except SystemExit as exc:  # argparse leaves this way after help, usage and errors
            result = exc.code
    return result, out.getvalue(), err.getvalue()


def invocation_record(argv) -> list:
    """[exit code, sha256 of stdout, sha256 of stderr] of one in-process invocation."""
    code, *texts = captured(main, list(argv))
    return [code] + [hashlib.sha256(t.encode()).hexdigest() for t in texts]


# a well-formed invocation of each command, and a typed flag to give a bad value
WELL_FORMED = {name: next(argv for argv, _ in PINNED_OUTPUTS if argv[0] == name) for name in COMMANDS}
TYPED_FLAG = {"irr-check": "--p", "bound": "--i", "cross-check": "--iI"}
# every way an argument list reaches argparse's help, usage or error text: per
# command its help, a missing required flag (the bare command), a flag it does
# not declare, a stray positional, a bad typed value and a bad choice; then an
# abbreviated flag, no command, top-level help and an unknown command
PARSE_PATHS = [
    argv
    for name, ok in WELL_FORMED.items()
    for argv in (
        (name, "-h"),
        (name,),
        (*ok, "--zz", "1"),
        (*ok, "stray"),
        (*ok, TYPED_FLAG.get(name, "--trunc"), "x"),
        (*ok, "--format", "xml"),
    )
] + [
    ("ar-index", "--tru", "5"),
    ("ar-index", "--tru", "5", "--ideal", "T1"),
    (),
    ("-h",),
    ("frobnicate", "--trunc", "4"),
]
# [argv, exit code, sha256 of stdout, sha256 of stderr] per parse path, at 80
# columns, as argparse wraps usage and help to the terminal width; one set for
# the argparse text of Python 3.10-3.12 and one for 3.13, which formats
# some of its help and usage text differently
PARSE_PATH_RECORDS = os.path.join(os.path.dirname(__file__), "parse_paths.json")


def test_parse_path_bytes(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with open(PARSE_PATH_RECORDS) as fh:
        pinned = json.load(fh)["from 3.13" if sys.version_info >= (3, 13) else "before 3.13"]
    assert [argv for argv, *_ in pinned] == [list(argv) for argv in PARSE_PATHS]
    for argv, *record in pinned:
        assert invocation_record(argv) == record, argv


def test_every_subcommand_is_pinned():
    pinned = {argv[0] for argv, _ in PINNED_OUTPUTS}
    assert set(COMMANDS) <= pinned, sorted(set(COMMANDS) - pinned)


# values per flag, small enough to keep every run short: mostly well-formed
# inputs, so that most runs get past the parser, plus malformed ones of each kind
POLYS = st.sampled_from([
    "T1", "T2", "0", "1", "T1^2 + T2^3", "T1*T2 - T3^2", "-1/2*T2 + T1^3", "T1;T2^2",
    "T1^2 - T2^3; T1*T2^2", "T1 +", "", "T9",
])
RATIONALS = st.sampled_from(["1", "3/2", "2", "0", "1/0"])
VALUES = {
    "--vars": st.sampled_from(["T1", "T1,T2", "T1,T2", "T1,T2,T3", "T1,T1", ""]),
    "--char": st.sampled_from(["0", "0", "2", "3", "4"]),
    "--trunc": st.sampled_from(["-1", "2", "4", "5", "6", "6"]),
    "--budget": st.sampled_from(["-1", "0", "10", "1000", "1000", "1000"]),
    "--module": st.sampled_from(["T1,0;0,T2", "T1,T2;T2^2,T1", "T1,T2;T2", "T1,"]),
    "--system": st.sampled_from(["T1*X1", "X1*X1 - T1^2", "X1^2 + T1*X2", "T1*X1 + T2*X2", "X1 +"]),
    "--unknowns": st.sampled_from(["X1", "X1,X2", "X1,X2", "X1,X1", "T1"]),
    "--points": st.sampled_from(["1=0;2=3;3=8", "2=2", "1=x", ""]),
}


# each command's flags, read off its own parser
ACTIONS = {name: build_parser(name)._actions for name in COMMANDS}
FLAGS = {name: {a.option_strings[0] for a in actions if a.option_strings} for name, actions in ACTIONS.items()}
# per command the flags it does not declare: other commands' flags and one no command has
UNDECLARED = {name: sorted(set().union(*FLAGS.values()) - flags) + ["--zz"] for name, flags in FLAGS.items()}


@st.composite
def cli_argv(draw):
    """A subcommand with a random subset of the flags its parser declares, and
    now and then a flag it does not declare or a stray positional at the end.

    --budget is always set where the command takes one, so no default budget (up
    to 10^7) is spent; --out is never drawn, so nothing is written."""
    name = draw(st.sampled_from(sorted(COMMANDS)))
    argv = [name]
    for action in ACTIONS[name]:
        flag = action.option_strings[0] if action.option_strings else None
        if flag in (None, "-h", "--out"):
            continue
        likely = action.required or flag in ("--vars", "--char", "--trunc")
        if flag != "--budget" and draw(st.integers(0, 9)) >= (9 if likely else 5):
            continue
        if action.nargs == 0:  # a store_true switch
            argv.append(flag)
        elif flag in VALUES:
            argv += [flag, draw(VALUES[flag])]
        elif action.choices:
            argv += [flag, draw(st.sampled_from([*action.choices, "bogus"]))]
        elif action.type is not None:
            argv += [flag, draw(st.sampled_from(["-1", "0", "1", "2", "2", "3", "4", "40"]))]
        elif flag in ("--a", "--b", "--c"):
            argv += [flag, draw(RATIONALS)]
        else:
            argv += [flag, draw(POLYS)]
    tail = draw(st.integers(0, 9))
    if tail == 8:
        argv += [draw(st.sampled_from(UNDECLARED[name])), "3"]
    elif tail == 9:
        argv.append("stray")
    return argv


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cli_argv())
@example(["irr-check", "--i", "40", "--p", "2", "--budget", "1000"])
@example(["ord", "--vars", "T1", "--trunc", "3", "--x", "(" * 1000 + "T1" + ")" * 1000])
def test_random_argv_never_crashes(argv):
    code, out, err = captured(main, argv)
    assert code in (0, 2, 3), (argv, code, err)
    assert (code == 0) == (out != "" and err == ""), argv


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cli_argv())
@example([])
@example(["-h"])
@example(["frobnicate", "--trunc", "4"])
@example(["ord", "-h"])
@example(["ord", "--zz", "-h"])
@example(["ar-index", "--tru", "5"])
@example(["ord", "stray", "--x", "T1"])
def test_parse_matches_the_full_parser(argv):
    # a command's own parser reads what the full parser reads; all else, help
    # aside, falls back to the full parser and its usage and error text
    full = captured(lambda a: build_parser().parse_args(a), argv)
    assert captured(parse, argv) == full, argv
