import hashlib
import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def run_cli(*argv, expect=0):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "artinlab", *argv],
        capture_output=True,
        text=True,
        env=env,
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


def test_irr_check_cli():
    out = run_cli("irr-check", "--i", "2", "--p", "3")
    rep = json.loads(out.stdout)
    assert rep["result"]["search_space_size"] == 729
    assert rep["result"]["factorizations_found"] == 0


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


def test_out_file(tmp_path):
    path = tmp_path / "report.json"
    run_cli("bound", "--formula", "lin31", "--iI", "1", "--i", "3", "--out", str(path))
    assert json.loads(path.read_text())["result"]["value"] == 4


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
]


def test_pinned_output_bytes():
    for argv, digest in PINNED_OUTPUTS:
        out = run_cli(*argv).stdout.encode("ascii")
        assert hashlib.sha256(out).hexdigest() == digest, argv
