import ast
import glob
import os
import re

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "artinlab")


def test_no_assert_in_src():
    # a check that guards a certificate must raise a real error: an assert
    # vanishes under python -O, and an AssertionError escapes the CLI's
    # handlers as a traceback
    files = sorted(glob.glob(os.path.join(SRC, "*.py")))
    assert files
    found = []
    for path in files:
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            exc = node.exc if isinstance(node, ast.Raise) else None
            if isinstance(exc, ast.Call):
                exc = exc.func
            if isinstance(node, ast.Assert) or (isinstance(exc, ast.Name) and exc.id == "AssertionError"):
                found.append("%s:%d" % (os.path.basename(path), node.lineno))
    assert not found, found


def test_start_up_loads_no_introspection_modules():
    # every run pays for what importing the CLI loads: dataclasses alone pulls in
    # inspect, ast, dis and tokenize, which nothing the CLI runs needs
    import subprocess
    import sys

    code = ("import sys, artinlab.cli; artinlab.cli.build_parser(); print(sorted(m for m in "
            "('dataclasses', 'inspect', 'ast', 'dis', 'tokenize') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=os.path.join(SRC, os.pardir))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


def test_no_dataclasses_in_src():
    # report and value types are NamedTuples: one record type, and no
    # dataclasses import at start-up
    found = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else (
                [node.module] if isinstance(node, ast.ImportFrom) else [])
            if any(n and n.split(".")[0] == "dataclasses" for n in names):
                found.append("%s:%d" % (os.path.basename(path), node.lineno))
    assert not found, found


def test_records_share_no_mutable_default():
    # a NamedTuple default is one object shared by every instance built without
    # that field, so no record field may default to a list, dict or set
    from artinlab import artin, bounds, cli, orders, series, subspace, witness

    records = {v for m in (artin, bounds, cli, orders, series, subspace, witness) for v in vars(m).values()
               if isinstance(v, type) and issubclass(v, tuple) and v.__module__ == m.__name__}
    assert len(records) >= 16 + 3
    for record in records:
        for name, default in record._field_defaults.items():
            assert not isinstance(default, (list, dict, set)), (record.__name__, name)
    assert "skipped" not in orders.IclReport._field_defaults
    assert "deficits" not in artin.ArIndexResult._field_defaults


def test_sources_parse_at_the_python_floor():
    # pyproject.toml promises requires-python >= floor: every module must parse
    # with that version's grammar, so syntax of a later version cannot slip in
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    with open(os.path.join(root, "pyproject.toml"), encoding="utf-8") as fh:
        found = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', fh.read(), re.M)
    floor = tuple(map(int, found.groups()))
    assert floor == (3, 10)
    files = sorted(glob.glob(os.path.join(SRC, "*.py")))
    assert files
    for path in files:
        with open(path, encoding="utf-8") as fh:
            ast.parse(fh.read(), path, feature_version=floor)


def test_mutant_anchors_occur_once():
    # each registered mutant's old text occurs exactly once in its file, so that
    # a refactor of guarded code has to re-anchor the mutants it moves
    from mutants import MUTANTS

    root = os.path.join(os.path.dirname(__file__), os.pardir)
    for m in MUTANTS:
        with open(os.path.join(root, m.path), encoding="utf-8") as fh:
            assert fh.read().count(m.old) == 1, m.name


def test_mutant_runner_refuses_a_name_that_matches_no_mutant():
    # scripts/mutants.py NAME... runs the mutants whose names contain a NAME; one
    # that matches none exits 2 before any copy or test run
    import subprocess
    import sys

    script = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "mutants.py")
    proc = subprocess.run([sys.executable, script, "reused for the next", "no such mutant"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and "'no such mutant'" in proc.stderr and "'reused for the next'" not in proc.stderr
