#!/usr/bin/env python3
"""Run the registered mutants of tests/mutants.py and list the survivors.

Usage: scripts/mutants.py [NAME...]

With NAME arguments, runs only the mutants whose names contain one of them as a
substring, and exits 2 if some NAME matches no mutant; with none, runs them all.

Copies src/ and tests/ to a temporary directory, first runs every test of the
selected mutants there unmutated (they must pass), then applies each in turn, runs
its tests and restores the file.  A mutant is killed when at least one of its
tests fails; each listed test is shown as failed or passed.  Bytecode caching
is off, so an edit that keeps a file's size cannot be hidden by a stale .pyc.
Hypothesis runs with a fixed seed, so each verdict repeats from run to run.
Prints one line per mutant, then the survivors, and exits 1 if any mutant
survived or could not be run.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
sys.path.insert(0, os.path.join(ROOT, "tests"))

from mutants import MUTANTS  # noqa: E402

TIMEOUT = 900


def pytest(work: str, tests) -> tuple:
    """(exit code, the failed test ids) of one pytest run on the copy; code None on a timeout."""
    env = dict(os.environ, PYTHONPATH=os.path.join(work, "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--tb=no", "-rf",
           "--hypothesis-seed=0", *tests]
    try:
        proc = subprocess.run(cmd, cwd=work, env=env, capture_output=True, text=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return None, []
    failed = [line.split()[1] for line in proc.stdout.splitlines() if line.startswith("FAILED ")]
    return proc.returncode, failed


def main():
    names = sys.argv[1:]
    unmatched = [name for name in names if not any(name in m.name for m in MUTANTS)]
    if unmatched:
        print("no mutant name contains: " + ", ".join(map(repr, unmatched)), file=sys.stderr)
        sys.exit(2)
    mutants = [m for m in MUTANTS if not names or any(name in m.name for name in names)]
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="artinlab-mutants-") as work:
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(os.path.join(ROOT, part), os.path.join(work, part), ignore=ignore)
        everything = sorted({t for m in mutants for t in m.tests})
        code, failed = pytest(work, everything)
        if code != 0:
            sys.exit("the registered tests fail unmutated (exit %s): %s" % (code, " ".join(failed)))
        survivors, errors = [], []
        for m in mutants:
            path = os.path.join(work, m.path)
            with open(path, encoding="utf-8") as fh:
                source = fh.read()
            if source.count(m.old) != 1:
                errors.append(m.name)
                print("ERROR: %s: old text occurs %d times" % (m.name, source.count(m.old)))
                continue
            t0 = time.perf_counter()
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(source.replace(m.old, m.new))
            try:
                code, failed = pytest(work, m.tests)
            finally:
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(source)
            took = time.perf_counter() - t0
            if code == 1:
                verdict = "killed"
            elif code is None:
                verdict = "killed (timeout after %d s)" % TIMEOUT
            elif code == 0:
                verdict = "SURVIVED"
                survivors.append(m.name)
            else:
                verdict = "ERROR (pytest exit %d)" % code
                errors.append(m.name)
            print("%s: %s [%.1f s]" % (verdict, m.name, took))
            for test in m.tests:
                # a listed test that passed is one the register overstates
                print("    %s: %s" % ("failed" if test in failed else "passed", test))
    print("%d mutants, %d survived, %d errors, %.0f s in all"
          % (len(mutants), len(survivors), len(errors), time.perf_counter() - start))
    for name in survivors:
        print("survivor: " + name)
    sys.exit(1 if survivors or errors else 0)


if __name__ == "__main__":
    main()
