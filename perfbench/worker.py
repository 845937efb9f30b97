"""One pass of a job list in a fresh interpreter, or one set-up sample.

    python3 perfbench/worker.py setup <root>
        prints the seconds this interpreter needs to import artinlab and
        build the CLI parser.
    python3 perfbench/worker.py pass <root> < request.json
        runs the request's jobs one after another through artinlab.cli.main
        with stdout captured, and prints one JSON line: per-job seconds, exit
        code, captured output and error, the pass wall time (import excluded)
        and the peak resident memory.  With "trace" set, spans are recorded
        around artinlab's layers, aggregated, and written to "spans_path".

Nothing but `sys` and `time` is imported before the set-up clock starts, so
the sample holds all of artinlab's import cost, stdlib modules included.

Both modes also time a fixed calibration kernel (`calibrate`) in the same
process, and report beside each time the mean kernel time measured next to
it: after the set-up sample, and before the first job and after every job,
for at least KERNEL_SHARE of the job's own time, so that long jobs get
proportionally many samples.  A job is bracketed by the samples before and
after it.  The caller rescales each time by the kernel's speed, because a shared
machine's speed can drift by a third within tens of seconds.
"""

import sys
import time

KERNEL_SHARE = 0.2


def calibrate() -> float:
    """Seconds for one fixed exact-arithmetic kernel: a truncated product of
    two dense 3-variable polynomials with Fraction coefficients, written in
    the benchmark's own code, so no change to artinlab moves it."""
    from fractions import Fraction

    import poly

    a = {m: Fraction(k % 7 - 3, k % 5 + 1) for k, m in enumerate(poly.monomials(3, 0, 6))}
    b = {m: Fraction(k % 5 - 2, 3) for k, m in enumerate(poly.monomials(3, 0, 5))}
    t0 = time.perf_counter()
    poly.mul(a, b, 12)
    return time.perf_counter() - t0


def kernel_samples(budget: float) -> list:
    """Kernel times, repeated until they add up to `budget` seconds (at least one)."""
    out = [calibrate()]
    while sum(out) < budget:
        out.append(calibrate())
    return out


def setup_seconds(root: str) -> tuple:
    """(seconds to import artinlab and build the parser, mean kernel time after it)."""
    t0 = time.perf_counter()
    sys.path.insert(0, f"{root}/src")
    import artinlab.cli

    artinlab.cli.build_parser()
    elapsed = time.perf_counter() - t0
    samples = kernel_samples(3 * KERNEL_SHARE * elapsed)
    return elapsed, sum(samples) / len(samples)


def run_pass(root: str, request: dict) -> dict:
    import io
    import resource
    import traceback

    sys.path.insert(0, f"{root}/src")
    import artinlab.cli

    tracer = None
    if request["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    real_stdout = sys.stdout
    jobs = []
    before = kernel_samples(0)
    for job_id, argv in enumerate(request["jobs"]):
        buf = io.StringIO()
        sys.stdout = buf
        error = None
        rc = None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                rc = artinlab.cli.main(list(argv))
            else:
                rc = tracer.job_span(job_id, lambda: artinlab.cli.main(list(argv)))
        except SystemExit as exc:  # argparse rejects bad argv this way, as a CLI user sees it
            rc = exc.code
        except Exception:  # a crash is a failed job, recorded and reported, not a dead pass
            error = traceback.format_exc(limit=4)
        finally:
            elapsed = time.perf_counter() - t0
            sys.stdout = real_stdout
        after = kernel_samples(KERNEL_SHARE * elapsed)
        bracket = before + after
        jobs.append({"s": elapsed, "kernel_s": sum(bracket) / len(bracket), "rc": rc, "out": buf.getvalue(),
                     "error": error})
        before = after
    result = {
        "wall_s": sum(j["s"] for j in jobs),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "jobs": jobs,
    }
    if tracer is not None:
        result["spans"] = len(tracer.start)
        result["layers"] = tracer.aggregate()
        result["absent"] = tracer.absent
        if request.get("spans_path"):
            tracer.dump(request["spans_path"])
    return result


if __name__ == "__main__":
    mode, root = sys.argv[1], sys.argv[2]
    if mode == "setup":
        print(*setup_seconds(root))
    else:
        import json

        print(json.dumps(run_pass(root, json.load(sys.stdin))))
