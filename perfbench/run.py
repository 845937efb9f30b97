"""artinlab benchmark: time to a certified answer, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload's job list (workloads.py) is
built from the seed and run through artinlab.cli.main as a closed loop with
one caller: one single-threaded process per pass, each job starting when the
previous one returned.  Passes repeat until S seconds are spent.  Every
answer is checked afterwards (checks.py), outside the timed region.

--trace 0 reports the end-to-end metrics (medians over passes):
  wall_s       one pass over the job list, import excluded
  setup_s      a fresh interpreter importing artinlab and building the CLI
               parser, median of SETUP_SAMPLES samples
  peak_rss_mb  peak resident memory of a pass process, in MiB
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of the traced ones (tracer.py) and trace.overhead_ratio.

Times are calibrated: each process also times a fixed kernel of the
benchmark's own (worker.calibrate) next to every measured time, and each
time is scaled by KERNEL_REF_S / (the mean kernel time next to it), i.e.
reported in seconds of a machine on which the kernel takes KERNEL_REF_S.
On a shared 2-vCPU Xeon at 2.1 GHz the speed drifts by a third within tens
of seconds, which spreads raw times of identical runs by tens of percent and
their calibrated times by a few.  Raw times are kept in the detail line.

The last stdout line is the result JSON; the lines before it give spreads,
sample counts, per-subcommand times, work counts, output digests and the
environment.  The full result is also written to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 9
KERNEL_REF_S = 0.025
MIN_PASSES = 2
PASS_TIMEOUT_S = 150

# time metric of each subcommand, summed over a pass
CMD_METRIC = {
    "ar-index": "ar_index_s", "stable-ar": "stable_ar_s", "solve-linreg": "solve_s",
    "solve-fxhy": "solve_s", "icl-scan": "icl_scan_s", "valcheck": "valcheck_s",
    "nubar": "nubar_s", "beta-lb": "beta_lb_s", "irr-check": "irr_check_s", "witness": "witness_s",
}

# per-layer metric -> (span name, statistic); statistics come from tracer.aggregate
LAYER_SPANS = {
    "series.mul.calls": ("series.mul", "calls"),
    "series.mul.self_s": ("series.mul", "self_s"),
    "series.addsub.calls": ("series.addsub", "calls"),
    "series.addsub.self_s": ("series.addsub", "self_s"),
    "series.field_ops": ("series.field_ops", "calls"),
    "subspace.insert.calls": ("subspace.insert", "calls"),
    "subspace.insert.self_s": ("subspace.insert", "self_s"),
    "subspace.reduce.calls": ("subspace.reduce", "calls"),
    "subspace.reduce.self_s": ("subspace.reduce", "self_s"),
    "subspace.intersect.calls": ("subspace.intersect", "calls"),
    "subspace.intersect.s": ("subspace.intersect", "s"),
    "subspace.span.calls": ("subspace.span", "calls"),
    "subspace.span.s": ("subspace.span", "s"),
    "subspace.contains.calls": ("subspace.contains", "calls"),
    "subspace.tower.builds": ("subspace.tower.build", "calls"),
    "subspace.tower.build_s": ("subspace.tower.build", "s"),
    "subspace.tower.queries": ("subspace.tower.query", "calls"),
    "subspace.tower.query_s": ("subspace.tower.query", "s"),
    "subspace.solve_linear.calls": ("subspace.solve_linear", "calls"),
    "subspace.solve_linear.s": ("subspace.solve_linear", "s"),
    "orders.oracle.builds": ("orders.oracle.build", "calls"),
    "orders.oracle.build_s": ("orders.oracle.build", "s"),
    "orders.nu.calls": ("orders.nu", "calls"),
    "orders.nu.s": ("orders.nu", "s"),
    "orders.sound_member.calls": ("orders.sound_member", "calls"),
    "orders.candidates.s": ("orders.candidates", "s"),
    "artin.ar_index.s": ("artin.ar_index", "s"),
    "artin.stable_ar.s": ("artin.stable_ar", "s"),
    "artin.solve.calls": ("artin.solve", "calls"),
    "artin.solve.s": ("artin.solve", "s"),
    "artin.beta.s": ("artin.beta", "s"),
    "witness.irr.calls": ("witness.irr", "calls"),
    "witness.irr.s": ("witness.irr", "s"),
    "witness.family.s": ("witness.family", "s"),
    "parsing.s": ("parsing", "s"),
    "cli.parse_args.calls": ("cli.parse_args", "calls"),
    "cli.emit.s": ("cli.emit", "s"),
}


def quartiles(values: list) -> dict:
    if len(values) == 1:
        return {"median": values[0], "p25": values[0], "p75": values[0], "n": 1}
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "p25": q1, "p75": q3, "n": len(values)}


def run_worker(args: list, stdin: str | None = None) -> str:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args, str(ROOT)],
        input=stdin, capture_output=True, text=True, timeout=PASS_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return proc.stdout.strip().splitlines()[-1]


def run_pass(jobs: list, trace: bool, spans_path: str | None = None) -> dict:
    request = {"jobs": [j["argv"] for j in jobs], "trace": trace, "spans_path": spans_path}
    return json.loads(run_worker(["pass"], json.dumps(request)))


def setup_samples() -> tuple:
    """(calibrated, raw) set-up seconds, one sample per fresh interpreter."""
    run_worker(["setup"])  # writes the bytecode caches; not a sample
    raw, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        elapsed, kernel = map(float, run_worker(["setup"]).split())
        raw.append(elapsed)
        scaled.append(elapsed * KERNEL_REF_S / kernel)
    return scaled, raw


def job_seconds(run: dict) -> float:
    """A job's calibrated seconds."""
    return run["s"] * KERNEL_REF_S / run["kernel_s"]


def wall(p: dict) -> float:
    """A pass's calibrated seconds."""
    return sum(job_seconds(run) for run in p["jobs"])


def scale(p: dict) -> float:
    """Factor taking a pass's raw seconds to calibrated seconds, for times
    inside the pass such as span durations."""
    return wall(p) / p["wall_s"]


def gate(jobs: list, passes: list, seed: int) -> tuple:
    """Check every job of every pass, cross-check the first pass and a few small
    seeded instances against the dense oracles.

    Returns (attempted, failures, digests); failures maps (pass, argv) to errors.
    """
    failures = {}
    digests = [hashlib.sha256(r["out"].encode()).hexdigest() for r in passes[0]["jobs"]]
    oracle = checks.OracleCheck(str(ROOT))
    for k, result in enumerate(passes):
        for job, run, digest in zip(jobs, result["jobs"], digests):
            errors = checks.check_job(job, run)
            if hashlib.sha256(run["out"].encode()).hexdigest() != digest:
                errors.append("output differs from the first pass")
            if k == 0 and not errors and job["check"].get("cross_check_nu"):
                errors = oracle.nu_values(job, run)
            if errors:
                failures[(k, " ".join(job["argv"]))] = errors
    extra = workloads.gate_jobs(seed)
    for job, run in zip(extra, run_pass(extra, trace=False)["jobs"]):
        errors = checks.check_job(job, run) or oracle.ar_index(job, run)
        if errors:
            failures[("oracle", " ".join(job["argv"]))] = errors
    return len(jobs) * len(passes) + len(extra), failures, digests


def environment(seed: int, passes: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        # the ceiling keeps git from searching above the checkout
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
                                env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "artinlab").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu,
        "git_commit": commit, "source_sha256": src.hexdigest(), "seed": seed, "passes": passes,
    }


def timed_passes(jobs: list, seconds: float, trace: bool, spans_path: str) -> tuple:
    """Closed loop of passes until `seconds` are spent; with trace, untraced and
    traced passes alternate."""
    plain, traced = [], []
    t0 = time.perf_counter()
    while True:
        if trace and len(traced) < len(plain):
            traced.append(run_pass(jobs, trace=True, spans_path=spans_path))
        else:
            plain.append(run_pass(jobs, trace=False))
        done = len(plain) + len(traced)
        if time.perf_counter() - t0 >= seconds and done >= MIN_PASSES and len(traced) >= trace:
            return plain, traced


def layer_metrics(traced: list, plain: list, work: dict) -> tuple:
    """Per-layer metrics: counts from the first traced pass, calibrated times as
    medians over traced passes.  Also names the spans whose counts differ
    between traced passes (they must not: the program is deterministic)."""
    metrics = {}
    for name, (span, stat) in LAYER_SPANS.items():
        values = [t["layers"].get(span, {}).get(stat, 0) for t in traced]
        if stat == "calls":
            metrics[name] = (values[0], "count")
        else:
            metrics[name] = (statistics.median(v * scale(t) for v, t in zip(values, traced)), "s")
    first = traced[0]["layers"]
    insert = first.get("subspace.insert", {})
    metrics["subspace.insert.grew_ratio"] = (insert["true"] / insert["calls"] if insert.get("calls") else 0, "ratio")
    metrics["orders.pairs"] = (work["pairs_scanned"], "count")
    metrics["orders.nu_calls_per_pair"] = (
        metrics["orders.nu.calls"][0] / work["pairs_scanned"] if work["pairs_scanned"] else 0, "ratio")
    metrics["artin.beta.nodes"] = (work["explored_nodes"], "count")
    metrics["witness.irr.space"] = (work["search_space_size"], "count")
    overhead = statistics.median(map(wall, traced)) / statistics.median(map(wall, plain))
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    unstable = sorted({
        span for span, st in first.items() for t in traced[1:]
        if t["layers"].get(span, {}).get("calls") != st.get("calls")
    })
    return metrics, unstable


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    for needed in ("src/artinlab/cli.py", "tests/oracles.py"):
        if not (ROOT / needed).is_file():
            print(f"error: {needed} not found under {ROOT}; run from an artinlab checkout", file=sys.stderr)
            return 2

    jobs = workloads.WORKLOADS[args.workload](args.seed)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{args.workload}.spans.tsv.gz"
    setup, setup_raw = ([], []) if args.trace else setup_samples()
    plain, traced = timed_passes(jobs, args.seconds, bool(args.trace), str(spans_path))
    attempted, failures, digests = gate(jobs, plain + traced, args.seed)

    work = {"pairs_scanned": 0, "explored_nodes": 0, "state_space_size": 0, "search_space_size": 0}
    for run in plain[0]["jobs"]:
        for key, value in checks.work_counts(run["out"]).items():
            work[key] += value
    per_cmd = {}
    for p in plain:
        sums = {}
        for job, run in zip(jobs, p["jobs"]):
            name = CMD_METRIC[job["argv"][0]]
            sums[name] = sums.get(name, 0.0) + job_seconds(run)
        for name, value in sums.items():
            per_cmd.setdefault(name, []).append(value)
    walls = [wall(p) for p in plain]
    rss = [p["peak_rss_mib"] for p in plain]
    if args.trace:
        metrics, unstable = layer_metrics(traced, plain, work)
        if unstable:
            failures[("trace", "*")] = [f"work counts differ between traced passes: {unstable}"]
    else:
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (statistics.median(rss), "MiB"),
        }
    detail = {
        "workload": args.workload,
        "environment": environment(args.seed, len(plain) + len(traced)),
        "loop": "closed, one caller, one single-threaded process per pass",
        "wall_s": quartiles(walls),
        "raw_wall_s": quartiles([p["wall_s"] for p in plain]),
        "setup_s": quartiles(setup) if setup else None,
        "raw_setup_s": quartiles(setup_raw) if setup else None,
        "peak_rss_mb": quartiles(rss),
        "per_subcommand_s": {k: quartiles(v) for k, v in sorted(per_cmd.items())},
        "failed_share": len(failures) / attempted,
        "failures": [{"pass": k, "job": j, "errors": e} for (k, j), e in failures.items()],
        "work": work,
        "output_digest": hashlib.sha256("".join(digests).encode()).hexdigest(),
    }
    if args.trace:
        detail["trace"] = {
            "spans_per_pass": traced[0]["spans"], "absent": traced[0]["absent"],
            "spans_file": str(spans_path.relative_to(ROOT)),
            "self_s": {span: st["self_s"] * scale(traced[0]) for span, st in
                       sorted(traced[0]["layers"].items(), key=lambda kv: -kv[1].get("self_s", 0)) if st.get("self_s")},
        }
    full = dict(detail, jobs=[{"argv": j["argv"], "sha256": d, "s": [job_seconds(p["jobs"][k]) for p in plain]}
                              for k, (j, d) in enumerate(zip(jobs, digests))])
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(full, indent=1) + "\n")
    print(f"detail: {json.dumps(detail)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
