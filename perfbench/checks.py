"""Correctness gate: every captured CLI answer is checked outside the timed region.

`check_job` verifies one job's output: exit code 0, parseable JSON, the
known answers of the paper's examples, and for the correction solvers the
residual f*xbar (+ h*ybar) recomputed with the benchmark's own arithmetic,
which must be exactly zero, together with the promised proximity orders.
`OracleCheck` recomputes a few seeded ar-index and nu answers with the dense
oracles of tests/oracles.py.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

import poly


def _order_value(v) -> int:
    """An order value as the CLI prints it: an int, or '>=n' for 'at least n'."""
    return int(v[2:]) if isinstance(v, str) and v.startswith(">=") else int(v)


def _solver_errors(check: dict, result: dict) -> list:
    D, names = check["trunc"], poly.names_for(check["vars"])
    out = [poly.parse(s, names) for s in result["output"]]
    if check["kind"] == "linreg":
        f = [poly.parse(s, names) for s in check["f"]]
    else:
        f = [poly.parse(check["f"], names), poly.parse(check["h"], names)]
    residual = {}
    for fj, xj in zip(f, out):
        residual = poly.add(residual, poly.mul(fj, xj, D))
    errors = [] if not residual else [f"residual {poly.fmt(residual, names)} is not zero"]
    for j, (x_in, need) in enumerate(zip(check["x"], check["proximity"])):
        moved = poly.order(poly.add(out[j], poly.parse(x_in, names), -1), D)
        if moved < need:
            errors.append(f"coordinate {j} moved at order {moved} < {need}")
    return errors


def _icl_errors(report: dict, b_min) -> list:
    errors = []
    if report["b_min"] != b_min:
        errors.append(f"b_min {report['b_min']} != {b_min}")
    a = Fraction(report["a"])
    for pair in report["attaining_pairs"]:
        if Fraction(pair["nu_gh"]) - a * (pair["nu_g"] + pair["nu_h"]) != Fraction(report["b_min"]):
            errors.append(f"attaining pair {pair} does not attain b_min {report['b_min']}")
    return errors


def check_job(job: dict, run: dict) -> list:
    """Error strings for one job's run; empty when the answer checks out."""
    if run["error"] is not None:
        return [f"raised: {run['error'].strip().splitlines()[-1]}"]
    if run["rc"] != 0:
        return [f"exit code {run['rc']}"]
    try:
        result = json.loads(run["out"])["result"]
    except (ValueError, KeyError) as exc:
        return [f"unreadable output: {exc}"]
    check = job["check"]
    kind = check["kind"]
    errors = []
    if kind == "ar_cusp":
        if result["i0"] != 2:
            errors.append(f"cusp i0 {result['i0']} != ord(f) = 2")
    elif kind in ("ar_any", "ar_oracle"):
        if not (isinstance(result["i0"], int) and 0 <= result["i0"] <= max(result["certified_up_to"], 0)):
            errors.append(f"i0 {result['i0']} outside 0..certified_up_to {result['certified_up_to']}")
    elif kind in ("linreg", "fxhy"):
        errors += _solver_errors(check, result)
    elif kind == "stable_ar":
        if not result["checks"] or result["all_hold"] != all(c["holds"] for c in result["checks"]):
            errors.append("all_hold disagrees with the listed checks")
    elif kind == "icl_envelope":
        envelope = result["envelope"]
        if [e["a"] for e in envelope] != [1, "3/2", 2]:
            errors.append(f"envelope slopes {[e['a'] for e in envelope]}")
        errors += _icl_errors(envelope[0], check["b_min"])
        for rep in envelope[1:]:
            errors += _icl_errors(rep, rep["b_min"])
    elif kind == "icl_zero_divisor":
        if result["b_min"] != "unbounded-at-truncation":
            errors.append(f"b_min {result['b_min']} is not unbounded-at-truncation")
        if {"g": "T1", "h": "T2", "nu_g": 1, "nu_h": 1} not in result["violations"]:
            errors.append("violation (T1, T2) missing")
    elif kind == "valcheck":
        if result["is_valuation"] is not check["is_valuation"]:
            errors.append(f"is_valuation {result['is_valuation']}")
    elif kind == "nubar":
        if result["estimate"] != check["estimate"]:
            errors.append(f"estimate {result['estimate']} != {check['estimate']}")
    elif kind == "beta":
        if "value" in check and result["beta_lower_bound"] != check["value"]:
            errors.append(f"beta {result['beta_lower_bound']} != {check['value']}")
        if not result["explored_nodes"] > 0:
            errors.append("no nodes explored")
    elif kind == "irr":
        if result["factorizations_found"] != 0 or result["search_space_size"] != check["space"]:
            errors.append(f"certificate {result['factorizations_found']} found in {result['search_space_size']}")
    elif kind == "witness":
        families = result["families"]
        if [f["i"] for f in families] != list(range(1, check["i_max"] + 1)):
            errors.append("witness family indices")
        for fam in families:
            i = fam["i"]
            if fam["residual"] != ("T3" if i == 1 else f"T3^{i * i}") or fam["residual_order"] != i * i:
                errors.append(f"witness residual {fam['residual']} != T3^{i * i}")
        if any(c["factorizations_found"] != 0 for c in result["certificates"]):
            errors.append("a certificate found a factorization")
    else:
        errors.append(f"no check for kind {kind}")
    return errors


def work_counts(result_text: str) -> dict:
    """The program's own work counts from its JSON output."""
    counts = {"pairs_scanned": 0, "explored_nodes": 0, "state_space_size": 0, "search_space_size": 0}
    try:
        result = json.loads(result_text)["result"]
    except (ValueError, KeyError):
        return counts
    reports = result.get("envelope", [result]) + result.get("certificates", [])
    for rep in reports:
        for key in counts:
            counts[key] += int(rep.get(key, 0))
    return counts


class OracleCheck:
    """Dense recomputation (tests/oracles.py) of seeded ar-index and nu answers."""

    def __init__(self, root: str):
        sys.path[:0] = [f"{root}/src", f"{root}/tests"]
        import oracles
        from artinlab.series import RingSpec, TruncatedSeries
        from artinlab.subspace import IdealSpec

        self.oracles = oracles
        self.RingSpec, self.TruncatedSeries, self.IdealSpec = RingSpec, TruncatedSeries, IdealSpec

    @staticmethod
    def _flag(argv: list, flag: str) -> str:
        for k, arg in enumerate(argv):
            if arg == flag:
                return argv[k + 1]
            if arg.startswith(flag + "="):
                return arg[len(flag) + 1:]
        raise KeyError(flag)

    def _ring(self, argv):
        names = self._flag(argv, "--vars").split(",")
        char = int(self._flag(argv, "--char")) if "--char" in argv else 0
        return self.RingSpec(len(names), char, int(self._flag(argv, "--trunc"))), names

    def _ideal(self, argv):
        ring, names = self._ring(argv)
        gens = [self.TruncatedSeries(ring, poly.parse(t.strip(), names)) for t in self._flag(argv, "--ideal").split(";")]
        return ring, names, self.IdealSpec.of(ring, gens)

    def ar_index(self, job: dict, run: dict) -> list:
        result = json.loads(run["out"])["result"]
        _, _, ideal = self._ideal(job["argv"])
        want = self.oracles.naive_ar_index(ideal, result["certified_up_to"])
        return [] if want == result["i0"] else [f"i0 {result['i0']} != dense oracle {want}"]

    def nu_values(self, job: dict, run: dict) -> list:
        """nu of g, h and g*h of the first attaining pair at every slope of an envelope."""
        ring, names, ideal = self._ideal(job["argv"])
        errors = []
        seen = {}
        for rep in json.loads(run["out"])["result"]["envelope"]:
            pair = rep["attaining_pairs"][0]
            g, h = poly.parse(pair["g"], names), poly.parse(pair["h"], names)
            for p, printed in ((g, pair["nu_g"]), (h, pair["nu_h"]), (poly.mul(g, h, ring.trunc), pair["nu_gh"])):
                key = poly.fmt(p, names)
                if key not in seen:
                    seen[key] = self.oracles.naive_nu(ideal, self.TruncatedSeries(ring, p))
                if seen[key] != _order_value(printed):
                    errors.append(f"nu({key}) {printed} != dense oracle {seen[key]}")
        return errors
