"""Command-line interface: one subcommand per lab operation, deterministic
JSON (or CSV tables) on stdout, exit code 2 for precondition violations and
3 for exhausted budgets."""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import asdict
from fractions import Fraction
from . import artin, bounds, orders, witness as witness_mod
from .errors import BudgetError, PrecondError
from .series import ExtOrder, RingSpec, TruncatedSeries, default_names
from .subspace import IdealSpec, ModuleSpec
from .parsing import parse_expr, parse_poly


def jsonable(x, names=None):
    if isinstance(x, TruncatedSeries):
        return x.to_str(names)
    if isinstance(x, ExtOrder):
        return x.value if x.exact else f">={x.value}"
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    if isinstance(x, dict):
        return {str(k): jsonable(v, names) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v, names) for v in x]
    return x


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise PrecondError(f"bad rational {text!r}: {exc}")


def _split_list(text: str):
    return [t.strip() for t in text.split(";") if t.strip()]


def _budget(args, default: int) -> int:
    return default if args.budget is None else args.budget


def _name_list(text: str, flag: str) -> list:
    names = [v.strip() for v in text.split(",") if v.strip()]
    if len(set(names)) != len(names):
        raise PrecondError(f"duplicate name in {flag} {text!r}")
    return names


def _ring_from(args) -> tuple:
    names = _name_list(args.vars, "--vars") if args.vars else default_names(3)
    if args.trunc is None:
        raise PrecondError("--trunc is required for this command")
    ring = RingSpec(num_vars=len(names), char=args.char, trunc=args.trunc)
    return ring, names


def _ideal_from(args, ring, names) -> IdealSpec:
    if not args.ideal:
        raise PrecondError("--ideal is required for this command")
    gens = tuple(parse_poly(t, ring, names) for t in _split_list(args.ideal))
    return IdealSpec(ring, gens)


def _common_flags(p: argparse.ArgumentParser):
    p.add_argument("--vars", help="comma-separated variable names, e.g. T1,T2,T3")
    p.add_argument("--char", type=int, default=0, help="coefficient characteristic: 0 or a prime")
    p.add_argument("--trunc", type=int, help="truncation order D")
    p.add_argument("--seed", type=int, default=0, help="seed for randomized scans")
    p.add_argument("--budget", type=int, help="enumeration/scan budget")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", help="write the report to this file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="artin-lab", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def cmd(name, helptext):
        p = sub.add_parser(name, help=helptext)
        _common_flags(p)
        return p

    p = cmd("ord", "m-adic order of a series")
    p.add_argument("--x", required=True)

    p = cmd("nu", "order of x in the quotient by an ideal")
    p.add_argument("--ideal", required=True)
    p.add_argument("--x", required=True)

    p = cmd("nubar", "certified lower estimate of the multiplicative order limit")
    p.add_argument("--ideal", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--nmax", type=int, required=True)

    p = cmd("ar-index", "smallest index i0 in the intersection inclusion")
    p.add_argument("--ideal")
    p.add_argument("--module", help="rows separated by ';', components by ','")

    p = cmd("icl-scan", "scan for the additive constant of a complementary inequality")
    p.add_argument("--ideal", required=True)
    p.add_argument("--deg-max", type=int, required=True)
    p.add_argument("--a", help="slope (rational); omit to scan the slope grid")
    p.add_argument("--mode", choices=("random", "exhaustive"), default="random")
    p.add_argument("--count", type=int, default=40)

    p = cmd("valcheck", "is the quotient order function additive on products?")
    p.add_argument("--ideal", required=True)
    p.add_argument("--deg-max", type=int, required=True)
    p.add_argument("--mode", choices=("random", "exhaustive"), default="random")
    p.add_argument("--count", type=int, default=40)

    p = cmd("solve-linreg", "exact zero of a linear form with regular initial coefficients")
    p.add_argument("--gens", required=True, help="generators separated by ';'")
    p.add_argument("--x", required=True, help="approximate coordinates separated by ';'")
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--assume-regular", action="store_true")

    p = cmd("solve-fxhy", "exact zero of f*X + h*Y for distinguished f")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--f", required=True)
    p.add_argument("--h", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--i", type=int, required=True)

    p = cmd("stable-ar", "uniform intersection inclusion scan over translates")
    p.add_argument("--ideal", required=True)
    p.add_argument("--xs", required=True, help="elements separated by ';'")
    p.add_argument("--a", default="1")
    p.add_argument("--b", type=int, default=0)
    p.add_argument("--grid-b-max", type=int)

    p = cmd("beta-lb", "brute-force lower bound of the approximation function")
    p.add_argument("--system", required=True, help="polynomials in the unknowns, separated by ';'")
    p.add_argument("--unknowns", required=True, help="comma-separated unknown names")
    p.add_argument("--i", type=int, required=True)

    p = cmd("witness", "quadratic lower-bound witness family")
    p.add_argument("--i", type=int)
    p.add_argument("--i-max", type=int, help="emit the full report for 1..i_max")

    p = cmd("irr-check", "exhaustive no-factorization certificate over a prime field")
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--p", type=int, required=True)

    p = cmd("bound", "evaluate a catalog bound")
    p.add_argument("--formula", required=True, choices=bounds.FORMULA_IDS)
    p.add_argument("--i", type=int, required=True)
    _bound_param_flags(p)

    p = cmd("cross-check", "compare measured values against a catalog bound")
    p.add_argument("--formula", required=True, choices=bounds.FORMULA_IDS)
    p.add_argument("--points", required=True, help="i=value pairs separated by ';'")
    _bound_param_flags(p)

    return ap


def _bound_param_flags(p):
    p.add_argument("--a")
    p.add_argument("--b")
    p.add_argument("--c")
    p.add_argument("--iI", type=int)
    p.add_argument("--iP", type=int)
    p.add_argument("--iJn", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--ord-g", type=int)
    p.add_argument("--max-ord", type=int)
    p.add_argument("--nu-x", type=int)


def _bound_params(args) -> bounds.BoundParams:
    return bounds.BoundParams(
        a=_parse_fraction(args.a) if args.a is not None else None,
        b=_parse_fraction(args.b) if args.b is not None else None,
        c=_parse_fraction(args.c) if args.c is not None else None,
        i_I=args.iI,
        i_P=args.iP,
        i_Jn=args.iJn,
        n=args.n,
        t=args.t,
        ord_g=args.ord_g,
        max_ord=args.max_ord,
        nu_x=args.nu_x,
    )


def _icl_payload(rep: orders.IclReport, names):
    return {
        "a": jsonable(rep.a),
        "b_min": "unbounded-at-truncation" if rep.b_min is None else jsonable(rep.b_min),
        "attaining_pairs": [
            {
                "g": g.to_str(names),
                "h": h.to_str(names),
                "nu_g": jsonable(ng),
                "nu_h": jsonable(nh),
                "nu_gh": jsonable(ngh),
            }
            for g, h, ng, nh, ngh in rep.attaining_pairs
        ],
        "violations": [
            {"g": g.to_str(names), "h": h.to_str(names), "nu_g": jsonable(ng), "nu_h": jsonable(nh)}
            for g, h, ng, nh in rep.violations
        ],
        "scan_degree": rep.scan_degree,
        "pairs_scanned": rep.pair_count,
        "skipped_beyond_truncation": len(rep.skipped),
        "mode": rep.mode,
        "certified_note": rep.certified_note,
    }


def _solve_payload(cert: artin.SolveCertificate, names):
    return {
        "input": [s.to_str(names) for s in cert.input],
        "output": [s.to_str(names) for s in cert.output],
        "level_i": cert.level_i,
        "proximity": [jsonable(p) for p in cert.proximity],
        "residual_order": jsonable(cert.residual_order),
        "regularity": cert.regularity,
    }


def run_command(argv) -> tuple:
    """Execute one CLI invocation; returns (report dict, csv table or None)."""
    args = build_parser().parse_args(argv)
    command = args.command
    names = None
    ring = None
    payload = None
    table = None
    certified = None
    seed_used = None
    warnings = []

    if command == "ord":
        ring, names = _ring_from(args)
        x = parse_poly(args.x, ring, names)
        payload = {"x": x.to_str(names), "ord": jsonable(x.order())}

    elif command == "nu":
        ring, names = _ring_from(args)
        I = _ideal_from(args, ring, names)
        x = parse_poly(args.x, ring, names)
        payload = {"x": x.to_str(names), "nu": jsonable(orders.nu(I, x))}

    elif command == "nubar":
        ring, names = _ring_from(args)
        I = _ideal_from(args, ring, names)
        x = parse_poly(args.x, ring, names)
        rep = orders.nu_bar_estimate(I, x, args.nmax)
        warnings = list(rep.flags)
        payload = {
            "estimate": jsonable(rep.estimate),
            "nu_x": jsonable(rep.nu_x),
            "samples": [{"n": n, "nu": jsonable(v)} for n, v in rep.samples],
        }
        table = (["n", "nu"], [[n, jsonable(v)] for n, v in rep.samples])

    elif command == "ar-index":
        ring, names = _ring_from(args)
        if args.module:
            rows = []
            for row in _split_list(args.module):
                rows.append(tuple(parse_poly(c, ring, names) for c in row.split(",")))
            arity = len(rows[0]) if rows else 1
            M = ModuleSpec(ring, arity, tuple(rows))
        else:
            M = _ideal_from(args, ring, names).as_module()
        res = artin.artin_rees_index(M)
        certified = res.certified_up_to
        payload = {
            "i0": res.i0,
            "certified_up_to": res.certified_up_to,
            "tight_witness": None
            if res.tight_witness is None
            else {
                "i": res.tight_witness[0],
                "element": [s.to_str(names) for s in res.tight_witness[1]],
            },
        }

    elif command == "icl-scan":
        ring, names = _ring_from(args)
        I = _ideal_from(args, ring, names)
        seed_used = args.seed
        budget = _budget(args, 200_000)
        if args.a is None:
            reps = orders.icl_envelope(
                I, args.deg_max, mode=args.mode, count=args.count, seed=args.seed, budget=budget
            )
            payload = {"envelope": [_icl_payload(r, names) for r in reps]}
        else:
            rep = orders.icl_scan(
                I,
                args.deg_max,
                a=_parse_fraction(args.a),
                mode=args.mode,
                count=args.count,
                seed=args.seed,
                budget=budget,
            )
            payload = _icl_payload(rep, names)
            table = (
                ["g", "h", "nu_g", "nu_h", "nu_gh"],
                [
                    [g.to_str(names), h.to_str(names), jsonable(ng), jsonable(nh), jsonable(ngh)]
                    for g, h, ng, nh, ngh in rep.attaining_pairs
                ],
            )

    elif command == "valcheck":
        ring, names = _ring_from(args)
        I = _ideal_from(args, ring, names)
        seed_used = args.seed
        rep = orders.valuation_check(
            I,
            args.deg_max,
            mode=args.mode,
            count=args.count,
            seed=args.seed,
            budget=_budget(args, 200_000),
        )
        payload = {
            "is_valuation": rep.is_valuation,
            "counterexample": None
            if rep.counterexample is None
            else {
                "g": rep.counterexample[0].to_str(names),
                "h": rep.counterexample[1].to_str(names),
                "nu_g": jsonable(rep.counterexample[2]),
                "nu_h": jsonable(rep.counterexample[3]),
                "nu_gh": jsonable(rep.counterexample[4]),
            },
            "pairs_scanned": rep.pair_count,
            "scan_degree": rep.scan_degree,
        }

    elif command == "solve-linreg":
        ring, names = _ring_from(args)
        gens = [parse_poly(t, ring, names) for t in _split_list(args.gens)]
        xs = [parse_poly(t, ring, names) for t in _split_list(args.x)]
        cert = artin.solve_linear_regular(gens, xs, args.i, assume_regular=args.assume_regular)
        payload = _solve_payload(cert, names)

    elif command == "solve-fxhy":
        ring, names = _ring_from(args)
        cert = artin.solve_fx_hy(
            args.k,
            parse_poly(args.f, ring, names),
            parse_poly(args.h, ring, names),
            parse_poly(args.x, ring, names),
            parse_poly(args.y, ring, names),
            args.i,
        )
        payload = _solve_payload(cert, names)

    elif command == "stable-ar":
        ring, names = _ring_from(args)
        I = _ideal_from(args, ring, names)
        xs = [parse_poly(t, ring, names) for t in _split_list(args.xs)]
        rep = artin.stable_ar_scan(
            I, xs, a=_parse_fraction(args.a), b=args.b, grid_b_max=args.grid_b_max
        )
        payload = {
            "a": jsonable(rep.a),
            "b": rep.b,
            "all_hold": rep.all_hold,
            "checks": [
                {
                    "x": x.to_str(names),
                    "i": i,
                    "nu_x": jsonable(nu_x),
                    "exponent": expo,
                    "holds": holds,
                }
                for x, i, nu_x, expo, holds in rep.checks
            ],
            "skipped": [x.to_str(names) for x in rep.skipped],
            "grid": [{"a": jsonable(a), "b_min": b} for a, b in rep.grid],
            "minimal_pass": None
            if rep.minimal_pass is None
            else {"a": jsonable(rep.minimal_pass[0]), "b": rep.minimal_pass[1]},
        }
        table = (
            ["x", "i", "nu_x", "exponent", "holds"],
            [[x.to_str(names), i, jsonable(nu), ex, h] for x, i, nu, ex, h in rep.checks],
        )

    elif command == "beta-lb":
        ring, names = _ring_from(args)
        unknowns = _name_list(args.unknowns, "--unknowns")
        system = [
            parse_expr(t, ring, names, unknowns) for t in _split_list(args.system)
        ]
        res = artin.beta_lower_bound_bruteforce(system, args.i, budget=_budget(args, 2_000_000))
        payload = {
            "beta_lower_bound": res.value,
            "i": res.level_i,
            "explored_nodes": res.explored_nodes,
            "state_space_size": str(res.state_space_size),
            "solvable_classes": res.solvable_classes,
        }

    elif command == "witness":
        ring, names = _ring_from(args)
        if args.i_max is not None:
            rep = witness_mod.lower_bound_certificate(
                args.i_max, ring, budget=_budget(args, 10_000_000)
            )
            payload = {
                "i_max": rep.i_max,
                "families": [_witness_payload(f, names) for f in rep.families],
                "certificates": [asdict(c) for c in rep.certificates],
                "statement": rep.statement,
            }
            for c in payload["certificates"]:
                c.pop("counterexample", None)
        else:
            if args.i is None:
                raise PrecondError("witness needs --i or --i-max")
            fam = witness_mod.monomial_witness_family(args.i, ring)
            if fam.char_note:
                warnings.append(fam.char_note)
            payload = _witness_payload(fam, names)

    elif command == "irr-check":
        cert = witness_mod.irreducibility_exhaustive(
            args.i, args.p, budget=_budget(args, 10_000_000)
        )
        payload = {
            "i": cert.i,
            "p": cert.p,
            "search_space_size": cert.search_space_size,
            "factorizations_found": cert.factorizations_found,
            "method": cert.method,
        }

    elif command == "bound":
        value = bounds.evaluate_bound(args.formula, _bound_params(args), args.i)
        payload = {"formula": args.formula, "i": args.i, "value": value}

    elif command == "cross-check":
        points = []
        for chunk in _split_list(args.points):
            left, _, right = chunk.partition("=")
            try:
                points.append((int(left), int(right)))
            except ValueError:
                raise PrecondError(f"bad point {chunk!r}: expected i=value with integers")
        rep = bounds.cross_check_bound(args.formula, _bound_params(args), points)
        payload = {
            "formula": rep.formula_id,
            "rows": [
                {"i": i, "measured": m, "bound": b, "within": w} for i, m, b, w in rep.rows
            ],
            "exceedances": [
                {"i": i, "measured": m, "bound": b} for i, m, b in rep.exceedances
            ],
            "ok": rep.ok,
            "note": rep.note,
        }
        table = (["i", "measured", "bound", "within"], [list(r) for r in jsonable(rep.rows)])

    report = {
        "command": command,
        "ring": None
        if ring is None
        else {"vars": names, "char": ring.char, "trunc": ring.trunc},
        "params": _echo_params(args),
        "result": payload,
        "certified_up_to": certified,
        "seed": seed_used,
        "warnings": warnings,
    }
    return report, table


def _witness_payload(fam, names):
    return {
        "i": fam.i,
        "x1": fam.x1.to_str(names),
        "x2": fam.x2.to_str(names),
        "x3": fam.x3.to_str(names),
        "x4": fam.x4.to_str(names),
        "residual": fam.residual.to_str(names),
        "residual_order": jsonable(fam.residual_order),
        "char_note": fam.char_note,
    }


def _echo_params(args) -> dict:
    skip = {"command", "vars", "char", "trunc", "seed", "budget", "format", "out"}
    out = {}
    for key, val in sorted(vars(args).items()):
        if key in skip or val is None:
            continue
        out[key] = val
    return out


def _emit(report, table, fmt, out_path):
    if fmt == "json":
        text = json.dumps(report, indent=2, ensure_ascii=True) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        if table is not None:
            headers, rows = table
            writer.writerow(headers)
            writer.writerows(rows)
        else:
            writer.writerow(["key", "value"])
            for key, val in (report["result"] or {}).items():
                writer.writerow([key, json.dumps(val) if isinstance(val, (dict, list)) else val])
        text = buf.getvalue()
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        report, table = run_command(argv)
    except BudgetError as exc:
        print(f"error: budget exhausted: {exc}", file=sys.stderr)
        return 3
    except PrecondError as exc:
        print(f"error: precondition violated: {exc}", file=sys.stderr)
        return 2
    args = build_parser().parse_args(argv)
    _emit(report, table, args.format, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
