"""Command-line interface: one subcommand per lab operation, deterministic
JSON (or CSV tables) on stdout, exit code 2 for precondition violations and
3 for exhausted budgets."""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction
from math import comb
from typing import Callable, NamedTuple, Optional

from . import artin, bounds, orders, witness as witness_mod
from .errors import BudgetError, PrecondError
from .series import ExtOrder, RingSpec, TruncatedSeries, default_names
from .subspace import IdealSpec, ModuleSpec
from .parsing import parse_expr, parse_poly


def jsonable(x, names=None):
    """The JSON form of a report value; a record (a NamedTuple: every report and
    value type of the package) becomes the dict of its fields, in declaration order."""
    if isinstance(x, TruncatedSeries):
        return x.to_str(names)
    if isinstance(x, ExtOrder):
        return x.value if x.exact else f">={x.value}"
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    if isinstance(x, tuple) and hasattr(x, "_asdict"):
        return {k: jsonable(v, names) for k, v in x._asdict().items()}
    if isinstance(x, dict):
        return {str(k): jsonable(v, names) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v, names) for v in x]
    return x


def _named(keys, row):
    """A result tuple as a dict keyed in report order; None stays None."""
    return None if row is None else dict(zip(keys, row))


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise PrecondError(f"bad rational {text!r}: {exc}")


def _nonneg_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _split_list(text: str):
    return [t.strip() for t in text.split(";") if t.strip()]


def _name_list(text: str, flag: str) -> list:
    names = [v.strip() for v in text.split(",") if v.strip()]
    if len(set(names)) != len(names):
        raise PrecondError(f"duplicate name in {flag} {text!r}")
    return names


def _ideal_from(args, ring, names) -> IdealSpec:
    if not args.ideal:
        raise PrecondError("--ideal is required for this command")
    return IdealSpec(ring, tuple(parse_poly(t, ring, names) for t in _split_list(args.ideal)))


class Setup(NamedTuple):
    """What the shared set-up built for a command from the common flags."""
    ring: Optional[RingSpec] = None
    names: Optional[list] = None
    ideal: Optional[IdealSpec] = None

    def poly(self, text: str) -> TruncatedSeries:
        return parse_poly(text, self.ring, self.names)

    def polys(self, text: str) -> list:
        return [self.poly(t) for t in _split_list(text)]


class Out(NamedTuple):
    """A handler's answer: the payload and the report fields beside it."""
    result: object
    table: Optional[tuple] = None  # (headers, rows) for --format csv
    warnings: tuple = ()
    certified_up_to: Optional[int] = None
    seed: Optional[int] = None


class Command(NamedTuple):
    summary: str
    flags: tuple  # (flag, add_argument keywords) beyond the ring and common flags
    run: Callable  # (args, Setup) -> Out
    ring: bool  # take --vars, --char, --trunc and build the ring and names from them
    ideal: bool  # also build the ideal from --ideal


def command(name: str, summary: str, *flags, ring=True, ideal=False):
    """Register the decorated handler as subcommand `name` of the parser."""
    def register(run):
        COMMANDS[name] = Command(summary, flags, run, ring, ideal)
        return run
    return register


def budget_flag(default: int) -> tuple:
    """The --budget flag of a command that runs under a budget, with its default."""
    return ("--budget", {"type": _nonneg_int, "default": default, "help": "enumeration/scan budget"})


COMMANDS = {}  # subcommand name -> Command, in the order the parser lists them
RING_FLAGS = (
    ("--vars", {"help": "comma-separated variable names, e.g. T1,T2,T3"}),
    ("--char", {"type": int, "default": 0, "help": "coefficient characteristic: 0 or a prime"}),
    ("--trunc", {"type": int, "help": "truncation order D"}),
)
COMMON_FLAGS = (
    ("--format", {"choices": ("json", "csv"), "default": "json"}),
    ("--out", {"help": "write the report to this file instead of stdout"}),
)
# a command takes only the flags it reads, so any other exits 2; those that
# configure the run are not echoed, every other one is, under "params"
NOT_ECHOED = {"command", "vars", "char", "trunc", "seed", "budget", "format", "out"}

REQ = {"required": True}
INT = {"type": int}
REQ_INT = {"type": int, "required": True}
X = ("--x", REQ)
LEVEL = ("--i", REQ_INT)
IDEAL = ("--ideal", REQ)
DEG_MAX = ("--deg-max", REQ_INT)
SCAN = (("--mode", {"choices": ("random", "exhaustive"), "default": "random"}),
        ("--count", {"type": _nonneg_int, "default": 40}),
        ("--seed", {"type": int, "default": 0, "help": "seed for randomized scans"}),
        budget_flag(200_000))
FORMULA = ("--formula", {"required": True, "choices": bounds.FORMULA_IDS})
PAIR = ("g", "h", "nu_g", "nu_h", "nu_gh")
CHECK = ("x", "i", "nu_x", "exponent", "holds")
POINT = ("i", "measured", "bound", "within")

# dest of each bound-parameter flag -> BoundParams field
RATIONAL = ("a", "b", "c")
BOUND_PARAMS = {"a": "a", "b": "b", "c": "c", "iI": "i_I", "iP": "i_P", "iJn": "i_Jn", "n": "n",
                "t": "t", "ord_g": "ord_g", "max_ord": "max_ord", "nu_x": "nu_x"}
BOUND_FLAGS = tuple(("--" + dest.replace("_", "-"), {} if dest in RATIONAL else INT)
                    for dest in BOUND_PARAMS)


def _bound_params(args) -> bounds.BoundParams:
    values = {field: getattr(args, dest) for dest, field in BOUND_PARAMS.items()}
    for key in RATIONAL:
        if values[key] is not None:
            values[key] = _parse_fraction(values[key])
    return bounds.BoundParams(**values)


def _scan_options(args) -> dict:
    return {"mode": args.mode, "count": args.count, "seed": args.seed, "budget": args.budget}


def _icl_payload(rep: orders.IclReport) -> dict:
    b_min = "unbounded-at-truncation" if rep.b_min is None else rep.b_min
    return {"a": rep.a, "b_min": b_min,
            "attaining_pairs": [_named(PAIR, r) for r in rep.attaining_pairs],
            "violations": [_named(PAIR, r) for r in rep.violations],
            "scan_degree": rep.scan_degree, "pairs_scanned": rep.pair_count,
            "skipped_beyond_truncation": len(rep.skipped), "mode": rep.mode,
            "certified_note": rep.certified_note}


@command("ord", "m-adic order of a series", X)
def _ord(args, s):
    x = s.poly(args.x)
    return Out({"x": x, "ord": x.order()})


@command("nu", "order of x in the quotient by an ideal", IDEAL, X, budget_flag(20_000), ideal=True)
def _nu(args, s):
    # one echelon column per monomial of degree <= D: refuse before building any span
    columns = comb(s.ring.num_vars + s.ring.trunc, s.ring.num_vars)
    if columns > args.budget:
        raise BudgetError(f"nu needs {columns} columns > budget {args.budget}")
    x = s.poly(args.x)
    return Out({"x": x, "nu": orders.nu(s.ideal, x)})


@command("nubar", "certified lower estimate of the multiplicative order limit", IDEAL, X,
         ("--nmax", REQ_INT), ideal=True)
def _nubar(args, s):
    rep = orders.nu_bar_estimate(s.ideal, s.poly(args.x), args.nmax)
    samples = [{"n": n, "nu": v} for n, v in rep.samples]
    payload = {"estimate": rep.estimate, "nu_x": rep.nu_x, "samples": samples}
    return Out(payload, table=(["n", "nu"], rep.samples), warnings=rep.flags)


@command("ar-index", "smallest index i0 in the intersection inclusion", ("--ideal", {}),
         ("--module", {"help": "rows separated by ';', components by ','"}))
def _ar_index(args, s):
    if args.module:
        rows = [tuple(s.poly(c) for c in row.split(",")) for row in _split_list(args.module)]
        M = ModuleSpec(s.ring, len(rows[0]) if rows else 1, tuple(rows))
    else:
        M = _ideal_from(args, s.ring, s.names).as_module()
    res = artin.artin_rees_index(M)
    witness = _named(("i", "element"), res.tight_witness)
    payload = {"i0": res.i0, "certified_up_to": res.certified_up_to, "tight_witness": witness}
    return Out(payload, certified_up_to=res.certified_up_to)


@command("icl-scan", "scan for the additive constant of a complementary inequality", IDEAL,
         DEG_MAX, ("--a", {"help": "slope (rational); omit to scan the slope grid"}), *SCAN,
         ideal=True)
def _icl_scan(args, s):
    if args.a is None:
        reps = orders.icl_envelope(s.ideal, args.deg_max, **_scan_options(args))
        return Out({"envelope": [_icl_payload(r) for r in reps]}, seed=args.seed)
    rep = orders.icl_scan(s.ideal, args.deg_max, a=_parse_fraction(args.a), **_scan_options(args))
    return Out(_icl_payload(rep), table=(PAIR, rep.attaining_pairs), seed=args.seed)


@command("valcheck", "is the quotient order function additive on products?", IDEAL, DEG_MAX,
         *SCAN, ideal=True)
def _valcheck(args, s):
    rep = orders.valuation_check(s.ideal, args.deg_max, **_scan_options(args))
    counterexample = _named(PAIR, rep.counterexample)
    return Out({"is_valuation": rep.is_valuation, "counterexample": counterexample,
                "pairs_scanned": rep.pair_count, "scan_degree": rep.scan_degree}, seed=args.seed)


@command("solve-linreg", "exact zero of a linear form with regular initial coefficients",
         ("--gens", {"required": True, "help": "generators separated by ';'"}),
         ("--x", {"required": True, "help": "approximate coordinates separated by ';'"}),
         LEVEL, ("--assume-regular", {"action": "store_true"}))
def _solve_linreg(args, s):
    gens, xs = s.polys(args.gens), s.polys(args.x)
    return Out(artin.solve_linear_regular(gens, xs, args.i, assume_regular=args.assume_regular))


@command("solve-fxhy", "exact zero of f*X + h*Y for distinguished f", ("--k", REQ_INT),
         ("--f", REQ), ("--h", REQ), X, ("--y", REQ), LEVEL)
def _solve_fxhy(args, s):
    f, h, x, y = (s.poly(t) for t in (args.f, args.h, args.x, args.y))
    return Out(artin.solve_fx_hy(args.k, f, h, x, y, args.i))


@command("stable-ar", "uniform intersection inclusion scan over translates", IDEAL,
         ("--xs", {"required": True, "help": "elements separated by ';'"}),
         ("--a", {"default": "1"}), ("--b", {"type": int, "default": 0}),
         ("--grid-b-max", {"type": _nonneg_int}), ideal=True)
def _stable_ar(args, s):
    xs = s.polys(args.xs)
    a = _parse_fraction(args.a)
    rep = artin.stable_ar_scan(s.ideal, xs, a=a, b=args.b, grid_b_max=args.grid_b_max)
    return Out({"a": rep.a, "b": rep.b, "all_hold": rep.all_hold,
                "checks": [_named(CHECK, c) for c in rep.checks], "skipped": rep.skipped,
                "grid": [_named(("a", "b_min"), g) for g in rep.grid],
                "minimal_pass": _named(("a", "b"), rep.minimal_pass)},
               table=(CHECK, rep.checks))


@command("beta-lb", "brute-force lower bound of the approximation function",
         ("--system", {"required": True, "help": "polynomials in the unknowns, separated by ';'"}),
         ("--unknowns", {"required": True, "help": "comma-separated unknown names"}), LEVEL,
         budget_flag(2_000_000))
def _beta_lb(args, s):
    unknowns = _name_list(args.unknowns, "--unknowns")
    system = [parse_expr(t, s.ring, s.names, unknowns) for t in _split_list(args.system)]
    res = artin.beta_lower_bound_bruteforce(system, args.i, budget=args.budget)
    return Out({"beta_lower_bound": res.value, "i": res.level_i,
                "explored_nodes": res.explored_nodes, "reads": res.reads,
                "state_space_size": res.state_space_size,
                "solvable_classes": res.solvable_classes})


@command("witness", "quadratic lower-bound witness family", ("--i", INT), budget_flag(10_000_000),
         ("--i-max", {"type": int, "help": "emit the full report for 1..i_max"}))
def _witness(args, s):
    if args.i_max is not None:
        return Out(witness_mod.lower_bound_certificate(args.i_max, s.ring, budget=args.budget))
    if args.i is None:
        raise PrecondError("witness needs --i or --i-max")
    fam = witness_mod.monomial_witness_family(args.i, s.ring)
    return Out(fam, warnings=[fam.char_note] if fam.char_note else ())


@command("irr-check", "exhaustive no-factorization certificate over a prime field", LEVEL,
         ("--p", REQ_INT), budget_flag(10_000_000), ring=False)
def _irr_check(args, s):
    return Out(witness_mod.irreducibility_exhaustive(args.i, args.p, budget=args.budget))


@command("bound", "evaluate a catalog bound", FORMULA, LEVEL, *BOUND_FLAGS, ring=False)
def _bound(args, s):
    value = bounds.evaluate_bound(args.formula, _bound_params(args), args.i)
    return Out({"formula": args.formula, "i": args.i, "value": value})


@command("cross-check", "compare measured values against a catalog bound", FORMULA,
         ("--points", {"required": True, "help": "i=value pairs separated by ';'"}), *BOUND_FLAGS,
         ring=False)
def _cross_check(args, s):
    points = []
    for chunk in _split_list(args.points):
        left, _, right = chunk.partition("=")
        try:
            points.append((int(left), int(right)))
        except ValueError:
            raise PrecondError(f"bad point {chunk!r}: expected i=value with integers")
    rep = bounds.cross_check_bound(args.formula, _bound_params(args), points)
    return Out({"formula": rep.formula_id, "rows": [_named(POINT, r) for r in rep.rows],
                "exceedances": [_named(POINT, r) for r in rep.exceedances], "ok": rep.ok,
                "note": rep.note}, table=(POINT, rep.rows))


def build_parser(name: Optional[str] = None) -> argparse.ArgumentParser:
    """The full parser, one subparser per command; or, given a command name, that
    command's parser alone, under the prog and flags its subparser has."""
    if name is None:
        top = argparse.ArgumentParser(prog="artin-lab", description=__doc__)
        sub = top.add_subparsers(dest="command", required=True)
        parsers = {n: sub.add_parser(n, help=cmd.summary) for n, cmd in COMMANDS.items()}
    else:
        top = argparse.ArgumentParser(prog=f"artin-lab {name}")
        parsers = {name: top}
    for n, p in parsers.items():
        cmd = COMMANDS[n]
        for flag, keywords in (RING_FLAGS if cmd.ring else ()) + COMMON_FLAGS + cmd.flags:
            p.add_argument(flag, **keywords)
    return top


def parse(argv) -> argparse.Namespace:
    """The namespace of one argument list, from the invoked command's parser alone
    when that parser takes every argument. Any other list ends in help or an
    error, and the full parser reads it again, so what it prints is the full CLI's."""
    if argv and argv[0] in COMMANDS:
        args, rest = build_parser(argv[0]).parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return build_parser().parse_args(argv)


def _setup(args, cmd: Command) -> Setup:
    if not cmd.ring:
        return Setup()
    names = _name_list(args.vars, "--vars") if args.vars else default_names(3)
    if args.trunc is None:
        raise PrecondError("--trunc is required for this command")
    ring = RingSpec(num_vars=len(names), char=args.char, trunc=args.trunc)
    return Setup(ring, names, _ideal_from(args, ring, names) if cmd.ideal else None)


def run_command(argv) -> tuple:
    """Execute one CLI invocation, given its argument list or the namespace parsed
    from it; returns (report dict, csv table or None)."""
    args = argv if isinstance(argv, argparse.Namespace) else parse(argv)
    cmd = COMMANDS[args.command]
    s = _setup(args, cmd)
    out = cmd.run(args, s)
    ring = None if s.ring is None else {"vars": s.names, "char": s.ring.char, "trunc": s.ring.trunc}
    params = {k: v for k, v in sorted(vars(args).items()) if k not in NOT_ECHOED and v is not None}
    report = {"command": args.command, "ring": ring, "params": params, "result": out.result,
              "certified_up_to": out.certified_up_to, "seed": out.seed, "warnings": out.warnings}
    return jsonable(report, s.names), jsonable(out.table, s.names)


def _emit(report, table, fmt, out_path):
    if fmt == "json":
        text = json.dumps(report, indent=2, ensure_ascii=True) + "\n"
    else:
        if table is None:  # no natural table: flatten the payload to key,value lines
            rows = [[k, json.dumps(v) if isinstance(v, (dict, list)) else v]
                    for k, v in (report["result"] or {}).items()]
            table = (["key", "value"], rows)
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([table[0], *table[1]])
        text = buf.getvalue()
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:  # a missing directory, a directory as the path, no permission
            raise PrecondError(f"cannot write the report: {exc}") from None
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    args = parse(sys.argv[1:] if argv is None else argv)
    try:
        _emit(*run_command(args), args.format, args.out)
    except BudgetError as exc:
        print(f"error: budget exhausted: {exc}", file=sys.stderr)
        return 3
    except PrecondError as exc:
        print(f"error: precondition violated: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
