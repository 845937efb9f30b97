"""Job lists of the four workloads, built from the seed.

A job is a dict: `argv` (what the CLI sees) and `check` (what the
correctness gate verifies; see checks.py).  Only the argv strings reach the
program.  Generated polynomials are passed as `--flag=value`, because
argparse takes a lone value such as `-T1*T2` for an option.
"""

from __future__ import annotations

import random

import poly

CUSP = "T1^2 + T2^3"
CONE = "T1^2 + T2^2 + T3^2"
FP = "32003"


def _job(argv: list, check: dict) -> dict:
    return {"argv": argv, "check": check}


def _opt(flag: str, value: str) -> str:
    return f"{flag}={value}"


def _vars(n: int) -> str:
    return ",".join(poly.names_for(n))


def random_series(rng, num_vars, lo, hi, nterms):
    """The test suite's recipe: nterms draws of a monomial and a small coefficient."""
    monos = poly.monomials(num_vars, lo, hi)
    terms = {}
    for _ in range(nterms):
        terms[rng.choice(monos)] = rng.choice([-2, -1, 1, 2, 3])
    return terms


def random_ideal(rng, num_vars: int, tail_degrees) -> list:
    """Two generators with fixed leading forms T1^2 and T2^3 and one seeded
    tail term in each of the given degrees.  The top degree, and with it the
    certified range, is the same for every seed, so the echelon work varies
    little from seed to seed."""
    leads = [(2,) + (0,) * (num_vars - 1), (0, 3) + (0,) * (num_vars - 2)]
    gens = []
    for lead, degrees in zip(leads, tail_degrees):
        g = {lead: rng.choice([1, 2, -1])}
        for d in degrees:
            g = poly.add(g, random_series(rng, num_vars, d, d, 1))
        gens.append(g)
    return gens


def ar_random_job(rng, num_vars: int, trunc: int, cross_check: bool = False) -> dict:
    names = poly.names_for(num_vars)
    # the dense oracle only affords generators of degree 3 and a certified range of 1 or 2
    gens = random_ideal(rng, num_vars, ((3,), (3,)) if cross_check else ((3, 4), (4, 5)))
    argv = ["ar-index", "--vars", _vars(num_vars), "--trunc", str(trunc),
            _opt("--ideal", "; ".join(poly.fmt(g, names) for g in gens))]
    return _job(argv, {"kind": "ar_oracle" if cross_check else "ar_any"})


def linreg_instance(rng) -> dict:
    """Acceptance-suite recipe: an exact antisymmetric zero plus a perturbation
    small enough to keep the residual inside m^(i + ord(f2) + 1), at D = 10."""
    D = 10
    e1, e2 = rng.choice([1, 2]), rng.choice([2, 3])
    f = [
        poly.add({(e1, 0): rng.choice([1, 2, -1])}, random_series(rng, 2, e1 + 1, e1 + 2, 1)),
        poly.add({(0, e2): rng.choice([1, 3, -2])}, random_series(rng, 2, e2 + 1, e2 + 2, 1)),
    ]
    ords = [poly.order(g, D) for g in f]
    if ords[0] > ords[1]:
        f.reverse()
        ords.reverse()
    i = rng.choice([1, 2, 3])
    z = random_series(rng, 2, 0, 3, 3)
    x = [poly.mul(f[1], z, D), poly.scale(poly.mul(f[0], z, D), -1)]
    x = [poly.add(x[j], random_series(rng, 2, i + ords[1] - ords[j] + 1, D, 2)) for j in range(2)]
    names = poly.names_for(2)
    argv = ["solve-linreg", "--vars", "T1,T2", "--trunc", str(D),
            _opt("--gens", "; ".join(poly.fmt(g, names) for g in f)),
            _opt("--x", "; ".join(poly.fmt(v, names) for v in x)), "--i", str(i)]
    need = [min(i + ords[1] - ords[j] + 1, D + 1) for j in range(2)]
    return _job(argv, {"kind": "linreg", "trunc": D, "vars": 2, "f": [poly.fmt(g, names) for g in f],
                       "x": [poly.fmt(v, names) for v in x], "proximity": need})


def reduce_mod_principal(h: dict, f: dict, k: int, D: int):
    """h = a*f + h' with no term of h' divisible by T1^k: the program's own
    reduction, redone here so the recipe does not run artinlab code."""
    a, rest = {}, h
    while True:
        div = {m: c for m, c in rest.items() if m[0] >= k}
        if not div:
            return a, rest
        u = {(m[0] - k,) + m[1:]: c for m, c in div.items()}
        a = poly.add(a, u)
        rest = poly.add(rest, poly.mul(u, f, D), -1)


def fxhy_instance(rng) -> dict:
    """Acceptance-suite recipe for f*X + h*Y with f = T1^k + g, redrawn until admissible."""
    D = 10
    while True:
        k = rng.choice([1, 2])
        g = poly.add({(0, k + 1, 0): rng.choice([1, -1, 2])}, random_series(rng, 3, k + 2, k + 3, 1))
        f = poly.add({(k, 0, 0): 1}, g)
        h = random_series(rng, 3, 1, 3, 2)
        _, h1 = reduce_mod_principal(h, f, k, D)
        if not h1:
            h = poly.add(h, {(0, 1, 0): 1})
            _, h1 = reduce_mod_principal(h, f, k, D)
        nu_h = poly.order(h1, D)
        i = rng.choice([1, 2])
        bound = i + max(k, nu_h + 1)
        if bound > D:
            i = 1
            bound = i + max(k, nu_h + 1)
        z = random_series(rng, 3, 0, 2, 3)
        x = poly.add(poly.mul(h, z, D), random_series(rng, 3, bound + 1 - k, D, 2))
        y = poly.add(poly.scale(poly.mul(f, z, D), -1), random_series(rng, 3, bound + 1 - nu_h, D, 2))
        residual = poly.add(poly.mul(f, x, D), poly.mul(h, y, D))
        if bound <= D and poly.order(residual, D) > bound:
            break
    names = poly.names_for(3)
    fs, hs, xs, ys = (poly.fmt(p, names) for p in (f, h, x, y))
    argv = ["solve-fxhy", "--vars", "T1,T2,T3", "--trunc", str(D), "--k", str(k),
            _opt("--f", fs), _opt("--h", hs), _opt("--x", xs), _opt("--y", ys), "--i", str(i)]
    return _job(argv, {"kind": "fxhy", "trunc": D, "vars": 3, "f": fs, "h": hs,
                       "x": [xs, ys], "proximity": [min(i + 1, D + 1)] * 2})


def stable_ar_job(rng) -> dict:
    names = poly.names_for(2)
    xs = []
    for lead in rng.sample(poly.monomials(2, 1, 2), 3):
        xs.append(poly.fmt(poly.add({lead: 1}, random_series(rng, 2, 2, 3, 2)), names))
    argv = ["stable-ar", "--vars", "T1,T2", "--trunc", "12", "--ideal", CUSP, _opt("--xs", "; ".join(xs))]
    return _job(argv, {"kind": "stable_ar"})


def cusp_ladder(char: str) -> list:
    return [
        _job(["ar-index", "--vars", _vars(n), "--char", char, "--trunc", str(d), "--ideal", CUSP],
             {"kind": "ar_cusp"})
        for n, d in ((2, 20), (3, 12), (4, 8))
    ]


def icl_envelope_job(num_vars, ideal, char, seed, b_min, cross_check=False) -> dict:
    argv = ["icl-scan", "--vars", _vars(num_vars), "--char", char, "--trunc", "8", "--ideal", ideal,
            "--deg-max", "3", "--seed", str(seed)]
    return _job(argv, {"kind": "icl_envelope", "b_min": b_min, "cross_check_nu": cross_check})


def valcheck_cone(char, seed) -> dict:
    argv = ["valcheck", "--vars", _vars(3), "--char", char, "--trunc", "8", "--ideal", CONE,
            "--deg-max", "3", "--seed", str(seed)]
    return _job(argv, {"kind": "valcheck", "is_valuation": True})


def filtration_q(seed: int) -> list:
    rng = random.Random(seed)
    jobs = cusp_ladder("0")
    jobs.append(_job(["ar-index", "--vars", "T1,T2", "--trunc", "14", "--module", "T1,T2; T2^2,T1^2 + T2^3"],
                     {"kind": "ar_any"}))
    jobs.append(ar_random_job(rng, 2, 14))
    jobs.append(ar_random_job(rng, 3, 9))
    jobs.append(stable_ar_job(rng))
    jobs += [linreg_instance(rng) for _ in range(4)]
    jobs += [fxhy_instance(rng) for _ in range(4)]
    return jobs


def scan_seeds(seed: int, n: int) -> list:
    """Distinct candidate seeds for the scans of one workload.  One shared seed
    would give the cone envelope and the cone valcheck the same candidates,
    so their costs would rise and fall together from seed to seed."""
    rng = random.Random(seed)
    return [rng.randrange(2**31) for _ in range(n)]


def scan_q(seed: int) -> list:
    # Each scan runs on one candidate draw from the seed and one fixed draw.
    # The cost of one draw of 40 random candidates moves by about 12% from
    # seed to seed; the fixed half keeps run-to-run spread at half of that.
    s, fixed = scan_seeds(seed, 4), scan_seeds(0, 3)
    return [
        icl_envelope_job(2, CUSP, "0", s[0], 1, cross_check=True),
        icl_envelope_job(2, CUSP, "0", fixed[0], 1),
        icl_envelope_job(3, CONE, "0", s[1], 0),
        icl_envelope_job(3, CONE, "0", fixed[1], 0),
        _job(["icl-scan", "--vars", "T1,T2", "--trunc", "8", "--ideal", "T1*T2", "--deg-max", "3",
              "--a", "1", "--seed", str(s[2])], {"kind": "icl_zero_divisor"}),
        valcheck_cone("0", s[3]),
        valcheck_cone("0", fixed[2]),
        _job(["nubar", "--vars", "T1,T2", "--trunc", "24", "--ideal", "T1^2 - T2^3", "--x", "T1",
              "--nmax", "8"], {"kind": "nubar", "estimate": "3/2"}),
    ]


def echelon_fp(seed: int) -> list:
    s = scan_seeds(seed, 2)
    return cusp_ladder(FP) + [icl_envelope_job(2, CUSP, FP, s[0], 1, cross_check=True), valcheck_cone(FP, s[1])]


def search_fp(seed: int) -> list:
    # The seed is ignored: neighbouring systems differ 500x in cost, so a
    # seeded draw would make runs incomparable.
    def beta(char, trunc, system, unknowns, i, check):
        return _job(["beta-lb", "--vars", "T1,T2", "--char", str(char), "--trunc", str(trunc),
                     "--system", system, "--unknowns", unknowns, "--i", str(i)], check)

    jobs = [
        beta(2, 6, "T1*X1 + T2*X2", "X1,X2", 3, {"kind": "beta"}),
        beta(3, 5, "T1*X1 + T2*X2", "X1,X2", 2, {"kind": "beta"}),
        beta(2, 5, "X1*X2 - T1*T2", "X1,X2", 2, {"kind": "beta"}),
        beta(2, 5, "X1^2 + T1*X2", "X1,X2", 2, {"kind": "beta"}),
    ]
    jobs += [beta(2, 5, "T1*X1", "X1", i, {"kind": "beta", "value": i + 1}) for i in range(4)]
    jobs += [
        _job(["irr-check", "--i", "3", "--p", "2"], {"kind": "irr", "space": 2**18}),
        _job(["irr-check", "--i", "2", "--p", "3"], {"kind": "irr", "space": 3**6}),
        _job(["witness", "--i-max", "6", "--trunc", "36"], {"kind": "witness", "i_max": 6}),
    ]
    return jobs


def gate_jobs(seed: int) -> list:
    """Small seeded ar-index instances whose answers the dense oracles can afford to recompute."""
    rng = random.Random(seed)
    return [ar_random_job(rng, 2, 5, cross_check=True), ar_random_job(rng, 3, 4, cross_check=True)]


WORKLOADS = {"filtration_q": filtration_q, "scan_q": scan_q, "echelon_fp": echelon_fp, "search_fp": search_fp}
