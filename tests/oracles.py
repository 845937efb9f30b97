"""Independent naive oracles used to cross-check the production code paths.

The oracles are deliberately dense and recomputed from scratch: plain
Gaussian elimination over lists, rank-based membership, full enumeration.
No sparse echelon forms, no code shared with the package internals beyond
the series type itself, and no caching but one memo: naive_beta and
naive_solvable_classes read one enumeration of a system.

The last section is different: set operations on the package's sparse
echelon form (copies, sums, intersections, m^i, the graded spans m^j * M,
inclusion and equality of subspaces).  The program reads U cap m^i off the
pivots and never needs the others, so they live here, as the long-way
references its tests compare against.  So do the per-coordinate linear solve that
solve_linear replaced by a reduction on the graph of the map, and the greedy
pruning of generators that ar-index replaced by Nakayama's lemma.
"""

from fractions import Fraction
from functools import lru_cache
from operator import add

from artinlab.errors import PrecondError
from artinlab.series import TruncatedSeries, fp_vectors, monomials_of_degree, monomials_up_to
from artinlab.subspace import Subspace, as_module, labeller, multiples, series_to_vec
from artinlab.xpoly import PolyInX


def dense_coords(xs, ring):
    monos = monomials_up_to(ring.num_vars, ring.trunc)
    rank = {m: i for i, m in enumerate(monos)}
    width = len(monos)
    vec = [Fraction(0) if ring.char == 0 else 0] * (width * len(xs))
    for comp, s in enumerate(xs):
        for mono, c in s.terms.items():
            vec[comp * width + rank[mono]] = c
    return vec


def dense_rref(rows, ring):
    """The nonzero rows of the reduced row echelon form of rows, by Gauss-Jordan:
    pivots left to right, each scaled to 1 and cleared from every other row."""
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    col = 0
    r = 0
    while r < len(rows) and col < ncols:
        piv = None
        for k in range(r, len(rows)):
            if rows[k][col] != 0:
                piv = k
                break
        if piv is None:
            col += 1
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = ring.s_inv(rows[r][col])
        rows[r] = [ring.s_mul(v, inv) for v in rows[r]]
        for k in range(len(rows)):
            if k != r and rows[k][col] != 0:
                c = rows[k][col]
                rows[k] = [ring.s_from(a - ring.s_mul(c, b)) for a, b in zip(rows[k], rows[r])]
        r += 1
        col += 1
    return rows[:r]


def dense_rank(rows, ring):
    return len(dense_rref(rows, ring))


def module_vectors(M, min_mult=0):
    """Dense coefficient vectors of all monomial multiples of the generators."""
    ring = M.ring
    out = []
    for gen in M.generators:
        if all(g.is_zero for g in gen):
            continue
        for u in monomials_up_to(ring.num_vars, ring.trunc):
            if sum(u) < min_mult:
                continue
            mono = TruncatedSeries.monomial(ring, u)
            prod = [mono * g for g in gen]
            if all(s.is_zero for s in prod):
                continue
            out.append(dense_coords(prod, ring))
    return out


def m_power_vectors(ring, i, arity=1):
    monos = monomials_up_to(ring.num_vars, ring.trunc)
    width = len(monos)
    out = []
    one = ring.s_from(1)
    zero = ring.s_from(0)
    for comp in range(arity):
        for idx, m in enumerate(monos):
            if sum(m) >= i:
                vec = [zero] * (width * arity)
                vec[comp * width + idx] = one
                out.append(vec)
    return out


def naive_member(x_vec, basis_rows, ring):
    """Rank-based membership: x in span(rows) iff adding x keeps the rank."""
    if not basis_rows:
        return all(v == 0 for v in x_vec)
    return dense_rank(basis_rows, ring) == dense_rank(basis_rows + [x_vec], ring)


def naive_nu(I, x, sweep_from=0):
    """Membership sweep: largest n with x in span(I) + m^n, scanned upward.
    I may also be a module, and x then a tuple of series, one per component."""
    M = as_module(I)
    ring = M.ring
    base = module_vectors(M)
    xv = dense_coords(x if isinstance(x, tuple) else [x], ring)
    D = ring.trunc
    if naive_member(xv, base + m_power_vectors(ring, D + 1, M.arity), ring):
        return D + 1  # member of the module itself
    best = 0
    for n in range(sweep_from, D + 1):
        if naive_member(xv, base + m_power_vectors(ring, n, M.arity), ring):
            best = n
        else:
            break
    return best


def naive_intersection_basis(rows_a, rows_b, ring):
    """Basis of span(rows_a) cap span(rows_b) via a dense kernel computation."""
    if not rows_a or not rows_b:
        return []
    na, nb = len(rows_a), len(rows_b)
    width = len(rows_a[0])
    # columns: coefficients u (on rows_a) then w (on rows_b); rows: coordinates
    aug = []
    for coord in range(width):
        row = [rows_a[k][coord] for k in range(na)] + [ring.s_neg(rows_b[k][coord]) for k in range(nb)]
        aug.append(row)
    # kernel of aug by elimination
    rows = [list(r) for r in aug]
    ncols = na + nb
    pivots = {}
    r = 0
    for col in range(ncols):
        piv = None
        for k in range(r, len(rows)):
            if rows[k][col] != 0:
                piv = k
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = ring.s_inv(rows[r][col])
        rows[r] = [ring.s_mul(v, inv) for v in rows[r]]
        for k in range(len(rows)):
            if k != r and rows[k][col] != 0:
                c = rows[k][col]
                rows[k] = [ring.s_from(a - ring.s_mul(c, b)) for a, b in zip(rows[k], rows[r])]
        pivots[col] = r
        r += 1
    basis = []
    zero = ring.s_from(0)
    one = ring.s_from(1)
    for free in range(ncols):
        if free in pivots:
            continue
        sol = [zero] * ncols
        sol[free] = one
        for col, prow in pivots.items():
            sol[col] = ring.s_neg(rows[prow][free])
        vec = [zero] * width
        for k in range(na):
            if sol[k] != 0:
                vec = [ring.s_from(v + ring.s_mul(sol[k], rows_a[k][j])) for j, v in enumerate(vec)]
        if any(v != 0 for v in vec):
            basis.append(vec)
    return basis


def naive_ar_index(M, certified_up_to):
    """Sweep definition of the intersection index, all dense."""
    M = as_module(M)
    ring = M.ring
    base = module_vectors(M)
    scaled = {j: module_vectors(M, min_mult=j) for j in range(certified_up_to + 2)}
    worst = 0
    for i in range(certified_up_to + 1):
        inter = naive_intersection_basis(base, m_power_vectors(ring, i, M.arity), ring)
        for j in range(i, -1, -1):
            if all(naive_member(v, scaled[j], ring) for v in inter):
                worst = max(worst, i - j)
                break
        else:
            worst = max(worst, i)
    return worst


def evaluate(poly, xs):
    """The series poly(x_1, ..., x_n) of a PolyInX, one series per unknown."""
    if len(xs) != poly.n_unknowns:
        raise PrecondError("wrong number of unknowns in evaluation")
    total = TruncatedSeries.zero(poly.ring)
    for exps, coeff in poly.terms.items():
        term = coeff
        for x, e in zip(xs, exps):
            if e:
                term = term * x**e  # square-and-multiply: a huge e costs log2(e) products
        total = total + term
    return total


def naive_beta(system, i):
    """Literal enumeration of the whole truncated space; tiny rings only."""
    return _naive_classes(*_system_key(system), i)[1]


def naive_solvable_classes(system, i):
    """The number of classes modulo m^(i+1) that hold an exact solution, counted by
    naive_beta's enumeration."""
    return _naive_classes(*_system_key(system), i)[0]


def _system_key(system):
    """(ring, unknowns, terms): a system as a hashable value, so that the two
    oracles above enumerate a system once."""
    return system[0].ring, system[0].n_unknowns, tuple(
        tuple(sorted((alpha, tuple(sorted(c.terms.items()))) for alpha, c in poly.terms.items()))
        for poly in system)


@lru_cache(maxsize=64)
def _naive_classes(ring, n, terms, i):
    """(the number of classes modulo m^(i+1) that hold an exact solution, beta), by
    literal enumeration of the whole truncated space."""
    import itertools

    system = [PolyInX(ring, n, {alpha: TruncatedSeries(ring, dict(c)) for alpha, c in poly})
              for poly in terms]
    p = ring.char
    monos = monomials_up_to(ring.num_vars, ring.trunc)
    space = []
    for coeffs in itertools.product(range(p), repeat=len(monos)):
        space.append(TruncatedSeries(ring, dict(zip(monos, coeffs))))

    def res_order(xs):
        worst = None
        for poly in system:
            o = evaluate(poly, xs).order()
            if worst is None or o < worst:
                worst = o
        return worst

    def trunc_key(xs):
        return tuple(
            tuple(sorted((m, c) for m, c in x.terms.items() if sum(m) <= i)) for x in xs
        )

    solutions = set()
    all_xs = list(itertools.product(space, repeat=n))
    for xs in all_xs:
        if not res_order(xs).exact:
            solutions.add(trunc_key(xs))
    best = 0
    for xs in all_xs:
        o = res_order(xs)
        if o.exact and trunc_key(xs) not in solutions:
            best = max(best, o.value)
    return len(solutions), best


def naive_factorization_scan(target, i, p):
    """_factorization_scan the long way, with no size gate: at each depth every y
    layer is multiplied by x_1 and compared with what the product still needs.
    Returns (size of the space, count, first pair found)."""
    layer_monos = {d: monomials_of_degree(3, d) for d in range(1, i + 1)}
    target = {m: c % p for m, c in target.items() if c % p}

    def add_product(out, xu, yv, sign=1):
        for m1, c1 in xu.items():
            for m2, c2 in yv.items():
                m = tuple(map(add, m1, m2))
                s = (out.get(m, 0) + sign * c1 * c2) % p
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)

    found = 0
    first = None

    def dfs(depth, xl, yl):
        nonlocal found, first
        if depth == i:
            found += 1
            if first is None:
                first = (dict(xl), dict(yl))
            return
        want = {m: c for m, c in target.items() if sum(m) == depth + 1}
        for xlayer in fp_vectors(layer_monos[depth], p):
            xl[depth] = xlayer
            need = dict(want)
            for u in range(2, depth + 1):
                add_product(need, xl[u], yl[depth + 1 - u], -1)
            for ylayer in fp_vectors(layer_monos[depth], p):
                yl[depth] = ylayer
                got = {}
                add_product(got, xl[1], ylayer)
                if got == need:
                    dfs(depth + 1, xl, yl)
            yl.pop(depth, None)
        xl.pop(depth, None)

    dfs(1, {}, {})
    return p ** (2 * sum(len(layer_monos[d]) for d in range(1, i))), found, first


# ---------------------------------------------------------------------------
# Sparse set operations on the package's echelon form
# ---------------------------------------------------------------------------

def _check(U: Subspace, V: Subspace):
    if U.ring != V.ring or U.arity != V.arity:
        raise PrecondError("incompatible rings")


def span_m_power(ring, i, arity=1) -> Subspace:
    """Direct sum of m^i over all components; i = D+1 gives the zero subspace."""
    if not 0 <= i <= ring.trunc + 1:
        raise PrecondError(f"m-power exponent {i} out of range 0..{ring.trunc + 1}")
    label = labeller(ring.num_vars, ring.trunc, arity)
    return from_rows(ring, arity, [{label(m, comp): 1} for m in monomials_up_to(ring.num_vars, ring.trunc)
                                   if sum(m) >= i for comp in range(arity)])


def from_rows(ring, arity, rows) -> Subspace:
    """The subspace whose reduced echelon basis is rows, built by inserting them:
    each reduces to a copy of itself and back-eliminates nothing, as a reduced
    row is zero at every other row's pivot."""
    U = Subspace(ring, arity)
    for row in rows:
        U.insert(row)
    return U


def graded_span(M, j) -> Subspace:
    """m^j * M: the span of u * g over the generators g and the monomials u of degree >= j."""
    M = as_module(M)
    ring = M.ring
    U = Subspace(ring, M.arity)
    for gen in M.generators:
        for d in range(j, ring.trunc + 1):
            for vec in multiples(gen, d, ring):
                U.insert(vec)
    return U


def greedy_generators(M) -> tuple:
    """A generating subset of M, chosen greedily: the nonzero generators lowest
    degree first (the given order within one degree), each kept iff the
    multiples of those kept before it do not span it.  ar-index once pruned
    this way; the set need not be minimal, but its largest degree is that of
    every minimal one, the least d whose generators of degree <= d generate M."""
    M = as_module(M)
    ring = M.ring
    order = sorted((vec for vec in M.generators if not all(g.is_zero for g in vec)),
                   key=lambda vec: max(g.max_degree() for g in vec if not g.is_zero))
    kept, span = [], Subspace(ring, M.arity)
    for vec in order:
        if span.contains_vec(series_to_vec(vec, ring)):
            continue
        kept.append(vec)
        for d in range(ring.trunc + 1):
            for u in multiples(vec, d, ring):
                span.insert(u)
    return tuple(kept)


def cap_m_power(U: Subspace, i) -> Subspace:
    """U cap m^i, as a new Subspace: the rows from U.cap_start(i) on."""
    return from_rows(U.ring, U.arity, U.rows[U.cap_start(i):])


def copy(U: Subspace) -> Subspace:
    """A copy of U that shares no row with it."""
    return from_rows(U.ring, U.arity, U.rows)


def same_subspace(U: Subspace, V: Subspace) -> bool:
    """U = V: a reduced echelon form is canonical, so equal subspaces of one
    ring and arity have the same pivots and the same rows."""
    _check(U, V)
    return U.pivots == V.pivots and U.rows == V.rows


def contains(U: Subspace, V: Subspace) -> bool:
    """V inside U."""
    _check(U, V)
    return all(U.contains_vec(row) for row in V.rows)


def subspace_sum(U: Subspace, V: Subspace) -> Subspace:
    _check(U, V)
    out = copy(U)
    for row in V.rows:
        out.insert(row)
    return out


def subspace_intersect(U: Subspace, V: Subspace) -> Subspace:
    """Exact intersection via echelon on doubled coordinates."""
    _check(U, V)
    n = (U.ring.trunc + 1) * U.step  # past every label
    work = Subspace(U.ring, U.arity)  # columns below 2n, arity only nominal
    for row in U.rows:
        double = dict(row)
        for col, c in row.items():
            double[col + n] = c
        work.insert(double)
    inter = Subspace(U.ring, U.arity)
    for row in V.rows:
        rem = work.reduce(dict(row))
        if not rem:
            continue
        if all(col >= n for col in rem):
            inter.insert({col - n: c for col, c in rem.items()})
        work.insert(rem)
    return inter


def transposed_solve(columns, target: dict, ring):
    """The per-coordinate construction of solve_linear, kept as its reference.

    Each coordinate's equation is inserted as an augmented row with the target
    in column len(columns), so the system is inconsistent exactly when that
    column becomes a pivot.  Free unknowns are set to zero.
    """
    n = len(columns)
    equations = {}
    for k, col in enumerate([*columns, target]):
        for r, c in col.items():
            equations.setdefault(r, {})[k] = ring.s_from(c)
    S = Subspace(ring)
    for row in equations.values():
        S.insert({k: c for k, c in row.items() if c != 0})
        if S.pivots and S.pivots[-1] == n:
            return None
    solution = [ring.s_from(0)] * n
    for p, row in zip(S.pivots, S.rows):
        solution[p] = row.get(n, solution[p])
    return solution
