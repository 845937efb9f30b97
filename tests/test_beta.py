import os
import subprocess
import sys
from collections import Counter
from itertools import islice, zip_longest
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from artinlab.artin import _BetaSearch, beta_lower_bound_bruteforce
from artinlab.errors import BudgetError, PrecondError
from artinlab.series import ExtOrder, RingSpec, TruncatedSeries, fp_vectors, monomials_of_degree, monomials_up_to
from artinlab.subspace import LinearMap, Subspace, distance_order, labeller, series_to_vec
from artinlab.parsing import parse_expr
from artinlab.xpoly import PolyInX

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def system(text, ring, unknowns):
    return [parse_expr(t, ring, unknowns=unknowns) for t in text.split(";")]


def test_smooth_identity_system():
    R = RingSpec(2, 2, 5)
    sys_ = system("X1", R, ["X1"])
    for i in range(4):
        assert beta_lower_bound_bruteforce(sys_, i).value == i


def test_linear_with_coefficient_t1():
    R = RingSpec(2, 2, 5)
    sys_ = system("T1*X1", R, ["X1"])
    for i in range(4):
        assert beta_lower_bound_bruteforce(sys_, i).value == i + 1


def test_quadric_specialization_lower_bound():
    R = RingSpec(3, 2, 2)
    sys_ = system("X1*X2 - (T1*T2 - T3^2)*X3", R, ["X1", "X2", "X3"])
    res = beta_lower_bound_bruteforce(sys_, 1, budget=2_000_000)
    assert res.value >= 1  # the quadratic family forces at least this
    assert res.value == 2  # exact value at this truncation


def test_matches_full_enumeration_oracle():
    # tiny rings only: the oracle walks the whole space literally, for beta and for
    # the number of classes modulo m^(i+1) that hold a solution
    R, R2, R3 = RingSpec(1, 2, 2), RingSpec(2, 2, 2), RingSpec(1, 3, 2)
    for ring, text, unknowns in [
        (R, "T1*X1", ["X1"]),
        (R, "X1*X1 - T1^2*X2", ["X1", "X2"]),
        (R, "T1*X1 + T1^2", ["X1"]),
        (R, "X1*X1 - T1", ["X1"]),
        # at i = 0 the class x = 0 mod m, residual order 1, is left for the
        # solvable class x = 1 mod m in the same last boundary slot: its order
        # still counts, beta = 1
        (R, "X1^3 - X1^2 - T1", ["X1"]),
        (R2, "T1*X1 + T2*X2", ["X1", "X2"]),
        (R2, "T1*X1 + T2", ["X1"]),
        (R2, "X1*X2 - T1*T2", ["X1", "X2"]),
        (R3, "T1*X1 + T1*X2*X2", ["X1", "X2"]),
        (R, "T1*X1; T1^2*X2", ["X1", "X2"]),  # two equations at once
        # the slot of x1's degree-1 layer is frozen to zero, and the two classes
        # x1 = 0 and x1 = T1 mod m^2 both hold a solution
        (RingSpec(1, 2, 3), "T1^3*X1", ["X1"]),
    ]:
        sys_ = system(text, ring, unknowns)
        for i in range(2):
            got = beta_lower_bound_bruteforce(sys_, i)
            want = (oracles.naive_beta(sys_, i), oracles.naive_solvable_classes(sys_, i))
            assert (got.value, got.solvable_classes) == want, (text, i, got, want)


def test_linear_system_bounded_by_intersection_index():
    # for a linear form the brute-force value stays within i + i0
    from artinlab.artin import artin_rees_index
    from artinlab.subspace import IdealSpec
    from artinlab.parsing import parse_poly

    R = RingSpec(2, 2, 5)
    sys_ = system("T1*X1", R, ["X1"])
    i0 = artin_rees_index(IdealSpec.of(R, [parse_poly("T1", R)])).i0
    for i in range(3):
        assert beta_lower_bound_bruteforce(sys_, i).value <= i + i0


def test_requires_finite_field():
    R = RingSpec(2, 0, 4)
    with pytest.raises(PrecondError, match="finite field"):
        beta_lower_bound_bruteforce(system("T1*X1", R, ["X1"]), 1)


def test_budget_exhaustion():
    R = RingSpec(2, 2, 5)
    with pytest.raises(BudgetError, match="state space"):
        beta_lower_bound_bruteforce(system("T1*X1", R, ["X1"]), 3, budget=5)


def test_level_out_of_range():
    R = RingSpec(2, 2, 3)
    with pytest.raises(PrecondError):
        beta_lower_bound_bruteforce(system("T1*X1", R, ["X1"]), 9)


def test_deep_search_runs_under_a_low_recursion_limit():
    # the walk keeps its path on its own undo stack, one frame per slot, never on
    # the interpreter's: with the recursion limit at 100, X1^2 over T1 at D = 4000,
    # i = 0 walks the zero class through every slot to the cut k = 2001 and answers
    # in 2,003 nodes
    code = (
        "import sys\n"
        "from artinlab.artin import beta_lower_bound_bruteforce\n"
        "from artinlab.parsing import parse_expr\n"
        "from artinlab.series import RingSpec\n"
        "system = [parse_expr('X1^2', RingSpec(1, 2, 4000), unknowns=['X1'])]\n"
        "sys.setrecursionlimit(100)\n"
        "res = beta_lower_bound_bruteforce(system, 0)\n"
        "print(res.value, res.explored_nodes, res.reads, res.solvable_classes)\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=20)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "2003", "0", "1"]


def test_layer_streams_follow_fp_vectors():
    # each degree's layers, as (key, c) tuples, come in fp_vectors order on its first
    # read, which streams and keeps nothing, and on its second, which builds the
    # degree's choices, one per monomial (N=2, D=6 over F_3, every degree; N=3,
    # degree 4, 15 monomials: all 2^15 layers over F_2, the first 300,000 over F_3)
    for ring, degrees, count in [(RingSpec(2, 3, 6), range(7), None), (RingSpec(3, 2, 4), [4], None),
                                 (RingSpec(3, 3, 4), [4], 300_000)]:
        search = _BetaSearch(system("T1*X1", ring, ["X1"]), 0, 1)
        label = labeller(ring.num_vars, ring.trunc, 1)
        for d in degrees:
            keys = tuple(map(label, monomials_of_degree(ring.num_vars, d)))
            for read, kept in enumerate([0, len(keys)]):
                n = 0
                for got, want in zip_longest(islice(search._layers(d), count),
                                             islice(fp_vectors(keys, ring.char), count)):
                    assert want is not None and got == tuple(want.items()), (ring, d, read, n)
                    n += 1
                assert n == (count or ring.char ** len(keys))
                assert len(search.choices[d]) == kept, (ring, d, read)


def component_monomial(key, ring, r):
    """(comp, m) of a label of A^r of degree d: key = d*r*B^N + comp*B^N + w with
    B = D + 1, comp < r and w < B^N, and d*B^(N-1) - w holds the exponents of m as
    digits in base B, T1 the highest."""
    B, N = ring.trunc + 1, ring.num_vars
    d, w = divmod(key, r * B**N)
    comp, w = divmod(w, B**N)
    assert comp < r
    digits = d * B ** (N - 1) - w
    exps = []
    for k in range(N - 1, -1, -1):
        e, digits = divmod(digits, B**k)
        exps.append(e)
    assert sum(exps) == d and all(0 <= e < B for e in exps)
    return comp, tuple(exps)


def monomial_of(key, ring, r):
    """The monomial of a component-0 label of A^r (component_monomial)."""
    comp, m = component_monomial(key, ring, r)
    assert comp == 0
    return m


def graded_terms(g, ring, r):
    """The terms of a graded series on the component-0 labels of A^r, checked to be
    one: its nonempty degrees in increasing order, each holding nonzero scalars at
    keys of that degree."""
    assert [e for e, _ in g] == sorted({e for e, _ in g})
    terms = {}
    for e, items in g:
        assert items
        for k, c in items:
            m = monomial_of(k, ring, r)
            assert sum(m) == e and 0 < c < ring.char and m not in terms
            terms[m] = c
    return terms


class CheckedSearch(_BetaSearch):
    """The search with its incremental state checked against the definitions at every node."""

    checked = 0

    def __init__(self, *args):
        super().__init__(*args)
        self.r = len(self.system)  # keys are the labels of A^r
        # per unknown x_j, one term per system term that contains it, in the system's
        # order: its equation's component, the label of 1 there, its coefficient
        # graded, or None for the coefficient 1, and its order
        for j, terms in enumerate(self.terms):
            want = [(pidx, alpha, c) for pidx, poly in enumerate(self.system)
                    for alpha, c in poly.terms.items() if alpha[j] and not c.is_zero]
            assert len(terms) == len(want)
            for (comp, coeff, cord, aj, others), (pidx, alpha, c) in zip(terms, want):
                assert component_monomial(comp, self.ring, self.r) == (pidx, (0,) * self.ring.num_vars)
                assert alpha == tuple(aj if u == j else dict(others).get(u, 0) for u in range(self.n))
                got = {(0,) * self.ring.num_vars: 1} if coeff is None else graded_terms(coeff, self.ring, self.r)
                assert got == c.terms and cord == c.order().value
        self.path = []  # (unknown, layer) per frame
        # the class the walk is in (its layers of degree <= i), every class it
        # entered and, for every class in which it met an exact solution, its weight
        self.current, self.entered, self.solved = None, set(), {}
        self.verdicts = Counter()  # reads that solve (True) and reads of an order (False)
        self.frozen = {}  # per slot, whether the walk's path froze it to zero

    def _advance_auto(self, start):
        slot_idx, floor = super()._advance_auto(start)
        # the slots it froze, and the one it stops at, which the walk branches on or ends at
        self.frozen.update(dict.fromkeys(range(start, slot_idx), True))
        self.frozen[slot_idx] = False
        # each x_u is the sum of its layers on the path
        xs = [TruncatedSeries(self.ring, {monomial_of(k, self.ring, self.r): c for u_, layer in self.path
                                          if u_ == u for k, c in layer}) for u in range(self.n)]
        # the residual by degree: flattened it is the system evaluated at x, one vector
        # of A^r; each degree's dict holds the nonzero entries of labels of that
        # degree, and the order is the first nonempty degree
        res = self.res
        assert len(res) == self.D + 1
        vec = {k: c for part in res for k, c in part.items()}
        assert vec == series_to_vec([oracles.evaluate(poly, xs) for poly in self.system], self.ring)
        assert len(vec) == sum(map(len, res))
        step = self.r * (self.D + 1) ** self.ring.num_vars
        assert all(k // step == e and c for e, part in enumerate(res) for k, c in part.items())
        assert self.ord == next((e for e, part in enumerate(res) if part), self.D + 1)
        for j, (x, pows) in enumerate(zip(xs, self.pows)):
            # powers only for an unknown a product reads, one raised to a >= 2 or met in a
            # term with another unknown: x_j itself and its exponents
            alphas = [alpha for poly in self.system for alpha in poly.terms if alpha[j]]
            read = any(alpha[j] >= 2 or sum(map(bool, alpha)) >= 2 for alpha in alphas)
            assert set(pows) == ({1} | {alpha[j] for alpha in alphas} if read else set())
            assert all(graded_terms(v, self.ring, self.r) == (x**k).terms for k, v in pows.items())
        for u, x in enumerate(xs):
            assert self.lb[u] == (x.order().value if x.terms else sum(u_ == u for u_, _ in self.path))
        if slot_idx < len(self.slots):
            d, j = self.slots[slot_idx]
            assert floor == self._slot_min_degree(j, d) <= self.D
        else:
            assert floor == self.D + 1
        assert self._finality(slot_idx, floor) == self.full_scan_finality(slot_idx)
        if slot_idx >= self.boundary:
            # the walk enters each class once and stays in it until an undo leaves it
            layers = tuple(tuple(sorted((m, c) for m, c in x.terms.items() if sum(m) <= self.i))
                           for x in xs)
            if self.current is None:
                assert layers not in self.entered
                self.entered.add(layers)
                self.current = layers
            assert self.current == layers
            if slot_idx >= self.cut and self.ord > self.D:  # a read of F(x0) = 0
                self.solved[layers] = self.weight()
        else:
            assert self.current is None and self.held == -1
        self.checked += 1
        self.x0 = xs
        return slot_idx, floor

    def _read(self):
        # each Taylor difference F(x0 + T^m e_j) - F(x0), for every unknown j and monomial m
        # of degree k..D, evaluated on the system, and the full image they span
        ring, r = self.ring, len(self.system)
        f0 = [oracles.evaluate(poly, self.x0) for poly in self.system]
        taylor = []  # (j, m, column)
        for j in range(self.n):
            for t in range(self.k, self.D + 1):
                for m in monomials_of_degree(ring.num_vars, t):
                    xs = list(self.x0)
                    xs[j] = xs[j] + TruncatedSeries.monomial(ring, m, 1)
                    col = series_to_vec([oracles.evaluate(poly, xs) - f for poly, f in zip(self.system, f0)], ring)
                    taylor.append((j, m, col))
        self.full = Subspace(ring, r)
        for _, _, col in taylor:
            self.full.insert(col)
        reads, self.images = self.reads, 0
        got = super()._read()
        # a zero F(x0) reads nothing; every other read reads one image, the order of
        # F(x0)'s remainder modulo the full image
        assert (self.reads - reads, self.images) == ((0, 0) if all(f.is_zero for f in f0) else (1, 1))
        assert distance_order(tuple(f0), self.full) == (ExtOrder.at_least(self.D + 1) if got is None
                                                        else ExtOrder.of(got))
        if self.reads > reads:
            self.verdicts[got is None] += 1
        if got is None:  # a solvable read: some completion x0 + h solves the system
            h = LinearMap([col for _, _, col in taylor], ring).solve(series_to_vec([-f for f in f0], ring))
            xs = list(self.x0)
            for (j, m, _), c in zip(taylor, h):
                if c:
                    xs[j] = xs[j] + TruncatedSeries.monomial(ring, m, c)
            assert all(oracles.evaluate(poly, xs).is_zero for poly in self.system)
            self.solved[self.current] = self.weight()
        return got

    def _image(self, jac):
        # the image of J(x0) has the echelon rows of the span of the Taylor differences
        image = super()._image(jac)
        assert oracles.same_subspace(image, self.full)
        self.images += 1
        return image

    def _undo(self):
        self.path.pop()
        super()._undo()
        if len(self._frames) < self.boundary:
            self.current = None
            assert self.held == -1

    def weight(self):
        # the classes the one walked stands for: p^(its class coordinates not walked),
        # those of the slots frozen to zero and the bound ones of an affine system
        walked = sum(len(self.walked[s]) for s in range(self.boundary) if not self.frozen[s])
        return self.ring.char ** (self.n * comb(self.ring.num_vars + self.i, self.i) - walked)

    def run(self):
        got = super().run()
        # each class that holds a solution counted once, with its weight, and on a
        # ring the oracle can enumerate, the count of the literal definition
        assert got.solvable_classes == sum(self.solved.values())
        if self.space[0] ** self.space[1] <= 4096:
            assert got.solvable_classes == oracles.naive_solvable_classes(self.system, self.i)
        return got

    def _assign(self, slot_idx, layer, skipped):
        # a layer is a tuple of (key, c) pairs: distinct monomials of the slot's
        # degree with nonzero scalars
        d, j = self.slots[slot_idx]
        assert type(layer) is tuple and len({k for k, _ in layer}) == len(layer)
        assert all(sum(monomial_of(k, self.ring, self.r)) == d and 0 < c < self.ring.char for k, c in layer)
        self.path.append((j, layer))
        super()._assign(slot_idx, layer, skipped)

    def full_scan_finality(self, slot_idx):
        # least degree of a residual term that an assignment to any remaining slot
        # can still reach: every remaining slot, every system term with its unknown
        best = self.D + 1
        for d, j in self.slots[slot_idx:]:
            for poly in self.system:
                for alpha, coeff in poly.terms.items():
                    if alpha[j]:
                        lbs = sum((a - (u == j)) * self.lb[u] for u, a in enumerate(alpha))
                        best = min(best, coeff.order().value + d + lbs)
        return best


def test_incremental_state_matches_definitions():
    R, R2, R3 = RingSpec(1, 2, 2), RingSpec(2, 2, 2), RingSpec(1, 3, 2)
    # (value, explored_nodes, reads, solvable_classes) at i = 0 and i = 1: every node
    # and read of the one walk, so their count and with it every budget error, is pinned
    cases = [
        # the systems of test_matches_full_enumeration_oracle
        (R, "T1*X1", ["X1"], [(1, 3, 0, 1), (2, 5, 0, 1)]),
        (R, "X1*X1 - T1^2*X2", ["X1", "X2"], [(0, 8, 0, 2), (2, 9, 0, 4)]),
        (R, "T1*X1 + T1^2", ["X1"], [(1, 3, 1, 1), (2, 5, 0, 1)]),
        (R, "X1*X1 - T1", ["X1"], [(1, 3, 0, 0), (1, 3, 0, 0)]),
        (R2, "T1*X1 + T2*X2", ["X1", "X2"], [(1, 7, 0, 1), (2, 19, 0, 2)]),
        (R2, "T1*X1 + T2", ["X1"], [(1, 3, 0, 0), (1, 3, 0, 0)]),
        (R2, "X1*X2 - T1*T2", ["X1", "X2"], [(0, 15, 2, 3), (2, 47, 5, 10)]),
        (R3, "T1*X1 + T1*X2*X2", ["X1", "X2"], [(1, 13, 0, 3), (2, 40, 0, 9)]),
        (R, "T1*X1; T1^2*X2", ["X1", "X2"], [(2, 5, 1, 1), (2, 9, 0, 2)]),
        # the beta-lb systems of the search benchmark, at D = 3
        (RingSpec(2, 2, 3), "T1*X1 + T2*X2", ["X1", "X2"], [(1, 7, 0, 1), (2, 19, 0, 2)]),
        (RingSpec(2, 3, 3), "T1*X1 + T2*X2", ["X1", "X2"], [(1, 13, 0, 1), (2, 49, 0, 3)]),
        (RingSpec(2, 2, 3), "X1*X2 - T1*T2", ["X1", "X2"], [(0, 16, 2, 3), (2, 51, 8, 10)]),
        (RingSpec(2, 2, 3), "X1^2 + T1*X2", ["X1", "X2"], [(1, 7, 0, 1), (2, 25, 0, 2)]),
        (RingSpec(2, 2, 3), "T1*X1", ["X1"], [(1, 3, 0, 1), (2, 7, 0, 1)]),
        # T2^D holds the largest key, in the constant, a coefficient and the degree-D layers
        (RingSpec(2, 2, 3), "T2^3*X1 + T2*X1*X2 - T2^3", ["X1", "X2"], [(1, 14, 1, 3), (3, 47, 1, 9)]),
        # over F_3 a power's difference x_j'^a - x_j^a keeps its sign
        (RingSpec(1, 3, 3), "(1 + 2*T1)*X1^3 + T1*X1 - T1^2", ["X1"], [(0, 6, 1, 1), (2, 7, 1, 1)]),
        # three unknowns in one term, checked node by node
        (RingSpec(1, 2, 3), "X1*X2*X3 + T1*X1 - T1^2", ["X1", "X2", "X3"], [(1, 36, 3, 6), (2, 65, 11, 20)]),
        # two equations: a read that solves, reads that do not; and k = 3 above i + 1
        (RingSpec(2, 2, 3), "X1 + X2^2 - T1*T2; X2 - T1*X1", ["X1", "X2"], [(0, 9, 1, 1), (1, 27, 1, 1)]),
        (RingSpec(2, 2, 3), "X1*X2 - T1*T2; X1 + X2 + T1", ["X1", "X2"], [(2, 27, 4, 0), (2, 27, 4, 0)]),
        (RingSpec(1, 3, 4), "X1^2 - T1^2*X2; T1*X2 - X1", ["X1", "X2"], [(2, 31, 0, 2), (3, 62, 12, 2)]),
        # classes walked past the cut and left at their first solution, met after a
        # slot's layers come from its choices: the node count follows their order
        (RingSpec(2, 2, 3), "X1^2 - T2^2*X2", ["X1", "X2"], [(0, 10, 0, 2), (3, 21, 3, 2)]),
    ]
    verdicts = Counter()
    for ring, text, unknowns, pinned in cases:
        sys_ = system(text, ring, unknowns)
        for i in range(2):
            search = CheckedSearch(sys_, i, 2_000_000)
            got = search.run()
            verdicts += search.verdicts
            assert search.checked == search.nodes > 0, (text, i)
            assert got == beta_lower_bound_bruteforce(sys_, i), (text, i)
            assert (got.value, got.explored_nodes, got.reads, got.solvable_classes) == pinned[i], (text, i)
    assert verdicts[True] > 0 and verdicts[False] > 0, verdicts


def test_search_benchmark_systems_pinned():
    # (value, explored_nodes, reads, solvable_classes) of the beta-lb systems of the
    # search benchmark at its sizes, and of a two-equation search that reads often:
    # every node and read of the one walk, so a cheaper node cannot come from
    # visiting fewer
    for char, trunc, text, i, pinned in [
        (2, 6, "T1*X1 + T2*X2", 3, (4, 91, 0, 64)),
        (3, 5, "T1*X1 + T2*X2", 2, (3, 157, 0, 27)),
        (2, 5, "X1*X2 - T1*T2", 2, (3, 547, 68, 72)),
        (2, 5, "X1^2 + T1*X2", 2, (4, 169, 14, 8)),
        (3, 5, "X1^2 - T1^3; X1*X2 - T2^2", 1, (3, 1102, 486, 0)),
    ]:
        got = beta_lower_bound_bruteforce(system(text, RingSpec(2, char, trunc), ["X1", "X2"]), i)
        assert (got.value, got.explored_nodes, got.reads, got.solvable_classes) == pinned, (char, trunc, text)


def test_search_at_d6_pinned():
    # (value, solvable_classes) of searches at D = 6: up to thousands of nodes,
    # past the oracle's reach.  At i = 3 the cut is k = i + 1 = 4; at i = 1 and 2,
    # k = 4 lies above the class boundary, so each class holds nodes past it, as
    # a walk with no cut found too.  The last took 4,374,977 nodes of a walk with
    # no cut, past the default budget; it now answers within it.  The first walks
    # one class per coset of its class map's kernel
    for char, text, i, pinned, work in [
        (3, "T1*X1 + T2*X2", 3, (4, 729), (481, 0)),  # one class per coset of the class map's kernel
        (2, "X1*X2 - T1*T2", 3, (4, 1088), None),
        (2, "X1*X2 - T1*T2", 1, (2, 10), None),
        (2, "X1*X2 - T1*T2", 2, (3, 72), None),
        (2, "X1^2 + T1*X2", 3, (6, 64), (4521, 120)),
    ]:
        got = beta_lower_bound_bruteforce(system(text, RingSpec(2, char, 6), ["X1", "X2"]), i)
        assert (got.value, got.solvable_classes) == pinned, (char, text, i)
        assert work in (None, (got.explored_nodes, got.reads)), (char, text, i)


class ImageLog(_BetaSearch):
    """The search with each read's J(x0) and the image it read logged."""

    def __init__(self, *args):
        super().__init__(*args)
        self.log = []

    def _image(self, jac):
        image = super()._image(jac)
        self.log.append((jac, image))
        return image


def test_read_builds_an_image_only_when_jacobian_changes():
    # the affine T1^2*X1 + T2^3*X2 has one J(x0), and one image for its 728 reads;
    # on X1*X2 - T1*T2 the image is built anew exactly when J(x0) changes
    for char, trunc, text, i, reads, builds in [(3, 10, "T1^2*X1 + T2^3*X2", 5, 728, 1),
                                                (2, 5, "X1*X2 - T1*T2", 2, 68, 68)]:
        search = ImageLog(system(text, RingSpec(2, char, trunc), ["X1", "X2"]), i, 2_000_000)
        assert search.run().reads == len(search.log) == reads
        assert len({id(image) for _, image in search.log}) == builds  # the log keeps each image alive
        for (jac0, image0), (jac1, image1) in zip(search.log, search.log[1:]):
            assert (image1 is not image0) == (jac1 != jac0)


@st.composite
def small_systems(draw):
    """A system over F_2 or F_3 with N = 1-2, D = 2 (or 3 when N = 1) and 1-2 unknowns,
    mixing the terms the search steps through a slot's shift map and those it forms
    as series."""
    p, N, D, n = draw(st.sampled_from([(p, N, D, n) for p in (2, 3) for N in (1, 2) for D in (2, 3)
                                       for n in (1, 2)
                                       if p ** (n * comb(N + D, D)) <= 4096]))  # naive_beta's space
    T = ["T1", "T2"][:N]
    X = ["X1", "X2"][:n]
    mono = st.lists(st.sampled_from(T), max_size=2).map(lambda f: "*".join(f) or "1")
    x = st.sampled_from(X)
    pieces = [
        st.tuples(st.integers(1, p - 1), mono, x).map(lambda t: "%d*%s*%s" % t),  # c*T^u*X
        x.map(lambda v: "(%s)*%s" % ("T1 + T2" if N == 2 else "1 + T1", v)),  # several monomials
        x.map(lambda v: "X1*X2" if n == 2 else v + "^2"),
        x.map(lambda v: v + "^2"),
        st.tuples(st.integers(1, p - 1), mono).map(lambda t: "%d*%s" % t),  # a constant
        x.map(lambda v: "T1^%d*%s" % (D, v)),  # a shift past D from degree 1 on
    ]
    eqs = draw(st.lists(st.lists(st.one_of(pieces), min_size=1, max_size=3), min_size=1, max_size=2))
    ring = RingSpec(N, p, D)
    return [parse_expr(" + ".join(eq), ring, unknowns=X) for eq in eqs], draw(st.integers(0, D))


@settings(max_examples=50, deadline=None)
@given(small_systems())
@example((system("X1; T1*X1", RingSpec(1, 2, 2), ["X1"]), 2))  # live at degree D, shifted past it
@example((system("T1 + T1^2*X1", RingSpec(1, 2, 3), ["X1"]), 1))  # order 1 fixed at the root
@example((system("T1*X1 + X1^2", RingSpec(1, 3, 3), ["X1"]), 3))  # i = D: each class one point
# two equations; the cut k = 2 above i + 1 (a read that solves, reads of an order)
@example((system("X1 + X2^2 - T1; X2 - T1*X1", RingSpec(1, 2, 3), ["X1", "X2"]), 0))
@example((system("X1*X2 - T1*T2; T1*X1 + X2", RingSpec(2, 2, 2), ["X1", "X2"]), 0))
# the cut at the boundary, k = i + 1 = 2, with a quadratic term
@example((system("X1*X2 - T1; T1*X1 + X2", RingSpec(1, 2, 3), ["X1", "X2"]), 1))
def test_random_small_systems_agree(case):
    sys_, i = case
    search = CheckedSearch(sys_, i, 2_000_000)
    got = search.run()
    assert search.checked == search.nodes > 0
    assert got == beta_lower_bound_bruteforce(sys_, i)
    assert got.value == oracles.naive_beta(sys_, i)
    assert got.solvable_classes == oracles.naive_solvable_classes(sys_, i)


class FullWalk(_BetaSearch):
    """The search with the coset rule off: every class coordinate is walked."""

    def __init__(self, *args):
        super().__init__(*args)
        self.image = None


def test_affine_search_walks_one_class_per_coset():
    # T1*X1 + T2*X2 over F_3 at D = 6, i = 3: the class map's kernel holds
    # (T2*g, -T1*g) for g of degree <= 2, 6 of the 20 class coordinates, and
    # the walk takes one class per coset in 481 nodes, where walking every class
    # takes 181,705.  With three unknowns over F_2 at D = 5, i = 2 the walk of
    # every class runs past the default budget
    ring = RingSpec(2, 3, 6)
    sys_ = system("T1*X1 + T2*X2", ring, ["X1", "X2"])
    got, full = _BetaSearch(sys_, 3, 2_000_000).run(), FullWalk(sys_, 3, 2_000_000).run()
    assert (got.value, got.explored_nodes, got.solvable_classes) == (4, 481, 729)
    assert (full.value, full.explored_nodes, full.solvable_classes) == (4, 181705, 729)
    sys3 = system("T1*X1 + T2*X2 + T3*X3", RingSpec(3, 2, 5), ["X1", "X2", "X3"])
    got = beta_lower_bound_bruteforce(sys3, 2)
    assert (got.value, got.explored_nodes, got.reads, got.solvable_classes) == (3, 1719, 0, 2048)
    with pytest.raises(BudgetError):
        FullWalk(sys3, 2, 20_000).run()


@st.composite
def affine_systems(draw):
    """An affine system over F_2 or F_3 in T1, T2 at D <= 5: one or two equations in
    one or two unknowns, each a series coefficient per unknown (none, one term or
    two, of degree <= 3) and an X-free series.  The level runs up to D with one
    unknown and up to 2 with two, where a walk of every class stays short."""
    p, D, n = draw(st.sampled_from([2, 3])), draw(st.integers(1, 5)), draw(st.integers(1, 2))
    ring = RingSpec(2, p, D)
    series = st.dictionaries(st.sampled_from(monomials_up_to(2, min(D, 3))), st.integers(1, p - 1),
                             max_size=2).map(lambda terms: TruncatedSeries(ring, terms))
    alphas = [tuple(int(u == j) for u in range(n)) for j in range(n)] + [(0,) * n]
    eqs = [PolyInX(ring, n, dict(zip(alphas, draw(st.lists(series, min_size=n + 1, max_size=n + 1)))))
           for _ in range(draw(st.integers(1, 2)))]
    return eqs, draw(st.integers(0, D if n == 1 else min(D, 2)))


@settings(max_examples=60, deadline=None)
@given(affine_systems())
def test_affine_cosets_match_the_full_walk(case):
    # one class per coset of the class map's kernel, weighted, against every class
    sys_, i = case
    got, full = _BetaSearch(sys_, i, 2_000_000).run(), FullWalk(sys_, i, 2_000_000).run()
    assert (got.value, got.solvable_classes, got.state_space_size) == (full.value, full.solvable_classes,
                                                                       full.state_space_size)
    assert got.explored_nodes <= full.explored_nodes and got.reads <= full.reads
