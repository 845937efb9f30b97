"""Registered mutants: small breaking edits of src/artinlab that the tests must kill.

Each mutant names a file (relative to the repository root), the exact text it
replaces, the replacement and the pytest node ids of the tests that must kill
it.  The old text occurs exactly once in its file; tests/test_source.py checks
that in tier-1, so a refactor that moves guarded code has to re-anchor its
mutants.  scripts/mutants.py applies each mutant to a temporary copy of the
repository, runs its tests and lists any survivor.  Retire a mutant only when
the code it breaks is gone.
"""

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple


ARTIN = "src/artinlab/artin.py"
ORDERS = "src/artinlab/orders.py"
PARSING = "src/artinlab/parsing.py"
SERIES = "src/artinlab/series.py"
SUBSPACE = "src/artinlab/subspace.py"
WITNESS = "src/artinlab/witness.py"

CHECKED_SEARCH = ("tests/test_beta.py::test_incremental_state_matches_definitions",)
LAYER_STREAM = ("tests/test_beta.py::test_layer_streams_follow_fp_vectors",)
LONG_WALK = ("tests/test_cli.py::test_beta_lb_long_walk_keeps_no_layers",)
BETA_PINNED = ("tests/test_beta.py::test_search_benchmark_systems_pinned", "tests/test_beta.py::test_search_at_d6_pinned")
# its searches at i = 1 and 2 hold classes with nodes past the cut
ORACLE = ("tests/test_beta.py::test_matches_full_enumeration_oracle",)
COSETS = ("tests/test_beta.py::test_affine_search_walks_one_class_per_coset",
          "tests/test_beta.py::test_affine_cosets_match_the_full_walk")
D6_PINNED = ("tests/test_beta.py::test_search_at_d6_pinned",)
IMAGE_MEMO = ("tests/test_beta.py::test_read_builds_an_image_only_when_jacobian_changes",)
HOMOGENEOUS = ("tests/test_solvers.py::test_linreg_random_suite", "tests/test_solvers.py::test_fxhy_random_suite")
ICL_DEFINITION = ("tests/test_orders.py::test_icl_scan_matches_fraction_definition",)
DENSE_RREF = ("tests/test_subspace.py::test_insert_keeps_the_dense_rref",)
PIVOT_INDEX = ("tests/test_subspace.py::test_pivot_index_follows_inserts_and_copies",)
MULTIPLES = ("tests/test_subspace.py::test_multiples_are_the_monomial_products",)
INDEX = ("tests/test_subspace.py::test_monomial_index_contract",)
GRADED_PRODUCT = ("tests/test_subspace.py::test_graded_product_contract",)
PLAIN_PARSE = ("tests/test_parsing.py::test_plain_series_parse_as_the_constant_term_of_a_system",)
READ_START = ("tests/test_orders.py::test_remainder_order_reads_from_its_start",)
SCAN_ROWS = ("tests/test_orders.py::test_scan_rows_match_dense_oracle",)
SCAN = ("tests/test_witness.py::test_scan_matches_the_naive_loop",
        "tests/test_witness.py::test_scan_matches_the_naive_loop_on_random_targets")
SOLVE = ("tests/test_subspace.py::test_solve_linear_matches_dense_rank",)

MUTANTS = [
    # _BetaSearch: one walk, each class walked in one stretch and left at its first solution
    Mutant("held order not dropped at a solution", ARTIN,
           "self.solvable += self.ring.char ** self.unwalked\n                self.held = -1",
           "self.solvable += self.ring.char ** self.unwalked",
           CHECKED_SEARCH + D6_PINNED),
    # the pinned searches hold no unsolvable class of top order followed by a solvable
    # one in the same last boundary slot, so the oracle test carries such a case
    Mutant("held order counted when the frames fall below boundary - 1", ARTIN,
           "if len(self._frames) < self.boundary:", "if len(self._frames) < self.boundary - 1:",
           CHECKED_SEARCH + ("tests/test_beta.py::test_matches_full_enumeration_oracle",)),
    # _BetaSearch._walk: one loop over the undo stack, frame s assigning slot s
    Mutant("a solution returns through the layers of degree >= i", ARTIN,
           "(verdict and slot_idx >= boundary)", "(verdict and slot_idx >= boundary - self.n)",
           CHECKED_SEARCH + BETA_PINNED),
    Mutant("a solution keeps the layers left past the boundary", ARTIN,
           "(verdict and slot_idx >= boundary)", "(False and slot_idx >= boundary)",
           CHECKED_SEARCH + D6_PINNED),
    Mutant("a slot's untried layers kept when the walk leaves it", ARTIN,
           "                untried[slot_idx] = None\n", "                pass\n",
           CHECKED_SEARCH),
    Mutant("no untried entry past the last slot", ARTIN,
           "untried = [None] * (len(self.slots) + 1)", "untried = [None] * len(self.slots)",
           ORACLE + ("tests/test_cli.py::test_beta_lb_with_no_unknowns",)),
    # _BetaSearch: the affine read past the cut k; the pinned searches of the benchmark
    # systems all cut at k = i + 1, where each class is one read
    Mutant("cut at k = floor(D/2), where a quadratic term still reaches degree D", ARTIN,
           "(D - coeff.order().value) // 2 + 1", "(D - coeff.order().value) // 2",
           CHECKED_SEARCH + ("tests/test_beta.py::test_matches_full_enumeration_oracle",
                             "tests/test_beta.py::test_random_small_systems_agree")),
    Mutant("the columns of the last unknown dropped from J", ARTIN,
           "            jac.append(tuple(", "            jac.append(() if j == self.n - 1 else tuple(",
           CHECKED_SEARCH + BETA_PINNED),
    # its two-equation search reads 486 times
    Mutant("β read lifts every equation to component 0", ARTIN,
           "{k + comp: c for k, c in items}", "{k: c for k, c in items}",
           CHECKED_SEARCH + ORACLE + BETA_PINNED[:1]),
    Mutant("image kept after J(x0) changed", ARTIN,
           "if jac != self._jac:", "if self._img is None:",
           CHECKED_SEARCH + BETA_PINNED + IMAGE_MEMO),
    Mutant("image built from degree k + 1", ARTIN,
           "for t in range(self.D, self.k - 1, -1):", "for t in range(self.D, self.k, -1):",
           CHECKED_SEARCH + BETA_PINNED + ORACLE),
    Mutant("a solvable read does not leave its class", ARTIN,
           "                self.held = -1\n                return True", "                self.held = -1\n                return False",
           CHECKED_SEARCH + D6_PINNED),
    # _BetaSearch: one class per coset of an affine system's class map kernel, each
    # solvable class weighted by the class coordinates its path does not walk
    Mutant("a bound coordinate walked anyway", ARTIN,
           "if self.image.insert(self._column(g, d, s))", "if self.image.insert(self._column(g, d, s)) or True",
           CHECKED_SEARCH + BETA_PINNED + COSETS[:1]),
    Mutant("the weight exponent off by one", ARTIN,
           "self.ring.char ** self.unwalked\n", "self.ring.char ** (self.unwalked + 1)\n",
           CHECKED_SEARCH + BETA_PINNED + ORACLE + COSETS[:1]),
    Mutant("the coset rule applied to a non-affine system", ARTIN,
           "affine = all(sum(alpha) <= 1 ", "affine = all(sum(alpha) <= 2 ",
           CHECKED_SEARCH + ORACLE + ("tests/test_beta.py::test_random_small_systems_agree",)),
    # _BetaSearch: the residual, one vector of A^r by degree, and its order
    Mutant("residual orders never updated", ARTIN,
           "self.res, self.ord = res, o", "self.res = res",
           CHECKED_SEARCH),
    Mutant("order walk starts one past the least degree written", ARTIN,
           "o = min(self.ord, low)", "o = min(self.ord, low + 1)",
           CHECKED_SEARCH),
    Mutant("order walk stops one degree early", ARTIN,
           "while o <= D and not res[o]:", "while o < D and not res[o]:",
           CHECKED_SEARCH),
    Mutant("a term's degree dict shared between frames", ARTIN,
           "res[e] = part = dict(res[e])", "res[e] = part = res[e]",
           CHECKED_SEARCH),
    Mutant("a term's least degree not written", ARTIN,
           "low = min(low, term[0][0])", "low = min(low, D + 1)",
           CHECKED_SEARCH),
    Mutant("a term writes its equation's residual in component 0", ARTIN,
           "                    k += comp\n", "",
           CHECKED_SEARCH + ORACLE),
    # _BetaSearch: the state its terms read
    Mutant("powers kept for every unknown", ARTIN,
           "if any(aj >= 2 or others for", "if True or any(aj >= 2 or others for",
           CHECKED_SEARCH),
    Mutant("powers not kept for an unknown read beside another", ARTIN,
           "any(aj >= 2 or others for", "any(aj >= 2 for",
           CHECKED_SEARCH + BETA_PINNED[:1]),
    Mutant("powers not kept for an unknown raised to a >= 2", ARTIN,
           "any(aj >= 2 or others for", "any(others for",
           CHECKED_SEARCH + BETA_PINNED[:1]),
    Mutant("an empty layer always moves lb[j] past its degree", ARTIN,
           "if self.lb[j] == d:  # x_j is still zero", "if True:",
           CHECKED_SEARCH),
    Mutant("a term without its coefficient", ARTIN,
           "term = product(coeff, term)", "term = term",
           CHECKED_SEARCH + ("tests/test_beta.py::test_random_small_systems_agree",
            "tests/test_cli.py::test_beta_lb_of_linear_system_is_level_plus_ar_index")),
    # _BetaSearch: every term a graded product, cut at D
    Mutant("graded product keeps degree D + 1", ARTIN,
           "graded_product(a, b, self.D)", "graded_product(a, b, self.D + 1)",
           CHECKED_SEARCH),
    Mutant("power difference taken with the wrong sign", ARTIN,
           "dict(tb), 1, p)", "dict(tb), -1, p)",
           CHECKED_SEARCH),
    Mutant("x_j' drops the degrees below the layer", ARTIN,
           "new_x = old_pows[1] + step", "new_x = step",
           CHECKED_SEARCH),
    # _BetaSearch._layers: the first read streams, later ones pick from the slot's choices
    Mutant("layers picked with the first key varying fastest", ARTIN,
           "cartesian_product(*choices)", "cartesian_product(*reversed(choices))",
           LAYER_STREAM + CHECKED_SEARCH),
    Mutant("a slot's choices built on its first read", ARTIN,
           "            if choices is None:\n                self.choices[slot_idx] = ()\n",
           "            if choices is None and False:\n                self.choices[slot_idx] = ()\n",
           LAYER_STREAM + LONG_WALK),
    Mutant("one slot's choices reused for the next", ARTIN,
           "choices = self.choices[slot_idx]\n",
           "choices = self.choices[slot_idx - 1] or self.choices[slot_idx]\n",
           LAYER_STREAM + CHECKED_SEARCH),
    # artin_rees_index, which stable_ar_scan reads each translate (x)+I through: one
    # span, each row tagged by the level that last wrote it
    Mutant("a row's tag not moved when back-elimination rewrites it", SUBSPACE,
           "return (piv, *back)", "return (piv,)",
           ("tests/test_subspace.py::test_insert_returns_the_pivots_of_the_rows_it_wrote",
            "tests/test_artin_rees.py::test_basis_row_lies_in_a_graded_span_iff_it_is_the_spans_row",
            "tests/test_artin_rees.py::test_profile_matches_per_degree_definition")),
    Mutant("witness row sought with lm < prof[i], which no row of M cap m^i has", ARTIN,
           "if lm[q] <= j)", "if lm[q] < j)",
           ("tests/test_artin_rees.py::test_principal_ideal_indices",)),
    Mutant("every nonzero generator kept", ARTIN,
           "if not level and wrote:", "if not level:",
           ("tests/test_cli.py::test_stable_ar_checks_the_range_ar_index_certifies",
            "tests/test_artin_rees.py::test_kept_generators_match_the_greedy_pruning")),
    # _solve_homogeneous: one column per monomial, read back in that order
    Mutant("homogeneous solve reads its monomials in reverse", ARTIN,
           "dict(zip(monomials_of_degree(ring.num_vars, d), coeffs))",
           "dict(zip(monomials_of_degree(ring.num_vars, d)[::-1], coeffs))",
           HOMOGENEOUS),
    # _factorization_scan: one linear map per depth
    Mutant("scan solutions left unsorted", WITNESS,
           "for v in sorted(out)]", "for v in out]",
           SCAN),
    Mutant("depth map built from x_1 on both sides", WITNESS,
           "times(yl[0], depth) + times(xl[0], depth)", "times(xl[0], depth) + times(xl[0], depth)",
           SCAN),
    Mutant("fixed terms added to the target instead of taken off", WITNESS,
           "sub_multiple(need, part, 1, p)", "sub_multiple(need, part, -1, p)",
           ("tests/test_witness.py::test_scan_counts_deeper_factorizations",)),
    # Subspace pivot index and column index
    Mutant("pivots not sorted again after an insert", SUBSPACE,
           "        row_of[piv] = row\n        self._pivots = None", "        row_of[piv] = row",
           PIVOT_INDEX + DENSE_RREF),
    Mutant("new pivot's column left in the index", SUBSPACE,
           "holders.pop(piv, ())", "holders.get(piv, ())",
           PIVOT_INDEX + DENSE_RREF),
    Mutant("cancelled entry left in the index", SUBSPACE,
           "holders[k].discard(q)", "pass",
           PIVOT_INDEX + DENSE_RREF),
    Mutant("gained entry not indexed", SUBSPACE,
           "holders.setdefault(k, set()).add(q)", "pass",
           PIVOT_INDEX + DENSE_RREF),
    Mutant("new row's columns not indexed", SUBSPACE,
           "            if k != piv:\n                holders.setdefault(k, set()).add(piv)",
           "            if False:\n                holders.setdefault(k, set()).add(piv)",
           PIVOT_INDEX + DENSE_RREF),
    Mutant("remainder kept as the row whatever its pivot entry", SUBSPACE,
           "if rem[piv] == 1:", "if True:",
           DENSE_RREF),
    # the graded product: one part per degree from ord(a)+ord(b), none past top
    Mutant("graded product cut one degree past top", SUBSPACE,
           "min(top, a[-1][0] + b[-1][0]) + 1", "min(top + 1, a[-1][0] + b[-1][0]) + 1",
           GRADED_PRODUCT),
    Mutant("graded product starts one degree high", SUBSPACE,
           "range(a[0][0] + low,", "range(a[0][0] + low + 1,",
           GRADED_PRODUCT),
    # the monomial index: labels that sort degree-major and add as monomials multiply
    Mutant("index base B = trunc", SUBSPACE,
           "    B = trunc + 1\n", "    B = trunc\n",
           INDEX),
    Mutant("component term dropped from a label", SUBSPACE,
           "sum(map(mul, m, weights), comp * step)", "sum(map(mul, m, weights))",
           INDEX + CHECKED_SEARCH),
    Mutant("degree labels of arity 1", SUBSPACE,
           "tuple(map(labeller(num_vars, trunc, arity), monomials_of_degree",
           "tuple(map(labeller(num_vars, trunc, 1), monomials_of_degree",
           INDEX + CHECKED_SEARCH + ("tests/test_cli.py::test_pinned_output_bytes",)),
    Mutant("label decoded with T1 the lowest digit", SUBSPACE,
           "powers = [B**i for i in range(ring.num_vars - 1, -1, -1)]", "powers = [B**i for i in range(ring.num_vars)]",
           INDEX),
    # multiples: generator terms straight to their columns, shifted by one int add
    Mutant("multiples shift by the arity-1 label of u", SUBSPACE,
           "for lu in degree_labels(ring.num_vars, ring.trunc, len(gen), d):",
           "for lu in degree_labels(ring.num_vars, ring.trunc, 1, d):",
           INDEX),
    Mutant("multiples drop the terms that land on degree D", SUBSPACE,
           "if sum(m) + d <= ring.trunc]", "if sum(m) + d < ring.trunc]",
           MULTIPLES),
    Mutant("multiples put each component in the other's columns", SUBSPACE,
           "(label(m, comp), c) for comp, g in enumerate(gen)",
           "(label(m, len(gen) - 1 - comp), c) for comp, g in enumerate(gen)",
           MULTIPLES),
    # parsing: series atoms, lifted only for a system
    Mutant("a system with no unknowns parses as a plain series", PARSING,
           "None if unknowns is None else", "None if not unknowns else",
           PLAIN_PARSE + ("tests/test_cli.py::test_beta_lb_with_no_unknowns",)),
    Mutant("system atoms left as plain series", PARSING,
           "return s if self.n_unknowns is None else", "return s if True else",
           PLAIN_PARSE + ("tests/test_parsing.py::test_unknowns_build_systems",)),
    # scan pairs
    Mutant("unit pair reads its own order", ORDERS,
           "if units[i]:\n                    yield g, h, ng, nh, nh, None",
           "if units[i]:\n                    yield g, h, ng, nh, ng, None",
           SCAN_ROWS),
    Mutant("no unit shortcut", ORDERS,
           "units = [G[0][0] == 0 for G in forms]", "units = [False for G in forms]",
           SCAN_ROWS),
    # the order read: (degree, part) pairs, the order the degree of the remainder's lowest label
    Mutant("product part tagged one degree high", SUBSPACE,
           "yield e, part", "yield e + 1, part",
           GRADED_PRODUCT + CHECKED_SEARCH),
    Mutant("order read takes one part past the order", SUBSPACE,
           "if v and min(v) // step <= d:", "if v and min(v) // step < d:",
           READ_START + ("tests/test_orders.py::test_pair_read_takes_no_part_past_the_order",)),
    # the degree blocks of A^arity: the two-equation searches and a module's profile read them
    Mutant("order-read step of arity 1", SUBSPACE,
           "self.step = arity * (ring.trunc + 1) ** ring.num_vars", "self.step = (ring.trunc + 1) ** ring.num_vars",
           CHECKED_SEARCH + ("tests/test_cli.py::test_ar_index_module_rows",)),
    # nu(T1^2) modulo the cusp T1^2 - T2^3 is 3, past the one part, of degree 2, that x has
    Mutant("order read as the degree of the last part read", SUBSPACE,
           "return ExtOrder.of(min(v) // step) if v", "return ExtOrder.of(d) if v",
           READ_START + ("tests/test_orders.py::test_nu_values_cusp",
                         "tests/test_subspace.py::test_member_and_distance_order")),
    # the ICL envelope: exact pairs filed by (nu(g) + nu(h), nu(gh)), every slope read off the filing
    Mutant("pairs filed by nu(gh) alone", ORDERS,
           "filed.setdefault((ng.value + nh.value, ngh.value), [])", "filed.setdefault((0, ngh.value), [])",
           ICL_DEFINITION),
    Mutant("b without its floor at 0", ORDERS,
           "best = max([0, *excess.values()])", "best = max(excess.values(), default=0)",
           ICL_DEFINITION),
    Mutant("every pair equally simple", ORDERS,
           "return (ng + nh, dg + dh, rg, rh)", "return 0",
           ICL_DEFINITION),
    Mutant("nine attaining pairs kept", ORDERS,
           "8, chain.from_iterable(", "9, chain.from_iterable(",
           ICL_DEFINITION),
    Mutant("rows listed in full before the caller reads them", ORDERS,
           "live], rows(), npairs", "live], list(rows()), npairs",
           ("tests/test_orders.py::test_valuation_check_stops_at_its_first_counterexample",
            "tests/test_orders.py::test_scans_form_full_products_only_for_inexact_pairs")),
    # LinearMap: solves and kernels read off the graph of the map
    Mutant("unknowns in natural order", SUBSPACE,
           "self.coords = range(R + len(images) - 1, R - 1, -1)", "self.coords = range(R, R + len(images))",
           SOLVE + ("tests/test_cli.py::test_pinned_output_bytes",)),
    Mutant("last unknown's column read as an image column", SUBSPACE,
           "if rem and min(rem) < self.R:", "if rem and min(rem) <= self.R:",
           SOLVE),
    Mutant("target row R read as the last unknown's column", SUBSPACE,
           "if target and max(target) >= self.R:", "if target and max(target) > self.R:",
           SOLVE),
    Mutant("kernel read drops its last row", SUBSPACE,
           "for row in self.graph.rows[start:]]", "for row in self.graph.rows[start:-1]]",
           SOLVE + SCAN),
    Mutant("kernel read starts at the last image column", SUBSPACE,
           "bisect.bisect_left(self.graph.pivots, self.R)", "bisect.bisect_left(self.graph.pivots, self.R - 1)",
           SOLVE + SCAN),
    # value records: a NamedTuple keeps a tuple's own comparisons unless it defines them
    Mutant("ExtOrder drops its > and >=", SERIES,
           "    def __gt__(self, other: \"ExtOrder\") -> bool:\n        return self._key() > other._key()\n\n"
           "    def __ge__(self, other: \"ExtOrder\") -> bool:\n        return self._key() >= other._key()\n", "",
           ("tests/test_series.py::test_extorder_at_least_dominates_under_every_comparison",)),
    Mutant("RingSpec skips its trunc check", SERIES,
           "        if trunc < 1:\n            raise PrecondError(\"trunc must be >= 1\")\n", "",
           ("tests/test_series.py::test_ring_spec_validation",)),
]
