"""artinlab: exact computations around order functions, intersection indices
and approximation-function bounds in truncated power-series rings."""

from .errors import BudgetError, PrecondError
from .series import ExtOrder, RingSpec, TruncatedSeries
from .subspace import (
    IdealSpec,
    ModuleSpec,
    Subspace,
    distance_order,
    member,
    span_ideal,
    span_module,
)
from .orders import (
    IclReport,
    NuOracle,
    icl_envelope,
    icl_scan,
    nu,
    nu_bar_estimate,
    valuation_check,
)
from .artin import (
    ArIndexResult,
    BetaResult,
    SolveCertificate,
    StableArReport,
    artin_rees_index,
    beta_lower_bound_bruteforce,
    solve_fx_hy,
    solve_linear_regular,
    stable_ar_scan,
)
from .witness import (
    IrreducibilityCertificate,
    WitnessFamily,
    irreducibility_exhaustive,
    lower_bound_certificate,
    monomial_witness_family,
)
from .bounds import BoundParams, FORMULA_IDS, cross_check_bound, evaluate_bound
from .parsing import parse_expr, parse_poly
from .xpoly import PolyInX

__version__ = "0.1.0"
