"""Measure-limited monic polynomials.

A small calculus around monic polynomials given by their zeros: the
product-of-moduli measure and eps-limitedness, local expansions about
extremal zeros, critical-point location, per-claim inequality checkers
with a confirmed/counterexample trichotomy, and a seeded randomized
sweep harness for hunting counterexamples.
"""

from .claims import (
    StirlingBound,
    check_basic_inequality,
    check_deriv_sum_bound,
    check_index_bound,
    check_perm_sum_bound,
    check_real_case,
    check_squeeze,
    factorial_sum,
    run_claim,
    stirling_bound_compare,
    stirling_sum,
)
from .critical import (
    ConvergenceError,
    CriticalSet,
    DistanceTable,
    critical_points,
    higher_derivative_zeros,
    sendov_distances,
)
from .expansion import (
    IndexBoundEntry,
    IndexBoundReport,
    LocalExpansion,
    index_bound_check,
    local_expansion_max_plus,
    local_expansion_min,
    min_pair_lemma,
    taylor_shift,
)
from .measure import (
    Limitedness,
    check_product_proposition,
    conjugate_roots,
    is_epsilon_limited,
    measure,
    rescale_roots,
)
from .polynomials import (
    DEFAULT_TOL,
    MonicPolynomial,
    RootDomainError,
    RootMultiset,
    Tolerance,
    derivative,
    derivative_at_order,
    from_roots,
    permutation_sum_derivative,
)
from .search import (
    RNG_ALGORITHM,
    SearchConfig,
    SearchReport,
    complex_pullback_check,
    config_hash,
    generate_roots,
    merge_reports,
    modulus_projection,
    report_to_jsonable,
    run_search,
    write_counterexample_log,
)
from .serialize import canonical_dumps, to_jsonable
from .verdicts import ClaimId, ClaimVerdict, Classification

__version__ = "0.1.0"
