"""One checker per built-in claim.

Each checker takes a concrete instance, evaluates every hypothesis and
the conclusion with signed margins, and classifies the instance (see
verdicts).  Conclusions are never assumed: both sides of every
inequality are computed, and the known violating instances are part of
the test suite.

All claims below concern a monic polynomial with positive real zeros
and its least zero; "rest product" means the product of the remaining
zeros, i.e. the measure of P(x)/(x - least zero).  product_prop, the
one claim on two zero sets, is checked in measure.

CLAIMS is the one table of claims: for each, its checker, the run_claim
arguments that checker takes, and the most zeros it accepts.  run_claim,
the sweeps and the analyze command make every per-claim decision from it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

from .critical import _real_critical_points, critical_points
from .critical import higher_derivative_zeros  # noqa: F401  bench/selftest.py reads it here
from .expansion import index_bound_check, local_expansion_min
from .measure import _require_nonnegative_finite, _require_positive_finite
from .measure import _rest_measure
from .measure import check_product_proposition  # noqa: F401  CLAIMS names it
from .polynomials import (
    RootMultiset,
    RootsLike,
    _derive,
    _horner,
    derivative,
    derivative_at_order,
    from_roots,
    permutation_sum_derivative,
)
from .verdicts import (
    ClaimId,
    ClaimVerdict,
    build_verdict,
    conclusion_check,
    hypothesis_check,
)

__all__ = [
    "StirlingBound",
    "check_basic_inequality",
    "check_deriv_sum_bound",
    "check_index_bound",
    "check_perm_sum_bound",
    "check_real_case",
    "check_squeeze",
    "factorial_sum",
    "run_claim",
    "stirling_bound_compare",
    "stirling_sum",
]

_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)
_STIRLING_N_MAX = 120  # overflow policy: factorials stay comfortably in double range


@functools.lru_cache(maxsize=None, typed=True)  # typed: 2.0 still fails in range()
def stirling_sum(n: int) -> float:
    """sqrt(2*pi) * sum_{k=1..n} e^-k k^(k+1/2), each term via its logarithm."""
    if not 1 <= n <= _STIRLING_N_MAX:
        raise ValueError(f"n must be in 1..{_STIRLING_N_MAX}, got {n}")
    return _SQRT_TWO_PI * math.fsum(
        math.exp(-k + (k + 0.5) * math.log(k)) for k in range(1, n + 1)
    )


@functools.lru_cache(maxsize=None, typed=True)
def factorial_sum(n: int) -> float:
    """sum_{k=1..n} k!, exact integer arithmetic converted once at the end."""
    if not 1 <= n <= _STIRLING_N_MAX:
        raise ValueError(f"n must be in 1..{_STIRLING_N_MAX}, got {n}")
    return float(sum(math.factorial(k) for k in range(1, n + 1)))


@dataclass(frozen=True)
class StirlingBound:
    """Factorial sum versus its exponential-form counterpart for one degree."""

    n: int
    factorial_sum: float
    stirling_sum: float
    stirling_below_factorial: bool  # expected for every n: the form underestimates k!


def stirling_bound_compare(n: int) -> StirlingBound:
    fact = factorial_sum(n)
    stir = stirling_sum(n)
    return StirlingBound(
        n=n,
        factorial_sum=fact,
        stirling_sum=stir,
        stirling_below_factorial=stir < fact,
    )


def _require_two_zeros(rs: RootMultiset) -> None:
    """Every claim compares the least zero with the others, so it needs two zeros."""
    if rs.n < 2:
        raise ValueError(f"claim needs at least 2 zeros, got {rs.n}")


def _positive_real_setup(roots: RootsLike):
    """Validated values, least-zero index, and the rest product."""
    rs = RootMultiset(roots)
    values = rs.positive_reals()
    _require_two_zeros(rs)
    j = values.index(min(values))  # positive reals: the least modulus, ties to the first
    return rs, values, j, _rest_measure(values, j)


def _eps_setup(roots: RootsLike, eps: float):
    """Validated eps, the positive-real setup, and its quotient-eps-limited hypothesis."""
    _require_positive_finite("eps", eps)
    rs, values, j, rest_product = _positive_real_setup(roots)
    hyp = hypothesis_check("quotient-eps-limited", rest_product, eps)
    return rs, values, j, rest_product, hyp


def check_real_case(roots: RootsLike, index_band: float = 1e-9) -> ClaimVerdict:
    """Unit-distance claim for the least zero.

    Hypotheses: (H1) the rest product is strictly below 1; (H2) the
    expansion coefficient magnitudes about the least zero match 1/t for
    every order t = 1..n-1, within index_band * (1 + 1/t).  Conclusion:
    every derivative zero lies strictly within distance 1 of the least
    zero.  The exact index pattern is measure-zero under sampling, so
    index_band is exposed for relaxed sweeps.
    """
    _require_nonnegative_finite("index_band", index_band)
    rs, values, j, rest_product = _positive_real_setup(roots)
    h_limited = hypothesis_check("quotient-one-limited", rest_product, 1.0)

    exp = local_expansion_min(rs)
    magnitudes = [abs(c) for c in exp.coeffs]
    orders = (
        hypothesis_check("index-pattern", abs(m - 1.0 / t), index_band * (1.0 + 1.0 / t))
        for t, m in enumerate(magnitudes[: rs.n - 1], start=1)
    )
    h_index = min(orders, key=lambda h: h.margin)  # the worst order

    crit = critical_points(from_roots(rs))
    center = values[j]
    distances = [abs(center - b) for b in crit.points]
    concl = conclusion_check(max(distances), 1.0)
    return build_verdict(
        ClaimId.REAL_CASE,
        (h_limited, h_index),
        concl,
        center=center,
        rest_product=rest_product,
        coefficient_magnitudes=magnitudes,
        index_band=index_band,
        critical_distances=distances,
    )


def check_basic_inequality(roots: RootsLike, eps: float) -> ClaimVerdict:
    """Derivative-sum bound at the least zero.

    Hypothesis: rest product < eps.  Conclusion: the sum over s = 1..n of
    |s-th derivative at the least zero| stays strictly below
    eps * sqrt(2*pi) * sum e^-k k^(k+1/2).

    The details report every link of the chain behind the bound: the
    derivative sum, and sum_k k! |coeff_k| from the expansion, which
    equals it (the test suite holds the two to roundoff); the factorial
    bound eps * sum k!, which the weighted sum stays below only if every
    coefficient magnitude is below eps (the leading one is 1); and the
    exponential bound, below the factorial one for every n
    (stirling_bound_compare).
    """
    rs, values, j, rest_product, hyp = _eps_setup(roots, eps)
    center = values[j]
    poly = from_roots(rs)
    n = rs.n

    derivative_sum = math.fsum(
        abs(derivative_at_order(poly, s, center)) for s in range(1, n + 1)
    )
    exp = local_expansion_min(rs)
    weighted_coeff_sum = math.fsum(
        math.factorial(k) * abs(exp.coeffs[k - 1]) for k in range(1, n + 1)
    )
    exponential_bound = eps * stirling_sum(n)

    concl = conclusion_check(derivative_sum, exponential_bound)
    return build_verdict(
        ClaimId.BASIC_INEQUALITY,
        (hyp,),
        concl,
        center=center,
        rest_product=rest_product,
        derivative_sum=derivative_sum,
        weighted_coeff_sum=weighted_coeff_sum,
        factorial_bound=eps * factorial_sum(n),
        exponential_bound=exponential_bound,
    )


def check_squeeze(roots: RootsLike, eps: float, delta: float) -> ClaimVerdict:
    """Distance bound for all higher-derivative zeros.

    Hypothesis: rest product < eps.  Conclusion: every zero of every
    derivative order k = 1..n-1 lies strictly within delta of the least
    zero.  The claim as literally stated quantifies over all delta > 0,
    which forces distance 0; delta is therefore a parameter and the
    attained maximum distance is always reported.

    The derivative tower is walked once, in n - 1 stages: order 1 is
    critical_points(poly), and each later order is solved on the previous
    order's zeros.  Each order's points come sorted, and the rounded
    |center - b| is largest at an end of a sorted list (center - b rounds
    monotonically in b), so an order's farthest point is read from its
    first and last.
    """
    _require_positive_finite("delta", delta)
    rs, values, j, rest_product, hyp = _eps_setup(roots, eps)
    center = values[j]
    poly = from_roots(rs)

    tower = [[b.real for b in critical_points(poly).points]]
    for _ in range(2, rs.n):
        tower.append(_real_critical_points(tower[-1]))
    per_order_max = [max(abs(center - points[0]), abs(center - points[-1])) for points in tower]
    max_distance = max(per_order_max)

    concl = conclusion_check(max_distance, delta)
    return build_verdict(
        ClaimId.SQUEEZE,
        (hyp,),
        concl,
        center=center,
        rest_product=rest_product,
        per_order_max=per_order_max,
        max_distance=max_distance,
        delta=delta,
    )


def check_perm_sum_bound(roots: RootsLike, eps: float) -> ClaimVerdict:
    """Product-rule value of P' at the least zero against eps * sqrt(2*pi)/e.

    The product-rule sum collapses at the least zero to the product of
    (least zero - other zero).
    """
    rs, values, j, rest_product, hyp = _eps_setup(roots, eps)
    center = values[j]
    attained = abs(permutation_sum_derivative(rs, center))

    bound = eps * _SQRT_TWO_PI / math.e
    concl = conclusion_check(attained, bound)
    return build_verdict(
        ClaimId.PERM_SUM_BOUND,
        (hyp,),
        concl,
        center=center,
        rest_product=rest_product,
        attained=attained,
        bound=bound,
    )


def check_deriv_sum_bound(roots: RootsLike, eps: float) -> ClaimVerdict:
    """Derivative sums of P' at the least zero against the exponential bound.

    The left side is sum over s = 0..n-1 of |s-th derivative of P'
    evaluated at the least zero| (the s = 0 term is |P'| itself); the
    bound is eps * sqrt(2*pi) * sum e^-k k^(k+1/2).  These are the sum and
    the bound of check_basic_inequality (the s-th derivative of P' is the
    (s+1)-th of P), so the two claims reach the same verdict.
    """
    rs, values, j, rest_product, hyp = _eps_setup(roots, eps)
    center = values[j]
    poly = from_roots(rs)

    coeffs = derivative(poly)
    terms = []
    for _ in range(rs.n):  # s = 0..n-1
        terms.append(abs(_horner(coeffs, complex(center))))
        coeffs = _derive(coeffs) if len(coeffs) > 1 else (0j,)
    attained = math.fsum(terms)

    bound = eps * stirling_sum(rs.n)
    concl = conclusion_check(attained, bound)
    return build_verdict(
        ClaimId.DERIV_SUM_BOUND,
        (hyp,),
        concl,
        center=center,
        rest_product=rest_product,
        attained=attained,
        bound=bound,
        terms=terms,
    )


def check_index_bound(roots: RootsLike) -> ClaimVerdict:
    """Expansion-coefficient bound about the least zero, as a claim verdict.

    No hypotheses beyond the preconditions (positive real zeros, at least
    two); the conclusion is that every non-leading expansion coefficient
    stays strictly below the product of the non-center zeros.  Known to
    fail on small zeros.
    """
    rs = RootMultiset(roots)
    exp = local_expansion_min(rs)
    _require_two_zeros(rs)
    report = index_bound_check(exp, rs)
    checks = (conclusion_check(e.magnitude, report.bound) for e in report.entries)
    concl = min(checks, key=lambda c: c.margin)  # the worst order
    return build_verdict(
        ClaimId.INDEX_BOUND,
        (),
        concl,
        center=exp.center,
        bound=report.bound,
        magnitudes=[e.magnitude for e in report.entries],
    )


class ClaimSpec(NamedTuple):
    # The checker's name in this module.  run_claim looks it up per call, so a
    # wrapper bound in its place (bench/tracer.py binds one) is the one called.
    checker: str
    takes: tuple[str, ...]  # the run_claim arguments the checker takes after the zeros, in order
    degree_max: int | None = None  # most zeros it accepts; None: no limit


# Every claim, in the order analyze reports them.
CLAIMS = {
    ClaimId.REAL_CASE: ClaimSpec("check_real_case", ("index_band",)),
    ClaimId.INDEX_BOUND: ClaimSpec("check_index_bound", ()),
    ClaimId.BASIC_INEQUALITY: ClaimSpec("check_basic_inequality", ("eps",), _STIRLING_N_MAX),
    ClaimId.SQUEEZE: ClaimSpec("check_squeeze", ("eps", "delta")),
    ClaimId.PERM_SUM_BOUND: ClaimSpec("check_perm_sum_bound", ("eps",)),
    ClaimId.DERIV_SUM_BOUND: ClaimSpec("check_deriv_sum_bound", ("eps",), _STIRLING_N_MAX),
    ClaimId.PRODUCT_PROP: ClaimSpec("check_product_proposition", ("second_roots", "eps", "delta")),
}


def run_claim(
    claim_id: ClaimId | str,
    roots: RootsLike,
    *,
    eps: float | None = None,
    delta: float | None = None,
    second_roots: RootsLike | None = None,
    index_band: float = 1e-9,
) -> ClaimVerdict:
    """Dispatch one claim check; raises ValueError for a missing argument or too many zeros."""
    cid = claim_id if isinstance(claim_id, ClaimId) else ClaimId(claim_id.upper())
    spec = CLAIMS[cid]
    given = {"eps": eps, "delta": delta, "second_roots": second_roots, "index_band": index_band}
    args = []
    for name in spec.takes:
        if (value := given[name]) is None:
            raise ValueError(f"{cid.value} needs {name}")
        args.append(value)
    if spec.degree_max is not None:
        roots = roots if isinstance(roots, RootMultiset) else RootMultiset(roots)
        if roots.n > spec.degree_max:
            raise ValueError(f"{cid.value} needs at most {spec.degree_max} zeros, got {roots.n}")
    return globals()[spec.checker](roots, *args)
