"""One checker per built-in claim.

Each checker takes a concrete instance, evaluates every hypothesis and
the conclusion with signed margins, and classifies the instance (see
verdicts).  Conclusions are never assumed: both sides of every
inequality are computed, and the known violating instances are part of
the test suite.

All claims below concern a monic polynomial with positive real zeros
and its least zero; "rest product" means the product of the remaining
zeros, i.e. the measure of P(x)/(x - least zero).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .critical import critical_points, higher_derivative_zeros
from .expansion import index_bound_check, local_expansion_min
from .measure import _require_positive_finite, _rest_measure, check_product_proposition
from .polynomials import (
    DEFAULT_TOL,
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
    ConclusionCheck,
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


def stirling_sum(n: int) -> float:
    """sqrt(2*pi) * sum_{k=1..n} e^-k k^(k+1/2), each term via its logarithm."""
    if not 1 <= n <= _STIRLING_N_MAX:
        raise ValueError(f"n must be in 1..{_STIRLING_N_MAX}, got {n}")
    return _SQRT_TWO_PI * math.fsum(
        math.exp(-k + (k + 0.5) * math.log(k)) for k in range(1, n + 1)
    )


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


def _positive_real_setup(roots: RootsLike):
    """Validated values, least-zero index, and the rest product."""
    rs = RootMultiset(roots)
    values = rs.positive_reals()
    if rs.n < 2:
        raise ValueError(f"claim needs at least 2 zeros, got {rs.n}")
    j = rs.min_modulus_index()
    return rs, values, j, _rest_measure(values, j)


def _eps_setup(roots: RootsLike, eps: float):
    """Validated eps, the positive-real setup, and its quotient-eps-limited hypothesis."""
    _require_positive_finite("eps", eps)
    rs, values, j, rest_product = _positive_real_setup(roots)
    hyp = hypothesis_check(
        "quotient-eps-limited", eps - rest_product, DEFAULT_TOL.gap(eps, rest_product)
    )
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
    rs, values, j, rest_product = _positive_real_setup(roots)
    h_limited = hypothesis_check(
        "quotient-one-limited", 1.0 - rest_product, DEFAULT_TOL.gap(1.0, rest_product)
    )

    exp = local_expansion_min(rs)
    magnitudes = [abs(c) for c in exp.coeffs]
    worst_margin = math.inf
    worst_boundary = 0.0
    for t in range(1, rs.n):
        target = 1.0 / t
        band = index_band * (1.0 + target)
        distance = abs(magnitudes[t - 1] - target)
        margin = band - distance
        if margin < worst_margin:
            worst_margin = margin
            worst_boundary = DEFAULT_TOL.gap(band, distance)
    h_index = hypothesis_check("index-pattern", worst_margin, worst_boundary)

    crit = critical_points(from_roots(rs))
    center = values[j]
    distances = [abs(center - b) for b in crit.points]
    max_distance = max(distances)
    concl = conclusion_check(1.0 - max_distance, DEFAULT_TOL.gap(1.0, max_distance))
    return build_verdict(
        ClaimId.REAL_CASE,
        (h_limited, h_index),
        concl,
        center=center,
        rest_product=rest_product,
        coefficient_magnitudes=magnitudes,
        index_band=index_band,
        critical_distances=distances,
        max_distance=max_distance,
    )


def check_basic_inequality(roots: RootsLike, eps: float) -> ClaimVerdict:
    """Derivative-sum bound at the least zero.

    Hypothesis: rest product < eps.  Conclusion: the sum over s = 1..n of
    |s-th derivative at the least zero| stays strictly below
    eps * sqrt(2*pi) * sum e^-k k^(k+1/2).

    The details report every link of the chain behind the bound: the
    derivative sum equals sum_k k! |coeff_k| (an identity, verified);
    that is below eps * sum k! only if every coefficient magnitude is
    below eps (reported, not assumed: the leading coefficient is 1); and
    the exponential form actually underestimates the factorial sum for
    every n (reported, direction checked separately).
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
    factorial_bound = eps * factorial_sum(n)
    exponential_bound = eps * stirling_sum(n)

    identity_scale = max(derivative_sum, weighted_coeff_sum, 1.0)
    identity_rel_err = abs(derivative_sum - weighted_coeff_sum) / identity_scale

    concl = conclusion_check(
        exponential_bound - derivative_sum, DEFAULT_TOL.gap(exponential_bound, derivative_sum)
    )
    return build_verdict(
        ClaimId.BASIC_INEQUALITY,
        (hyp,),
        concl,
        center=center,
        rest_product=rest_product,
        derivative_sum=derivative_sum,
        weighted_coeff_sum=weighted_coeff_sum,
        factorial_bound=factorial_bound,
        exponential_bound=exponential_bound,
        identity_rel_err=identity_rel_err,
        chain_weighted_below_factorial=weighted_coeff_sum < factorial_bound,
        chain_factorial_below_exponential=factorial_bound <= exponential_bound,
    )


def check_squeeze(roots: RootsLike, eps: float, delta: float) -> ClaimVerdict:
    """Distance bound for all higher-derivative zeros.

    Hypothesis: rest product < eps.  Conclusion: every zero of every
    derivative order k = 1..n-1 lies strictly within delta of the least
    zero.  The claim as literally stated quantifies over all delta > 0,
    which forces distance 0; delta is therefore a parameter and the
    attained maximum distance is always reported.
    """
    _require_positive_finite("delta", delta)
    rs, values, j, rest_product, hyp = _eps_setup(roots, eps)
    center = values[j]
    poly = from_roots(rs)

    per_order_max = []
    for k in range(1, rs.n):
        crit = higher_derivative_zeros(poly, k)
        per_order_max.append(max(abs(center - b) for b in crit.points))
    max_distance = max(per_order_max)

    concl = conclusion_check(delta - max_distance, DEFAULT_TOL.gap(delta, max_distance))
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
    (least zero - other zero); that internal identity is verified and
    reported alongside the bound check.
    """
    rs, values, j, rest_product, hyp = _eps_setup(roots, eps)
    center = values[j]

    value = permutation_sum_derivative(rs, center)
    attained = abs(value)
    direct = 1.0
    for i, v in enumerate(values):
        if i != j:
            direct *= center - v
    identity_scale = max(attained, abs(direct), 1.0)
    identity_rel_err = abs(value - direct) / identity_scale

    bound = eps * _SQRT_TWO_PI / math.e
    concl = conclusion_check(bound - attained, DEFAULT_TOL.gap(bound, attained))
    return build_verdict(
        ClaimId.PERM_SUM_BOUND,
        (hyp,),
        concl,
        center=center,
        rest_product=rest_product,
        attained=attained,
        bound=bound,
        product_identity_rel_err=identity_rel_err,
    )


def check_deriv_sum_bound(roots: RootsLike, eps: float) -> ClaimVerdict:
    """Derivative sums of P' at the least zero against the exponential bound.

    The left side is sum over s = 0..n-1 of |s-th derivative of P'
    evaluated at the least zero| (the s = 0 term is |P'| itself); the
    bound is eps * sqrt(2*pi) * sum e^-k k^(k+1/2).
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
    concl = conclusion_check(bound - attained, DEFAULT_TOL.gap(bound, attained))
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

    No hypotheses beyond the positive-real precondition; the conclusion
    is that every non-leading expansion coefficient stays strictly below
    the product of the non-center zeros.  Known to fail on small zeros.
    """
    rs = RootMultiset(roots)
    exp = local_expansion_min(rs)
    report = index_bound_check(exp, rs)
    if report.entries:
        worst = min(report.entries, key=lambda e: e.bound - e.magnitude)
        concl = conclusion_check(
            worst.bound - worst.magnitude, DEFAULT_TOL.gap(worst.bound, worst.magnitude)
        )
    else:
        # Degree 1: no coefficients in range, the bound holds vacuously.
        concl = ConclusionCheck(holds=True, margin=0.0, boundary=0.0)
    return build_verdict(
        ClaimId.INDEX_BOUND,
        (),
        concl,
        center=exp.center,
        bound=report.bound,
        magnitudes=[e.magnitude for e in report.entries],
        violating_orders=[e.order for e in report.entries if not e.holds],
        vacuous=not report.entries,
    )


def run_claim(
    claim_id: ClaimId | str,
    roots: RootsLike,
    *,
    eps: float | None = None,
    delta: float | None = None,
    second_roots: RootsLike | None = None,
    index_band: float = 1e-9,
) -> ClaimVerdict:
    """Dispatch one claim check; raises ValueError for missing parameters."""
    cid = ClaimId(claim_id.upper()) if isinstance(claim_id, str) else claim_id
    if cid is ClaimId.REAL_CASE:
        return check_real_case(roots, index_band=index_band)
    if cid is ClaimId.INDEX_BOUND:
        return check_index_bound(roots)
    if cid is ClaimId.PRODUCT_PROP:
        if second_roots is None:
            raise ValueError("PRODUCT_PROP needs a second root multiset")
        if eps is None or delta is None:
            raise ValueError("PRODUCT_PROP needs both eps and delta")
        return check_product_proposition(roots, second_roots, eps, delta)
    if eps is None:
        raise ValueError(f"{cid.value} needs eps")
    if cid is ClaimId.BASIC_INEQUALITY:
        return check_basic_inequality(roots, eps)
    if cid is ClaimId.SQUEEZE:
        if delta is None:
            raise ValueError("SQUEEZE needs delta")
        return check_squeeze(roots, eps, delta)
    if cid is ClaimId.PERM_SUM_BOUND:
        return check_perm_sum_bound(roots, eps)
    if cid is ClaimId.DERIV_SUM_BOUND:
        return check_deriv_sum_bound(roots, eps)
    raise ValueError(f"unknown claim {claim_id!r}")
