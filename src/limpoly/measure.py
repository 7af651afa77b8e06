"""Product-of-moduli measure and epsilon-limitedness.

The measure of a monic polynomial is the plain product of the moduli of
its zeros (no max(1, .) weighting).  A polynomial is eps-limited when
its measure is strictly below eps.  The closure laws the measure obeys
(products, conjugation, rescaled zeros) are exposed as executable checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .polynomials import DEFAULT_TOL, RootMultiset, RootsLike, Tolerance
from .verdicts import (
    ClaimId,
    ClaimVerdict,
    build_verdict,
    conclusion_check,
    hypothesis_check,
)

__all__ = [
    "Limitedness",
    "check_product_proposition",
    "conjugate_roots",
    "is_epsilon_limited",
    "measure",
    "rescale_roots",
]

# Linear product is exact enough for small, well-scaled multisets; the
# log-domain path avoids under/overflow on sweeps.
_LOG_DOMAIN_N = 20
_LINEAR_LO = 1e-6
_LINEAR_HI = 1e6


def measure(roots: RootsLike) -> float:
    """Product of the moduli of all roots; exactly 0 if any root is 0."""
    rs = RootMultiset(roots)
    mods = rs.moduli()
    if any(m == 0.0 for m in mods):
        return 0.0
    if rs.n > _LOG_DOMAIN_N or any(m < _LINEAR_LO or m > _LINEAR_HI for m in mods):
        return math.exp(math.fsum(math.log(m) for m in mods))
    prod = 1.0
    for m in mods:
        prod *= m
    return prod


@dataclass(frozen=True)
class Limitedness:
    """Measure against a strict bound: limited iff measure < epsilon."""

    measure: float
    epsilon: float
    is_limited: bool


def is_epsilon_limited(roots: RootsLike, eps: float) -> Limitedness:
    """Strict comparison measure < eps; eps must be positive."""
    if not eps > 0:
        raise ValueError(f"epsilon must be positive, got {eps}")
    m = measure(roots)
    return Limitedness(measure=m, epsilon=float(eps), is_limited=m < eps)


def conjugate_roots(roots: RootsLike) -> RootMultiset:
    """Entrywise complex conjugate; the measure is preserved exactly."""
    rs = RootMultiset(roots)
    return RootMultiset(tuple(r.conjugate() for r in rs.roots))


def rescale_roots(roots: RootsLike, lambdas) -> RootMultiset:
    """Divide each root by its scale factor: b_i = a_i / lambda_i.

    The measure divides by prod |lambda_i|.
    """
    rs = RootMultiset(roots)
    lams = tuple(complex(v) for v in lambdas)
    if len(lams) != rs.n:
        raise ValueError(f"expected {rs.n} scale factors, got {len(lams)}")
    for i, lam in enumerate(lams):
        if lam == 0:
            raise ValueError(f"scale factor #{i} is zero")
    return RootMultiset(tuple(a / lam for a, lam in zip(rs.roots, lams)))


def check_product_proposition(
    p_roots: RootsLike,
    q_roots: RootsLike,
    eps: float,
    delta: float,
    tol: Tolerance = DEFAULT_TOL,
) -> ClaimVerdict:
    """Product closure: eps-limited times delta-limited is (eps*delta)-limited.

    Disjointness of the two zero sets is checked as a stated hypothesis,
    but the underlying measure identity M(PQ) = M(P) M(Q) is verified
    regardless and reported in the details.
    """
    if not eps > 0 or not delta > 0:
        raise ValueError("eps and delta must be positive")
    rp = RootMultiset(p_roots)
    rq = RootMultiset(q_roots)
    mp = measure(rp)
    mq = measure(rq)
    combined = RootMultiset(rp.roots + rq.roots)
    m_prod = measure(combined)

    separate = mp * mq
    identity_gap = tol.gap(m_prod, separate)
    identity_holds = abs(m_prod - separate) <= identity_gap

    disjoint = not set(rp.roots) & set(rq.roots)
    hypotheses = (
        hypothesis_check("first-eps-limited", eps - mp, tol.gap(eps, mp)),
        hypothesis_check("second-delta-limited", delta - mq, tol.gap(delta, mq)),
        hypothesis_check("zero-sets-disjoint", 1.0 if disjoint else -1.0),
    )
    bound = eps * delta
    concl = conclusion_check(bound - m_prod, tol.gap(bound, m_prod))
    return build_verdict(
        ClaimId.PRODUCT_PROP,
        hypotheses,
        concl,
        first_measure=mp,
        second_measure=mq,
        product_measure=m_prod,
        measure_identity_holds=identity_holds,
        measure_identity_residual=abs(m_prod - separate),
        product_bound=bound,
    )
