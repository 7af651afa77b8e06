"""Product-of-moduli measure and epsilon-limitedness.

The measure of a monic polynomial is the plain product of the moduli of
its zeros (no max(1, .) weighting).  A polynomial is eps-limited when
its measure is strictly below eps.  The closure laws the measure obeys
(products, conjugation, rescaled zeros) are exposed as executable checks.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .polynomials import RootDomainError, RootMultiset, RootsLike
from .verdicts import (
    ClaimId,
    ClaimVerdict,
    HypothesisCheck,
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


def measure(roots: RootsLike) -> float:
    """Product of the moduli of all roots; exactly 0 if any root is 0.

    The running product is kept as a mantissa in [0.5, 1) and a binary
    exponent, so the result under- or overflows only when the product
    itself is outside double range: a product below the subnormal range
    rounds to 0.0 (measure([1e-200, 1e-200]) is 0.0, the correctly
    rounded value), and one above the largest double raises OverflowError.

    The moduli are taken as given, with no RootMultiset built around
    them; an empty or non-finite input is rejected as RootMultiset
    rejects it.  A non-finite root leaves the mantissa non-finite
    (0 * inf is nan), so one check after the loop finds it.
    """
    values = roots.roots if isinstance(roots, RootMultiset) else tuple(roots)
    if not values:
        raise ValueError("a root multiset needs at least one root")
    mantissa, exponent = 1.0, 0
    try:
        for m in map(abs, values):
            mantissa, e = math.frexp(mantissa * m)
            exponent += e
    except OverflowError:  # complex abs raised on a finite zero: halve, in place and by
        # components, each finite zero past 1 (its modulus halves exactly), and append a 2.0 each
        big = [cmath.isfinite(z) and abs(z.real) + abs(z.imag) > 1 for z in values]
        halved = [complex(z.real / 2, z.imag / 2) if b else z for z, b in zip(values, big)]
        return measure(halved + [2.0] * sum(big))
    if not math.isfinite(mantissa):
        i = next(i for i, m in enumerate(map(abs, values)) if not math.isfinite(m))
        raise RootDomainError(i, complex(values[i]), "finite")
    try:
        return math.ldexp(mantissa, exponent)
    except OverflowError:
        raise OverflowError(f"measure is out of double range (about 2**{exponent})") from None


def _require_positive_finite(name: str, value: float) -> None:
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")


def _require_nonnegative_finite(name: str, value: float) -> None:
    if not 0 <= value < math.inf:
        raise ValueError(f"{name} must be nonnegative and finite, got {value}")


def _rest_measure(values, j: int) -> float:
    """Measure of every zero but #j; 1.0 when none is left."""
    rest = values[:j] + values[j + 1 :]
    return measure(rest) if rest else 1.0


@dataclass(frozen=True)
class Limitedness:
    """Measure against a strict bound: limited iff measure < epsilon."""

    measure: float
    epsilon: float
    is_limited: bool


def is_epsilon_limited(roots: RootsLike, eps: float) -> Limitedness:
    """Strict comparison measure < eps; eps must be positive and finite."""
    _require_positive_finite("epsilon", eps)
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
) -> ClaimVerdict:
    """Product closure: eps-limited times delta-limited is (eps*delta)-limited.

    Disjointness of the two zero sets is checked as a stated hypothesis.
    All three measures are reported, so the identity M(PQ) = M(P) M(Q)
    behind the claim can be read from the details whatever the verdict.
    """
    _require_positive_finite("eps", eps)
    _require_positive_finite("delta", delta)
    rp = RootMultiset(p_roots)
    rq = RootMultiset(q_roots)
    mp = measure(rp)
    mq = measure(rq)
    m_prod = measure(rp.roots + rq.roots)

    disjoint = not set(rp.roots) & set(rq.roots)
    hypotheses = (
        hypothesis_check("first-eps-limited", mp, eps),
        hypothesis_check("second-delta-limited", mq, delta),
        HypothesisCheck("zero-sets-disjoint", disjoint, 1.0 if disjoint else -1.0),
    )
    bound = eps * delta
    concl = conclusion_check(m_prod, bound)
    return build_verdict(
        ClaimId.PRODUCT_PROP,
        hypotheses,
        concl,
        first_measure=mp,
        second_measure=mq,
        product_measure=m_prod,
        product_bound=bound,
    )
