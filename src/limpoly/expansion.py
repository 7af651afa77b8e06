"""Local expansion of a positive-real-zero polynomial about an extremal zero.

prod(x - a_i) is rewritten as sum_{k=1..n} s_k y^k with y = x - a_j and
a_j the least zero (minus form); prod(x + a_i) is rewritten the same way
with y = x + a_j and a_j the largest of the a_i (plus form).  In both
forms the constant term vanishes because the center is itself a zero,
and the expansion coefficients are those of y * prod_{i != j} (y - r_i)
where the gaps r_i are the distances from the center to the remaining
zeros.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .measure import _rest_measure
from .polynomials import RootMultiset, RootsLike, from_roots

__all__ = [
    "IndexBoundEntry",
    "IndexBoundReport",
    "LocalExpansion",
    "index_bound_check",
    "local_expansion_max_plus",
    "local_expansion_min",
    "min_pair_lemma",
]

MINUS_FORM = "minus"
PLUS_FORM = "plus"


@dataclass(frozen=True)
class LocalExpansion:
    """Expansion sum_k coeffs[k-1] * y^k about an extremal zero.

    minus form: y = x - center, center the least zero, gaps r_i = a_i - center;
    plus form:  y = x + center, center the largest a_i, gaps r_i = center - a_i.
    The last coefficient is exactly 1 (monic); all gaps are >= 0.
    """

    center: float
    center_index: int
    sign: str
    coeffs: tuple[float, ...]  # s_1..s_n ascending in powers of y
    residuals: tuple[float, ...]  # the n-1 gaps r_i, input order with center skipped

    @property
    def degree(self) -> int:
        return len(self.coeffs)


def _expand_about(values: tuple[float, ...], center_index: int, sign: str) -> LocalExpansion:
    center = values[center_index]
    if sign == MINUS_FORM:
        gaps = tuple(v - center for i, v in enumerate(values) if i != center_index)
    else:
        gaps = tuple(center - v for i, v in enumerate(values) if i != center_index)
    if gaps:
        # y * prod (y - r_i): the product's coefficients are s_1..s_n directly.
        product = from_roots(gaps)
        coeffs = tuple(c.real for c in product.coeffs)
        if not all(map(math.isfinite, coeffs)):
            raise OverflowError("expansion coefficients are out of double range")
    else:
        coeffs = (1.0,)
    return LocalExpansion(
        center=center,
        center_index=center_index,
        sign=sign,
        coeffs=coeffs,
        residuals=gaps,
    )


def local_expansion_min(roots: RootsLike) -> LocalExpansion:
    """Expand about the least zero (ties: smallest index); roots must be positive reals."""
    rs = RootMultiset(roots)
    values = rs.positive_reals()
    return _expand_about(values, rs.min_modulus_index(), MINUS_FORM)


def local_expansion_max_plus(roots: RootsLike) -> LocalExpansion:
    """Plus-form expansion of prod(x + a_i) about the largest a_i (ties: smallest index)."""
    rs = RootMultiset(roots)
    values = rs.positive_reals()
    center_index = min(range(len(values)), key=lambda i: (-values[i], i))
    return _expand_about(values, center_index, PLUS_FORM)


@dataclass(frozen=True)
class IndexBoundEntry:
    order: int  # power of y the coefficient belongs to
    magnitude: float
    bound: float
    holds: bool  # strict magnitude < bound


@dataclass(frozen=True)
class IndexBoundReport:
    entries: tuple[IndexBoundEntry, ...]
    bound: float
    all_hold: bool


def index_bound_check(exp: LocalExpansion, roots: RootsLike) -> IndexBoundReport:
    """Check each non-leading expansion coefficient against its stated bound.

    minus form: |coefficient| < prod of the non-center zeros;
    plus form:  |coefficient| < center^n.
    This is a claim check, not an invariant: the bound fails on known
    inputs, so violations are reported rather than raised.
    """
    rs = RootMultiset(roots)
    values = rs.positive_reals()
    if exp.sign == MINUS_FORM:
        bound = _rest_measure(values, exp.center_index)
    else:
        bound = exp.center ** len(values)
    entries = []
    for k in range(1, len(exp.coeffs)):
        mag = abs(exp.coeffs[k - 1])
        entries.append(IndexBoundEntry(order=k, magnitude=mag, bound=bound, holds=mag < bound))
    return IndexBoundReport(
        entries=tuple(entries),
        bound=bound,
        all_hold=all(e.holds for e in entries),
    )


def min_pair_lemma(first: float, second: float) -> bool:
    """Evaluate the implication (A*B < 1) => (min(A, B) < 1) for positive A, B.

    Returns the truth value of the implication itself, which is expected
    to hold on every input (vacuously when the antecedent fails).
    """
    if not first > 0 or not second > 0:
        raise ValueError("both values must be positive")
    if first * second < 1.0:
        return min(first, second) < 1.0
    return True
