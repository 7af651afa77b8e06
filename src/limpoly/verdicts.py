"""Verdict record shared by every claim checker.

A checker evaluates each hypothesis and the conclusion of one claim on
one concrete instance and classifies the instance.  Every inequality is
checked by one rule, attained < bound: the margin is bound - attained,
the noise boundary is TOL_ABS + TOL_REL * max(|bound|, |attained|), and
the check holds when the margin is positive.  A side that is not finite
raises OverflowError, since no margin can be read from it.
COUNTEREXAMPLE is only emitted when every hypothesis margin clears the
noise boundary and the conclusion margin fails beyond it, so boundary
ties never count as counterexamples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

__all__ = [
    "ClaimId",
    "ClaimVerdict",
    "Classification",
    "ConclusionCheck",
    "HypothesisCheck",
    "build_verdict",
    "classify",
    "conclusion_check",
    "hypothesis_check",
]


# The noise boundary of every check: margins within it are ties.
TOL_ABS = 1e-10
TOL_REL = 1e-9


class ClaimId(str, Enum):
    REAL_CASE = "REAL_CASE"
    BASIC_INEQUALITY = "BASIC_INEQUALITY"
    SQUEEZE = "SQUEEZE"
    PERM_SUM_BOUND = "PERM_SUM_BOUND"
    DERIV_SUM_BOUND = "DERIV_SUM_BOUND"
    INDEX_BOUND = "INDEX_BOUND"
    PRODUCT_PROP = "PRODUCT_PROP"


class Classification(str, Enum):
    HYPOTHESES_NOT_MET = "HYPOTHESES_NOT_MET"
    CONFIRMED = "CONFIRMED"
    COUNTEREXAMPLE = "COUNTEREXAMPLE"


@dataclass(frozen=True)
class HypothesisCheck:
    name: str
    met: bool
    margin: float
    boundary: float = 0.0  # noise gap at this margin's scale


@dataclass(frozen=True)
class ConclusionCheck:
    holds: bool
    margin: float
    boundary: float = 0.0


@dataclass(frozen=True)
class ClaimVerdict:
    claim_id: ClaimId
    hypotheses: tuple[HypothesisCheck, ...]
    conclusion: ConclusionCheck
    classification: Classification
    details: dict = field(default_factory=dict)


def _below(attained: float, bound: float) -> tuple[bool, float, float]:
    """The rule attained < bound: (satisfied, margin, noise boundary)."""
    if not (math.isfinite(attained) and math.isfinite(bound)):
        raise OverflowError(f"checked value out of double range: {attained!r} < {bound!r}")
    margin = bound - attained
    return margin > 0.0, margin, TOL_ABS + TOL_REL * max(abs(bound), abs(attained))


def hypothesis_check(name: str, attained: float, bound: float) -> HypothesisCheck:
    return HypothesisCheck(name, *_below(attained, bound))


def conclusion_check(attained: float, bound: float) -> ConclusionCheck:
    return ConclusionCheck(*_below(attained, bound))


def classify(hypotheses: tuple[HypothesisCheck, ...], concl: ConclusionCheck) -> Classification:
    if not all(h.met for h in hypotheses):
        return Classification.HYPOTHESES_NOT_MET
    if concl.holds:
        return Classification.CONFIRMED
    clear_hypotheses = all(h.margin > h.boundary for h in hypotheses)
    clear_failure = concl.margin < -concl.boundary
    if clear_hypotheses and clear_failure:
        return Classification.COUNTEREXAMPLE
    # Conclusion failed only within noise of the boundary: not a counterexample.
    return Classification.CONFIRMED


def build_verdict(
    claim_id: ClaimId,
    hypotheses: tuple[HypothesisCheck, ...],
    concl: ConclusionCheck,
    **details,
) -> ClaimVerdict:
    return ClaimVerdict(
        claim_id=claim_id,
        hypotheses=hypotheses,
        conclusion=concl,
        classification=classify(hypotheses, concl),
        details=details,
    )
