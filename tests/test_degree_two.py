"""Degree-2 sweeps against their exact failure probabilities.

At degree 2 a claim's conclusion reduces to a closed-form region in the
two zeros m <= M, so a sweep's expected COUNTEREXAMPLE count follows from
the draw alone, without any of limpoly's code paths.  A digest pins what
a report says; these tests check that what it says is right.

Each seed and tolerance below was fixed before the sweep's count was seen.
"""

import math

from limpoly import SearchConfig, run_search

SIGMAS = 4.0  # allowed distance of a count from its expectation, in standard deviations


def _uniform_gap_at_least(gap: float, lo: float, hi: float) -> float:
    """P(|X - Y| >= gap) for X, Y independent and uniform on [lo, hi]."""
    return max(0.0, 1.0 - gap / (hi - lo)) ** 2


def _assert_binomial(count: int, samples: int, p: float) -> None:
    mean = samples * p
    sd = math.sqrt(samples * p * (1.0 - p))
    assert abs(count - mean) <= SIGMAS * sd, (count, mean, sd)


def test_squeeze_degree_two_uniform():
    # P' has its one zero at (m + M) / 2, so the least zero is (M - m) / 2 from it, and the
    # conclusion (distance < delta = 1) fails iff M - m >= 2.  The default eps policy makes
    # the hypothesis (rest product M < 1.01 M) hold for every sample.
    lo, hi, samples = 0.05, 4.05, 4000
    config = SearchConfig(
        claim_id="squeeze", degree_min=2, degree_max=2, samples=samples, seed=22,
        distribution=f"uniform:{lo},{hi}",
    )
    counts = run_search(config).counts
    assert counts["HYPOTHESES_NOT_MET"] == 0
    assert counts["SOLVER_FAILURE"] == 0
    # expected 4000 * (1 - 2/4)**2 = 1000 counterexamples, sd 27.4
    _assert_binomial(counts["COUNTEREXAMPLE"], samples, _uniform_gap_at_least(2.0, lo, hi))
