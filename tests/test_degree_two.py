"""Degree-2 sweeps against their exact failure probabilities.

At degree 2 a claim's conclusion reduces to a closed-form region in the
two zeros m <= M, so a sweep's expected COUNTEREXAMPLE count follows from
the draw alone, without any of limpoly's code paths.  A digest pins what
a report says; these tests check that what it says is right.

Each seed and tolerance below was fixed before the sweep's count was seen.
"""

import math

import numpy as np

from limpoly import SearchConfig, run_search
from limpoly.search import MARGIN_BIN_EDGES

SIGMAS = 4.0  # allowed distance of a count from its expectation, in standard deviations


def _uniform_gap_at_least(gap: float, lo: float, hi: float) -> float:
    """P(|X - Y| >= gap) for X, Y independent and uniform on [lo, hi]."""
    return max(0.0, 1.0 - gap / (hi - lo)) ** 2


def _uniform_pair_probability(upper, lo: float, hi: float) -> float:
    """P(m <= upper(M)) for the smaller m and larger M of two independent uniforms on [lo, hi].

    (m, M) has density 2 / (hi - lo)^2 on lo <= m <= M <= hi, so this is that density
    times the integral over M of the length of [lo, min(M, upper(M))], by the
    trapezoid rule on a fine grid.
    """
    big = np.linspace(lo, hi, 200_001)
    length = np.clip(np.minimum(big, upper(big)) - lo, 0.0, None)
    return float(2.0 * np.trapezoid(length, big) / (hi - lo) ** 2)


def _log_uniform_pair_probability(upper, lo: float, hi: float) -> float:
    """P(m <= upper(M)) for the smaller m and larger M of two independent log-uniforms on [lo, hi].

    In logs, x = log m <= y = log M has density 2 / L^2 with L = log(hi / lo), so this is
    that density times the integral over y of the length of [log lo, min(y, log upper(e^y))]
    (empty where upper(e^y) <= 0), by the trapezoid rule on a fine grid.
    """
    a, b = math.log(lo), math.log(hi)
    y = np.linspace(a, b, 200_001)
    bound = upper(np.exp(y))
    with np.errstate(divide="ignore", invalid="ignore"):
        top = np.where(bound > 0.0, np.log(bound), -np.inf)
    length = np.clip(np.minimum(y, top) - a, 0.0, None)
    return float(2.0 * np.trapezoid(length, y) / (b - a) ** 2)


def _counts(claim: str, distribution: str, samples: int, seed: int, **options) -> dict:
    config = SearchConfig(
        claim_id=claim, degree_min=2, degree_max=2, samples=samples, seed=seed,
        distribution=distribution, **options,
    )
    counts = run_search(config).counts
    assert counts["SOLVER_FAILURE"] == 0
    return counts


def _sweep_counts(claim: str, lo: float, hi: float, samples: int, seed: int,
                  kind: str = "uniform") -> dict:
    counts = _counts(claim, f"{kind}:{lo},{hi}", samples, seed)
    # The default eps policy, eps = 1.01 times the rest product M, makes the one hypothesis
    # (M < eps) hold for every sample.
    assert counts["HYPOTHESES_NOT_MET"] == 0
    return counts


def _assert_binomial(count: int, samples: int, p: float) -> None:
    mean = samples * p
    sd = math.sqrt(samples * p * (1.0 - p))
    assert abs(count - mean) <= SIGMAS * sd, (count, mean, sd)


def test_squeeze_degree_two_uniform():
    # P' has its one zero at (m + M) / 2, so the least zero is (M - m) / 2 from it, and the
    # conclusion (distance < delta = 1) fails iff M - m >= 2.
    lo, hi, samples = 0.05, 4.05, 4000
    counts = _sweep_counts("squeeze", lo, hi, samples, seed=22)
    # expected 4000 * (1 - 2/4)**2 = 1000 counterexamples, sd 27.4
    _assert_binomial(counts["COUNTEREXAMPLE"], samples, _uniform_gap_at_least(2.0, lo, hi))


def test_perm_sum_bound_degree_two_uniform():
    # |P'(m)| = M - m against eps sqrt(2 pi) / e with eps = 1.01 M: the conclusion fails
    # iff M - m >= 1.01 M sqrt(2 pi) / e, that is iff m <= ratio * M.
    lo, hi, samples = 0.01, 1.0, 4000
    ratio = 1.0 - 1.01 * math.sqrt(2.0 * math.pi) / math.e
    counts = _sweep_counts("perm_sum_bound", lo, hi, samples, seed=2026)
    p = _uniform_pair_probability(lambda big: ratio * big, lo, hi)
    _assert_binomial(counts["COUNTEREXAMPLE"], samples, p)


def test_basic_inequality_degree_two_uniform():
    # |P'(m)| + |P''(m)| = (M - m) + 2 against eps S_2 with eps = 1.01 M, where
    # S_2 = sqrt(2 pi) (e^-1 + e^-2 2^(5/2)): the conclusion fails iff
    # (M - m) + 2 >= 1.01 M S_2, that is iff m <= 2 - (1.01 S_2 - 1) M.
    lo, hi, samples = 0.05, 2.05, 4000
    s_2 = math.sqrt(2.0 * math.pi) * (math.exp(-1.0) + math.exp(-2.0) * 2.0**2.5)
    slope = 1.01 * s_2 - 1.0
    counts = _sweep_counts("basic_inequality", lo, hi, samples, seed=2026)
    p = _uniform_pair_probability(lambda big: 2.0 - slope * big, lo, hi)
    _assert_binomial(counts["COUNTEREXAMPLE"], samples, p)


def test_deriv_sum_bound_degree_two_uniform():
    # the derivative sum at m is |P'(m)| + |P''(m)| = (M - m) + 2 against eps S_2, as in
    # test_basic_inequality_degree_two_uniform: the conclusion fails iff m <= 2 - (1.01 S_2 - 1) M,
    # about 547 of 4000
    lo, hi, samples = 0.1, 2.1, 4000
    s_2 = math.sqrt(2.0 * math.pi) * (math.exp(-1.0) + math.exp(-2.0) * 2.0**2.5)
    slope = 1.01 * s_2 - 1.0
    counts = _sweep_counts("deriv_sum_bound", lo, hi, samples, seed=2035)
    p = _uniform_pair_probability(lambda big: 2.0 - slope * big, lo, hi)
    _assert_binomial(counts["COUNTEREXAMPLE"], samples, p)


# The sweeps below draw log-uniform zeros, as the benchmark's sweeps do.  A wrong log base
# or swapped bounds in the draw would move these counts; no digest would show it.


def test_squeeze_degree_two_log_uniform():
    lo, hi, samples = 0.05, 10.0, 4000
    counts = _sweep_counts("squeeze", lo, hi, samples, seed=2027, kind="log-uniform")
    p = _log_uniform_pair_probability(lambda big: big - 2.0, lo, hi)  # about 0.415
    _assert_binomial(counts["COUNTEREXAMPLE"], samples, p)


def test_perm_sum_bound_degree_two_log_uniform():
    # the conclusion fails iff log M - log m >= g = -log(1 - 1.01 sqrt(2 pi) / e), and the
    # gap of two uniforms on an interval of length L = log(hi / lo) is at least g with
    # probability (1 - g / L)^2
    lo, hi, samples = 0.01, 15.0, 4000
    g = -math.log(1.0 - 1.01 * math.sqrt(2.0 * math.pi) / math.e)
    counts = _sweep_counts("perm_sum_bound", lo, hi, samples, seed=2027, kind="log-uniform")
    p = (1.0 - g / math.log(hi / lo)) ** 2  # about 0.402
    _assert_binomial(counts["COUNTEREXAMPLE"], samples, p)


def test_basic_inequality_degree_two_log_uniform():
    # the region of test_basic_inequality_degree_two_uniform: m <= 2 - (1.01 S_2 - 1) M
    lo, hi, samples = 0.05, 5.0, 4000
    s_2 = math.sqrt(2.0 * math.pi) * (math.exp(-1.0) + math.exp(-2.0) * 2.0**2.5)
    slope = 1.01 * s_2 - 1.0
    counts = _sweep_counts("basic_inequality", lo, hi, samples, seed=2027, kind="log-uniform")
    p = _log_uniform_pair_probability(lambda big: 2.0 - slope * big, lo, hi)  # about 0.400
    _assert_binomial(counts["COUNTEREXAMPLE"], samples, p)


def test_index_bound_degree_two_has_no_counterexample():
    # about m, P = y (y - (M - m)) with y = x - m: the one coefficient checked is fl(M - m),
    # which is at most M for 0 < m <= M, so the margin M - fl(M - m) is never negative and
    # the failure region is empty, on every draw
    for kind, lo, hi in [("uniform", 0.05, 4.05), ("log-uniform", 0.001, 1000.0), ("uniform", 1e-12, 1.0)]:
        config = SearchConfig(claim_id="index_bound", degree_min=2, degree_max=2, samples=4000, seed=7,
                              distribution=f"{kind}:{lo},{hi}")
        report = run_search(config)
        assert report.counts["COUNTEREXAMPLE"] == 0
        assert report.counts["CONFIRMED"] == 4000
        # buckets 0-3 hold the margins below 0
        assert report.margin_histograms[2][:MARGIN_BIN_EDGES.index(0.0) + 1] == [0, 0, 0, 0]


def test_real_case_degree_two_uniform():
    # H1 is M < 1.  About m, P = y (y - (M - m)), so H2 reads |(M - m) - 1| < 2 band.  The one
    # critical point is (M - m) / 2 from m, below 1 whenever H1 holds, so no sample is a
    # COUNTEREXAMPLE and one is CONFIRMED iff M < 1 and M - m > 1 - 2 band.  Both zeros below 1
    # are uniform on [lo, 1), where the gap exceeds g >= 0 with probability (1 - g / (1 - lo))^2.
    lo, hi, samples = 0.05, 2.0, 4000
    both_below_one = ((1.0 - lo) / (hi - lo)) ** 2
    for band in (0.25, 1.0):  # g = 0.5: about 213 CONFIRMED; g < 0, every M < 1: about 949
        counts = _counts("real_case", f"uniform:{lo},{hi}", samples, seed=2028, index_band=band)
        assert counts["COUNTEREXAMPLE"] == 0
        p = both_below_one * _uniform_gap_at_least(max(1.0 - 2.0 * band, 0.0), lo, 1.0)
        _assert_binomial(counts["CONFIRMED"], samples, p)


def test_squeeze_degree_two_fixed_eps():
    # eps = E for every sample, so the hypothesis M < E fails on some; the conclusion
    # (M - m) / 2 < delta fails iff M - m > 2 delta.  Both zeros below E are uniform on
    # [lo, E): COUNTEREXAMPLE about 1000 of 4000, CONFIRMED about 2062, the rest not met.
    lo, hi, samples, big_e, delta = 0.05, 4.05, 4000, 3.55, 0.75
    counts = _counts("squeeze", f"uniform:{lo},{hi}", samples, seed=2028,
                     epsilon_policy=f"fixed:{big_e}", delta=delta)
    both_below_e = ((big_e - lo) / (hi - lo)) ** 2
    failing = both_below_e * _uniform_gap_at_least(2.0 * delta, lo, big_e)
    _assert_binomial(counts["COUNTEREXAMPLE"], samples, failing)
    _assert_binomial(counts["CONFIRMED"], samples, both_below_e - failing)
    _assert_binomial(counts["HYPOTHESES_NOT_MET"], samples, 1.0 - both_below_e)


# The two sweeps below fix eps = E for every sample: the hypothesis M < E fails on some, and
# a sample is a COUNTEREXAMPLE iff M < E and the conclusion fails.  Both zeros below E is
# P(M < E); the pair probabilities take upper(M) as empty (0) from M = E up.


def _assert_fixed_eps_counts(counts, samples, lo, hi, big_e, upper) -> None:
    below_e = (math.log(big_e / lo) / math.log(hi / lo)) ** 2
    failing = _log_uniform_pair_probability(
        lambda big: np.where(big < big_e, upper(big), 0.0), lo, hi
    )
    _assert_binomial(counts["COUNTEREXAMPLE"], samples, failing)
    _assert_binomial(counts["CONFIRMED"], samples, below_e - failing)
    _assert_binomial(counts["HYPOTHESES_NOT_MET"], samples, 1.0 - below_e)


def test_basic_inequality_degree_two_fixed_eps():
    # the conclusion fails iff (M - m) + 2 >= E S_2, that is iff m <= M + 2 - E S_2:
    # about 66 COUNTEREXAMPLE and 1750 HYPOTHESES_NOT_MET of 4000
    lo, hi, samples, big_e = 0.001, 10.0, 4000, 1.0
    s_2 = math.sqrt(2.0 * math.pi) * (math.exp(-1.0) + math.exp(-2.0) * 2.0**2.5)
    counts = _counts("basic_inequality", f"log-uniform:{lo},{hi}", samples, seed=2029,
                     epsilon_policy=f"fixed:{big_e}")
    _assert_fixed_eps_counts(counts, samples, lo, hi, big_e, lambda big: big + 2.0 - big_e * s_2)


def test_perm_sum_bound_degree_two_fixed_eps():
    # |P'(m)| = M - m against E sqrt(2 pi) / e: the conclusion fails iff
    # m <= M - E sqrt(2 pi) / e; about 26 COUNTEREXAMPLE and 1750 HYPOTHESES_NOT_MET of 4000
    lo, hi, samples, big_e = 0.001, 10.0, 4000, 1.0
    gap = big_e * math.sqrt(2.0 * math.pi) / math.e
    counts = _counts("perm_sum_bound", f"log-uniform:{lo},{hi}", samples, seed=2029,
                     epsilon_policy=f"fixed:{big_e}")
    _assert_fixed_eps_counts(counts, samples, lo, hi, big_e, lambda big: big - gap)


def test_deriv_sum_bound_degree_two_fixed_eps():
    # basic_inequality's region under eps = E: the conclusion fails iff m <= M + 2 - E S_2;
    # about 243 COUNTEREXAMPLE and 1903 HYPOTHESES_NOT_MET of 4000
    lo, hi, samples, big_e = 0.01, 5.0, 4000, 0.9
    s_2 = math.sqrt(2.0 * math.pi) * (math.exp(-1.0) + math.exp(-2.0) * 2.0**2.5)
    counts = _counts("deriv_sum_bound", f"log-uniform:{lo},{hi}", samples, seed=2036,
                     epsilon_policy=f"fixed:{big_e}")
    _assert_fixed_eps_counts(counts, samples, lo, hi, big_e, lambda big: big + 2.0 - big_e * s_2)
