import math

import mpmath
import numpy as np
import pytest

from limpoly import (
    ClaimId,
    Classification,
    RootDomainError,
    RootMultiset,
    SearchConfig,
    check_basic_inequality,
    check_deriv_sum_bound,
    check_index_bound,
    check_perm_sum_bound,
    check_real_case,
    check_squeeze,
    claims,
    critical,
    derivative_at_order,
    factorial_sum,
    from_roots,
    higher_derivative_zeros,
    local_expansion_min,
    permutation_sum_derivative,
    run_claim,
    run_search,
    stirling_bound_compare,
    stirling_sum,
)
from limpoly.search import _parse_policy, _resolve_eps, generate_roots
from limpoly.verdicts import classify, conclusion_check, hypothesis_check


def _mp_stirling_sum(n: int) -> float:
    # independent high-precision evaluation of the exponential-form bound
    with mpmath.workdps(50):
        total = mpmath.fsum(
            mpmath.e ** (-k) * mpmath.mpf(k) ** (k + mpmath.mpf(1) / 2)
            for k in range(1, n + 1)
        )
        return float(mpmath.sqrt(2 * mpmath.pi) * total)


# ---------------------------------------------------------------------------
# REAL_CASE


def test_real_case_double_tiny_root():
    verdict = check_real_case([0.001, 0.001, 500])
    by_name = {h.name: h for h in verdict.hypotheses}
    assert by_name["quotient-one-limited"].met  # 0.001 * 500 = 0.5 < 1
    assert not by_name["index-pattern"].met  # first coefficient is 0, not 1
    assert verdict.classification is Classification.HYPOTHESES_NOT_MET
    assert max(verdict.details["critical_distances"]) == pytest.approx(333.3327, abs=1e-3)


def test_real_case_small_roots():
    verdict = check_real_case([0.1, 0.2, 0.3])
    by_name = {h.name: h for h in verdict.hypotheses}
    assert by_name["quotient-one-limited"].met  # 0.06 < 1
    assert not by_name["index-pattern"].met  # |coeff_1| = 0.02, not 1
    assert verdict.classification is Classification.HYPOTHESES_NOT_MET
    assert verdict.conclusion.holds  # all critical points inside [0.1, 0.3]


def test_real_case_large_roots():
    verdict = check_real_case([2, 3])
    by_name = {h.name: h for h in verdict.hypotheses}
    assert not by_name["quotient-one-limited"].met  # 3 >= 1
    assert verdict.classification is Classification.HYPOTHESES_NOT_MET


def test_real_case_index_pattern_can_be_met():
    # gaps of exactly 1 give |coeff_1| = 1 = 1/1 for the quadratic
    verdict = check_real_case([0.4, 1.4])
    by_name = {h.name: h for h in verdict.hypotheses}
    assert by_name["index-pattern"].met
    assert not by_name["quotient-one-limited"].met  # 1.4 >= 1
    assert verdict.details["critical_distances"] == [pytest.approx(0.5, abs=1e-12)]


def test_real_case_relaxed_band():
    strict = check_real_case([0.4, 1.41])
    relaxed = check_real_case([0.4, 1.41], index_band=0.05)
    strict_names = {h.name: h.met for h in strict.hypotheses}
    relaxed_names = {h.name: h.met for h in relaxed.hypotheses}
    assert not strict_names["index-pattern"]
    assert relaxed_names["index-pattern"]


def test_real_case_rejects_bad_inputs():
    with pytest.raises(ValueError):
        check_real_case([0.5])  # n >= 2 required
    with pytest.raises(ValueError):
        check_real_case([1, -1])
    for band in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError, match="index_band must be nonnegative and finite"):
            check_real_case([1, 2, 3], index_band=band)


# ---------------------------------------------------------------------------
# BASIC_INEQUALITY


def test_basic_inequality_cubic():
    verdict = check_basic_inequality([1, 2, 3], eps=7)
    assert verdict.details["derivative_sum"] == pytest.approx(14.0, rel=1e-12)
    assert verdict.details["weighted_coeff_sum"] == pytest.approx(14.0, rel=1e-12)
    assert verdict.details["exponential_bound"] == pytest.approx(7 * _mp_stirling_sum(3), rel=1e-12)
    assert verdict.hypotheses[0].met  # 6 < 7
    assert verdict.classification is Classification.CONFIRMED


def test_basic_inequality_double_root():
    verdict = check_basic_inequality([1.5, 1.5], eps=3)
    # expansion is y^2: derivative sum is 0 * 1! + 1 * 2! = 2
    assert verdict.details["derivative_sum"] == pytest.approx(2.0, rel=1e-12)
    assert verdict.details["exponential_bound"] == pytest.approx(3 * _mp_stirling_sum(2), rel=1e-12)
    assert verdict.classification is Classification.CONFIRMED


def test_basic_inequality_rejects_singleton():
    with pytest.raises(ValueError):
        check_basic_inequality([0.5], eps=1)
    with pytest.raises(ValueError):
        check_basic_inequality([1, 2], eps=0)


def test_a_check_with_a_side_out_of_double_range_raises():
    # eps * stirling_sum(3) overflows: a margin of inf would read as "holds"
    with pytest.raises(OverflowError, match="double range"):
        check_basic_inequality([1, 2, 3], eps=1e308)
    for attained, bound in ((1.0, math.inf), (math.inf, math.inf), (math.nan, 1.0)):
        with pytest.raises(OverflowError):
            conclusion_check(attained, bound)
        with pytest.raises(OverflowError):
            hypothesis_check("h", attained, bound)


def test_a_checks_noise_boundary_is_one_absolute_and_one_relative_part():
    for attained, bound in ((100.9, 100.0), (-3.0, 2.5), (0.0, 0.0), (1e-12, -1e-12)):
        boundary = 1e-10 + 1e-9 * max(abs(attained), abs(bound))
        assert conclusion_check(attained, bound).boundary == boundary
        assert hypothesis_check("h", attained, bound).boundary == boundary
    # a conclusion failing within the boundary (about 1.0e-7 here) is a tie, beyond it a failure
    met = (hypothesis_check("h", 0.0, 1.0),)
    assert classify(met, conclusion_check(100.0 + 0.9e-7, 100.0)) is Classification.CONFIRMED
    assert classify(met, conclusion_check(100.0 + 2e-7, 100.0)) is Classification.COUNTEREXAMPLE


def test_basic_inequality_chain_flags():
    details = check_basic_inequality([1, 2, 3], eps=7).details
    # the exponential form underestimates the factorial sum for every n
    assert details["exponential_bound"] < details["factorial_bound"]
    assert details["weighted_coeff_sum"] < details["factorial_bound"]


@pytest.mark.parametrize("draw", ["log-uniform", "uniform"])
def test_derivative_sum_equals_weighted_coeff_sum(draw):
    # the two reported forms of one sum: Horner on P's coefficients, and k! |t_k| of the expansion
    rng = np.random.default_rng(22)
    for _ in range(200):
        n = int(rng.integers(2, 41))
        if draw == "log-uniform":
            roots = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), n)).tolist()
        else:
            roots = rng.uniform(0.05, 4.0, n).tolist()
        details = check_basic_inequality(roots, eps=1.0).details
        lhs, rhs = details["derivative_sum"], details["weighted_coeff_sum"]
        assert abs(lhs - rhs) <= 1e-12 * max(lhs, rhs), (roots, lhs, rhs)


@pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
def test_permutation_sum_at_the_least_zero_is_the_product_of_its_gaps(scale):
    # check_perm_sum_bound reports |P'(c)| from this sum; relative, so a wrong value shows at every scale
    rng = np.random.default_rng(22)
    for _ in range(200):
        n = int(rng.integers(2, 21))
        values = (scale * np.exp(rng.uniform(math.log(1e-3), math.log(1e3), n))).tolist()
        least = min(values)
        direct = math.prod(least - v for v in values if v != least)
        value = permutation_sum_derivative(values, least)
        assert abs(value - direct) <= 1e-12 * abs(direct), (values, value, direct)


def test_proof_identity_on_random_instances():
    rng = np.random.default_rng(31)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        roots = tuple(rng.uniform(0.2, 4.0, n))
        poly = from_roots(roots)
        center = min(roots)
        exp = local_expansion_min(roots)
        lhs = math.fsum(
            abs(derivative_at_order(poly, s, center)) for s in range(1, n + 1)
        )
        rhs = math.fsum(
            math.factorial(k) * abs(exp.coeffs[k - 1]) for k in range(1, n + 1)
        )
        assert abs(lhs - rhs) <= 1e-8 * max(lhs, rhs, 1e-12)


# ---------------------------------------------------------------------------
# stirling comparison


def test_stirling_bound_values():
    one = stirling_bound_compare(1)
    assert one.factorial_sum == 1.0
    assert one.stirling_sum == pytest.approx(0.92214, abs=1e-4)
    two = stirling_bound_compare(2)
    assert two.factorial_sum == 3.0
    assert two.stirling_sum == pytest.approx(2.84116, abs=1e-4)


def test_stirling_direction_everywhere():
    for n in range(1, 121):
        cmp = stirling_bound_compare(n)
        assert cmp.stirling_below_factorial
        assert cmp.stirling_sum == pytest.approx(_mp_stirling_sum(n), rel=1e-12)


def test_stirling_range_policy():
    with pytest.raises(ValueError):
        stirling_sum(0)
    with pytest.raises(ValueError):
        stirling_sum(121)
    with pytest.raises(ValueError):
        factorial_sum(0)


def test_sums_monotone_in_n():
    previous_f, previous_s = 0.0, 0.0
    for n in range(1, 40):
        cmp = stirling_bound_compare(n)
        assert cmp.factorial_sum > previous_f
        assert cmp.stirling_sum > previous_s
        previous_f, previous_s = cmp.factorial_sum, cmp.stirling_sum


# ---------------------------------------------------------------------------
# SQUEEZE


def test_squeeze_equal_roots_confirm():
    verdict = check_squeeze([2.5, 2.5, 2.5, 2.5], eps=1000, delta=1e-6)
    assert verdict.classification is Classification.CONFIRMED
    assert verdict.details["max_distance"] <= 1e-9


def test_squeeze_counterexample_instance():
    verdict = check_squeeze([0.001, 0.001, 500], eps=1, delta=1)
    assert verdict.hypotheses[0].met
    assert verdict.classification is Classification.COUNTEREXAMPLE
    assert verdict.details["max_distance"] == pytest.approx(333.3327, abs=1e-3)


def test_squeeze_near_the_top_of_double_range():
    # the critical point lies between the zeros, so the conclusion margin stays finite
    verdict = check_squeeze([1e308, 1.5e308], eps=1.6e308, delta=1)
    assert verdict.classification is Classification.COUNTEREXAMPLE
    assert verdict.conclusion.margin == pytest.approx(-2.5e307)


def test_squeeze_confirmed_small_roots():
    verdict = check_squeeze([0.1, 0.2, 0.3], eps=1, delta=0.2001)
    assert verdict.classification is Classification.CONFIRMED
    assert verdict.details["max_distance"] <= 0.2


def test_squeeze_boundary_is_not_counterexample():
    base = check_squeeze([0.1, 0.2, 0.3], eps=1, delta=1)
    exact = base.details["max_distance"]
    at_boundary = check_squeeze([0.1, 0.2, 0.3], eps=1, delta=exact)
    assert at_boundary.classification is Classification.CONFIRMED
    clearly_below = check_squeeze([0.1, 0.2, 0.3], eps=1, delta=exact / 2)
    assert clearly_below.classification is Classification.COUNTEREXAMPLE


def _squeeze_walk_cases():
    rng = np.random.default_rng(23)
    drawn = [
        [float(x) for x in np.exp(rng.uniform(math.log(1e-3), math.log(1e3), n))]
        for n in range(2, 21)
    ]
    repeated = [[0.5, 0.5, 0.5, 2.0, 7.0, 7.0], drawn[10][:1] * 3 + drawn[10][3:]]
    known = [[2.5, 2.5, 2.5, 2.5], [0.001, 0.001, 500], [1e308, 1.5e308], [0.1, 0.2, 0.3]]
    return drawn + repeated + known


@pytest.mark.parametrize("roots", _squeeze_walk_cases())
def test_squeeze_walk_matches_per_order_zeros(roots):
    center = min(roots)
    p = from_roots(roots)
    expected = [
        max(abs(center - b) for b in higher_derivative_zeros(p, k).points)
        for k in range(1, len(roots))
    ]
    assert check_squeeze(roots, eps=1, delta=1).details["per_order_max"] == expected


def test_squeeze_walks_the_tower_once(monkeypatch):
    stages = []
    solve = critical._real_critical_points

    def counted(values):
        stages.append(len(values))
        return solve(values)

    monkeypatch.setattr(critical, "_real_critical_points", counted)
    monkeypatch.setattr(claims, "_real_critical_points", counted)
    for n in (2, 3, 8, 20):
        stages.clear()
        check_squeeze([0.1 * (i + 1) for i in range(n)], eps=1, delta=1)
        assert stages == list(range(n, 1, -1))


# ---------------------------------------------------------------------------
# PERM_SUM_BOUND


def test_perm_sum_small_roots():
    verdict = check_perm_sum_bound([0.1, 0.2, 0.3], eps=1)
    assert verdict.details["attained"] == pytest.approx(0.02, rel=1e-12)
    assert verdict.details["bound"] == pytest.approx(math.sqrt(2 * math.pi) / math.e, rel=1e-12)
    assert verdict.classification is Classification.CONFIRMED


def test_perm_sum_repeated_min_root():
    verdict = check_perm_sum_bound([0.5, 0.5, 2.0], eps=2)
    assert verdict.details["attained"] == 0.0
    assert verdict.classification is Classification.CONFIRMED


def test_perm_sum_pair():
    verdict = check_perm_sum_bound([2, 3], eps=10)
    assert verdict.details["attained"] == pytest.approx(1.0)
    assert verdict.classification is Classification.CONFIRMED


# ---------------------------------------------------------------------------
# DERIV_SUM_BOUND


def test_deriv_sum_cubic():
    verdict = check_deriv_sum_bound([1, 2, 3], eps=10)
    # P' = 3x^2 - 12x + 11 at 1: |2| + |-6| + |6|
    assert verdict.details["attained"] == pytest.approx(14.0, rel=1e-12)
    assert verdict.details["terms"] == [
        pytest.approx(2.0),
        pytest.approx(6.0),
        pytest.approx(6.0),
    ]
    assert verdict.details["bound"] == pytest.approx(10 * _mp_stirling_sum(3), rel=1e-12)


def test_deriv_sum_double_root():
    verdict = check_deriv_sum_bound([0.75, 0.75], eps=5)
    assert verdict.details["attained"] == pytest.approx(2.0, rel=1e-12)


def test_deriv_sum_huge_eps_confirms():
    verdict = check_deriv_sum_bound([1, 2, 3], eps=1e9)
    assert verdict.classification is Classification.CONFIRMED


def test_deriv_sum_bound_is_the_same_test_as_basic_inequality():
    # the s-th derivative of P' is the (s+1)-th of P, so the two claims check one sum
    # against one bound: the same verdict on every sample, and the same sweep report
    # counts (1,467 CONFIRMED and 1,533 COUNTEREXAMPLE here)
    configs = [
        SearchConfig(claim_id=claim, degree_min=2, degree_max=8, samples=3000, seed=2026,
                     distribution="log-uniform:0.001,1000")
        for claim in ("basic_inequality", "deriv_sum_bound")
    ]
    policy = _parse_policy(configs[0].epsilon_policy)
    samples = generate_roots(configs[0], 0, 3000)[0]
    assert samples == generate_roots(configs[1], 0, 3000)[0]
    for roots in map(RootMultiset, samples):
        eps = _resolve_eps(policy, roots, ClaimId.BASIC_INEQUALITY)
        basic, deriv = check_basic_inequality(roots, eps), check_deriv_sum_bound(roots, eps)
        assert deriv.classification is basic.classification
        assert (deriv.hypotheses, deriv.conclusion) == (basic.hypotheses, basic.conclusion)
        assert deriv.details["attained"] == basic.details["derivative_sum"]
        assert deriv.details["bound"] == basic.details["exponential_bound"]
    basic, deriv = (run_search(config) for config in configs)
    assert deriv.counts == basic.counts
    assert deriv.margin_histograms == basic.margin_histograms
    assert 0 < basic.counts["COUNTEREXAMPLE"] < 3000


# ---------------------------------------------------------------------------
# INDEX_BOUND as a claim


def test_index_bound_claim():
    good = check_index_bound([1, 2, 3])
    assert good.classification is Classification.CONFIRMED
    bad = check_index_bound([0.1, 0.2, 0.3])
    assert bad.classification is Classification.COUNTEREXAMPLE
    details = bad.details
    assert [k for k, m in enumerate(details["magnitudes"], 1) if m >= details["bound"]] == [2]
    # the coefficient 1e400 overflows: an error, not a CONFIRMED with margin -inf
    with pytest.raises(OverflowError, match="double range"):
        check_index_bound([1e-300, 1e200, 1e200, 1e-100])


def test_index_bound_claim_rejects_singleton():
    # no order to check: one zero is rejected as by every other claim, not confirmed at margin 0
    with pytest.raises(ValueError, match="claim needs at least 2 zeros, got 1"):
        check_index_bound([0.4])


# ---------------------------------------------------------------------------
# dispatcher


def test_run_claim_dispatch_and_validation():
    verdict = run_claim("squeeze", [0.001, 0.001, 500], eps=1, delta=1)
    assert verdict.claim_id is ClaimId.SQUEEZE
    with pytest.raises(ValueError):
        run_claim("squeeze", [1, 2], eps=1)  # delta missing
    with pytest.raises(ValueError):
        run_claim("basic_inequality", [1, 2])  # eps missing
    with pytest.raises(ValueError):
        run_claim("product_prop", [1, 2], eps=1, delta=1)  # second multiset missing
    verdict = run_claim("product_prop", [0.5], eps=1, delta=1, second_roots=[0.5])
    assert verdict.claim_id is ClaimId.PRODUCT_PROP


# The inputs each claim's statement needs beyond its zeros.
_CLAIM_INPUTS = {
    ClaimId.REAL_CASE: (),
    ClaimId.INDEX_BOUND: (),
    ClaimId.BASIC_INEQUALITY: ("eps",),
    ClaimId.SQUEEZE: ("eps", "delta"),
    ClaimId.PERM_SUM_BOUND: ("eps",),
    ClaimId.DERIV_SUM_BOUND: ("eps",),
    ClaimId.PRODUCT_PROP: ("eps", "delta", "second_roots"),
}


@pytest.mark.parametrize("cid", list(ClaimId), ids=[c.value for c in ClaimId])
def test_run_claim_asks_for_eps_exactly_for_the_claims_taking_it(cid):
    # and for delta and the second multiset exactly where the claim takes them
    given = {"eps": 1.0, "delta": 1.0, "second_roots": [0.5, 2.0]}
    assert run_claim(cid, [0.5, 2.0], **given).claim_id is cid
    for name in given:
        rest = {k: v for k, v in given.items() if k != name}
        if name in _CLAIM_INPUTS[cid]:
            with pytest.raises(ValueError, match=f"^{cid.value} needs {name}$"):
                run_claim(cid, [0.5, 2.0], **rest)
        else:
            assert run_claim(cid, [0.5, 2.0], **rest).claim_id is cid


@pytest.mark.parametrize("claim", ["index_bound", ClaimId.INDEX_BOUND])
@pytest.mark.parametrize("bad, index", [([1.0, 0.0, 2.0], 1), ([0.5, -3.0], 1), ([-1.0, 2.0], 0)])
def test_run_claim_rejects_a_non_positive_zero_as_a_root_domain_error(claim, bad, index):
    with pytest.raises(RootDomainError, match="positive real") as info:
        run_claim(claim, bad)
    assert info.value.index == index
    assert run_claim(claim, [1.0, 2.0]).claim_id is ClaimId.INDEX_BOUND


@pytest.mark.parametrize("claim", ["basic_inequality", "squeeze", "perm_sum_bound",
                                   "deriv_sum_bound", "product_prop"])
@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_run_claim_rejects_non_finite_bounds(claim, bad):
    kwargs = {"second_roots": [3.0]} if claim == "product_prop" else {}
    with pytest.raises(ValueError, match="finite"):
        run_claim(claim, [1.0, 2.0], eps=bad, delta=1.0, **kwargs)
    if claim in ("squeeze", "product_prop"):
        with pytest.raises(ValueError, match="finite"):
            run_claim(claim, [1.0, 2.0], eps=1.0, delta=bad, **kwargs)
