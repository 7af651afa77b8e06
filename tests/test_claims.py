import math

import mpmath
import numpy as np
import pytest

from limpoly import (
    ClaimId,
    Classification,
    check_basic_inequality,
    check_deriv_sum_bound,
    check_index_bound,
    check_perm_sum_bound,
    check_real_case,
    check_squeeze,
    derivative_at_order,
    factorial_sum,
    from_roots,
    local_expansion_min,
    run_claim,
    stirling_bound_compare,
    stirling_sum,
)


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
    assert verdict.details["max_distance"] == pytest.approx(333.3327, abs=1e-3)


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
    assert verdict.details["max_distance"] == pytest.approx(0.5, abs=1e-12)


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


# ---------------------------------------------------------------------------
# BASIC_INEQUALITY


def test_basic_inequality_cubic():
    verdict = check_basic_inequality([1, 2, 3], eps=7)
    assert verdict.details["derivative_sum"] == pytest.approx(14.0, rel=1e-12)
    assert verdict.details["weighted_coeff_sum"] == pytest.approx(14.0, rel=1e-12)
    assert verdict.details["identity_rel_err"] <= 1e-12
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


def test_basic_inequality_chain_flags():
    verdict = check_basic_inequality([1, 2, 3], eps=7)
    # the exponential form underestimates the factorial sum for every n
    assert not verdict.details["chain_factorial_below_exponential"]
    assert verdict.details["chain_weighted_below_factorial"]


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


# ---------------------------------------------------------------------------
# PERM_SUM_BOUND


def test_perm_sum_small_roots():
    verdict = check_perm_sum_bound([0.1, 0.2, 0.3], eps=1)
    assert verdict.details["attained"] == pytest.approx(0.02, rel=1e-12)
    assert verdict.details["bound"] == pytest.approx(math.sqrt(2 * math.pi) / math.e, rel=1e-12)
    assert verdict.classification is Classification.CONFIRMED
    assert verdict.details["product_identity_rel_err"] <= 1e-12


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


# ---------------------------------------------------------------------------
# INDEX_BOUND as a claim


def test_index_bound_claim():
    good = check_index_bound([1, 2, 3])
    assert good.classification is Classification.CONFIRMED
    bad = check_index_bound([0.1, 0.2, 0.3])
    assert bad.classification is Classification.COUNTEREXAMPLE
    assert bad.details["violating_orders"] == [2]
    # the coefficient 1e400 overflows: an error, not a CONFIRMED with margin -inf
    with pytest.raises(OverflowError, match="double range"):
        check_index_bound([1e-300, 1e200, 1e200, 1e-100])


def test_index_bound_claim_singleton_vacuous():
    verdict = check_index_bound([0.4])
    assert verdict.classification is Classification.CONFIRMED
    assert verdict.details["vacuous"]


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
