import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from limpoly import (
    DEFAULT_TOL,
    Classification,
    RootDomainError,
    RootMultiset,
    check_product_proposition,
    conjugate_roots,
    is_epsilon_limited,
    measure,
    rescale_roots,
)


def test_measure_examples():
    assert measure([1, 2]) == 2
    assert measure([1j, -1j]) == 1
    assert measure([0.001, 0.001, 500]) == pytest.approx(0.0005, rel=1e-12)


def test_measure_zero_root():
    assert measure([0, 123.0, 4 + 5j]) == 0.0


def test_measure_log_domain_extremes():
    # intermediate products far outside double range stay exact in
    # mantissa/exponent form; only the final product has to fit
    assert measure([1e300, 1e-300]) == pytest.approx(1.0, rel=1e-10)
    big = [2.0] * 64
    assert measure(big) == pytest.approx(2.0**64, rel=1e-10)
    assert abs(measure([1e200, 1e200, 1e-300]) - 1e100) <= 4 * math.ulp(1e100)


@pytest.mark.parametrize(
    "roots, index",
    [([math.inf], 0), ([math.nan, 1.0], 0), ([0.0, math.inf], 1),
     ([2.0, 1e-300, complex(1, math.nan)], 2)],
)
@pytest.mark.parametrize("wrap", [list, tuple, iter])
def test_measure_rejects_non_finite_roots_as_root_multiset_does(roots, index, wrap):
    # measure builds no RootMultiset, but rejects what it would reject, naming the first bad root
    with pytest.raises(RootDomainError, match="finite") as info:
        measure(wrap(roots))
    assert info.value.index == index
    assert repr(info.value.root) == repr(complex(roots[index]))
    with pytest.raises(RootDomainError) as built:
        RootMultiset(roots)
    assert str(built.value) == str(info.value)


@pytest.mark.parametrize("empty", [[], (), iter([])])
def test_measure_of_no_roots_is_a_value_error(empty):
    with pytest.raises(ValueError, match="at least one root"):
        measure(empty)


def test_is_epsilon_limited_strict():
    assert is_epsilon_limited([0.5, 0.5], 1).is_limited
    boundary = is_epsilon_limited([1, 2], 2)
    assert not boundary.is_limited  # 2 < 2 is false: strict comparison
    removed_min = is_epsilon_limited([0.001, 500], 1)
    assert removed_min.is_limited and removed_min.measure == pytest.approx(0.5)
    with pytest.raises(ValueError):
        is_epsilon_limited([1], 0)
    with pytest.raises(ValueError):
        is_epsilon_limited([1], -1)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError):
            is_epsilon_limited([1], bad)


def test_conjugate_roots():
    rs = conjugate_roots([1j, 2])
    assert rs.roots == (-1j, 2)
    assert measure(rs) == measure([1j, 2])
    real = conjugate_roots([1.5, -2.0])
    assert real.roots == (1.5, -2.0)
    pair = conjugate_roots([1 + 1j])
    assert pair.roots == (1 - 1j,)
    assert measure(pair) == measure([1 + 1j])


def test_rescale_roots():
    assert rescale_roots([2, 2], [2, 2]).roots == (1, 1)
    assert rescale_roots([6], [3]).roots == (2,)
    rotated = rescale_roots([1 + 1j], [1j])
    assert rotated.roots[0] == pytest.approx(1 - 1j)
    assert measure(rotated) == pytest.approx(measure([1 + 1j]), rel=1e-12)
    with pytest.raises(ValueError):
        rescale_roots([1, 2], [1])
    with pytest.raises(ValueError):
        rescale_roots([1], [0])


def test_product_proposition_examples():
    # shared root value, so the disjointness hypothesis cannot be met,
    # but the product conclusion 0.25 < 1 still holds
    held = check_product_proposition([0.5], [0.5], 1, 1)
    assert held.conclusion.holds
    assert held.details["product_measure"] == pytest.approx(0.25)

    wide = check_product_proposition([2], [3], 3, 4)
    assert wide.classification is Classification.CONFIRMED
    assert wide.conclusion.holds  # 6 < 12
    assert wide.details["product_measure"] == pytest.approx(6)

    shared = check_product_proposition([1], [1], 2, 2)
    assert shared.classification is Classification.HYPOTHESES_NOT_MET
    names = {h.name: h.met for h in shared.hypotheses}
    assert not names["zero-sets-disjoint"]
    details = shared.details  # the measures are reported whatever the verdict
    product = details["first_measure"] * details["second_measure"]
    assert DEFAULT_TOL.close(details["product_measure"], product)


def test_product_measure_is_the_product_of_the_measures():
    rng = np.random.default_rng(22)
    for _ in range(300):
        n, k = rng.integers(1, 9, size=2)
        p = (2 * np.sqrt(rng.uniform(0, 1, n)) * np.exp(2j * np.pi * rng.uniform(0, 1, n))).tolist()
        q = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), k)).tolist()
        details = check_product_proposition(p, q, 1.0, 1.0).details
        product = details["first_measure"] * details["second_measure"]
        assert DEFAULT_TOL.close(details["product_measure"], product), (p, q)


def test_product_proposition_rejects_bad_bounds():
    with pytest.raises(ValueError):
        check_product_proposition([1], [2], 0, 1)
    with pytest.raises(ValueError):
        check_product_proposition([1], [2], math.inf, 1)
    with pytest.raises(ValueError):
        check_product_proposition([1], [2], 1, math.nan)


nonzero_complex = st.complex_numbers(
    min_magnitude=1e-4, max_magnitude=1e4, allow_nan=False, allow_infinity=False
)


@seed(20240821)
@settings(max_examples=80, deadline=None)
@given(
    first=st.lists(nonzero_complex, min_size=1, max_size=14),
    second=st.lists(nonzero_complex, min_size=1, max_size=14),
)
def test_multiplicativity_property(first, second):
    combined = measure(first + second)
    split = measure(first) * measure(second)
    assert combined == pytest.approx(split, rel=1e-12, abs=1e-300)


@seed(20240822)
@settings(max_examples=80, deadline=None)
@given(roots=st.lists(nonzero_complex, min_size=1, max_size=25))
def test_conjugation_exact_property(roots):
    assert measure(conjugate_roots(roots)) == measure(roots)


@seed(20240823)
@settings(max_examples=80, deadline=None)
@given(
    roots=st.lists(nonzero_complex, min_size=1, max_size=10),
    scales=st.lists(nonzero_complex, min_size=10, max_size=10),
)
def test_rescaling_property(roots, scales):
    scales = scales[: len(roots)]
    if len(scales) < len(roots):
        return
    rescaled = rescale_roots(roots, scales)
    lam_product = math.prod(abs(s) for s in scales)
    assert measure(rescaled) * lam_product == pytest.approx(measure(roots), rel=1e-10)


def test_strictness_on_own_measure():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(1, 8))
        roots = rng.uniform(0.1, 3.0, n)
        rs = RootMultiset(tuple(complex(v) for v in roots))
        assert not is_epsilon_limited(rs, measure(rs)).is_limited
