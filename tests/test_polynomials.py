import math

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from limpoly import (
    MonicPolynomial,
    RootDomainError,
    RootMultiset,
    Tolerance,
    derivative,
    derivative_at_order,
    evaluate,
    evaluation_scale,
    from_roots,
    permutation_sum_derivative,
    taylor_shift,
)


def test_from_roots_two():
    assert from_roots([1, 2]).coeffs == (2, -3, 1)


def test_from_roots_single_zero():
    assert from_roots([0]).coeffs == (0, 1)


def test_from_roots_three():
    # hand expansion of (x-1)(x-2)(x-3)
    assert from_roots([1, 2, 3]).coeffs == (-6, 11, -6, 1)


def test_from_roots_keeps_roots():
    p = from_roots([1, 2])
    assert p.roots == RootMultiset((1, 2))
    assert p.degree == 2


def test_evaluate_at_root_and_constant():
    p = from_roots([1, 2])
    assert evaluate(p, 1) == 0
    assert evaluate(p, 0) == 2


def test_evaluate_product_form():
    p = from_roots([1, 2, 3])
    assert evaluate(p, 4) == (4 - 1) * (4 - 2) * (4 - 3)


def test_derivative_examples():
    assert derivative(from_roots([1, 2])) == (-3, 2)
    assert derivative(from_roots([1, 2, 3])) == (11, -12, 3)
    assert derivative(from_roots([0])) == (1,)


def test_derivative_at_order_examples():
    p = from_roots([1, 2, 3])
    assert derivative_at_order(p, 1, 1) == 2
    assert derivative_at_order(p, 2, 1) == -6
    assert derivative_at_order(p, 3, 1) == 6  # 3! times the leading 1


def test_derivative_at_order_edges():
    p = from_roots([1, 2, 3])
    assert derivative_at_order(p, 4, 1) == 0
    assert derivative_at_order(p, 0, 4) == evaluate(p, 4)
    with pytest.raises(ValueError):
        derivative_at_order(p, -1, 0)


def test_taylor_shift_examples():
    p = from_roots([1, 2, 3])
    assert taylor_shift(p, 1) == (0, 2, -3, 1)
    assert taylor_shift(p, 0) == p.coeffs

    small = from_roots([0.1, 0.2, 0.3])
    shifted = taylor_shift(small, 0.1)
    expected = (0.0, 0.02, -0.3, 1.0)  # y (y - 0.1) (y - 0.2)
    for got, want in zip(shifted, expected):
        assert got.imag == 0
        assert got.real == pytest.approx(want, abs=1e-15)


def test_permutation_sum_examples():
    assert permutation_sum_derivative([1, 2, 3], 1) == (1 - 2) * (1 - 3)
    assert permutation_sum_derivative([1, 2], 2) == 1
    assert permutation_sum_derivative([2.5, 2.5], 2.5) == 0


def test_permutation_sum_needs_two_roots():
    with pytest.raises(ValueError):
        permutation_sum_derivative([1], 0)


def test_monic_validation():
    with pytest.raises(ValueError):
        MonicPolynomial((1, 2))  # leading coefficient 2
    with pytest.raises(ValueError):
        MonicPolynomial((1,))  # degree 0


def test_root_multiset_validation():
    with pytest.raises(ValueError):
        RootMultiset(())
    rs = RootMultiset([1 + 2j, 3])
    assert rs.n == 2
    assert rs.moduli() == (abs(1 + 2j), 3.0)
    with pytest.raises(RootDomainError):
        rs.positive_reals()
    with pytest.raises(RootDomainError):
        RootMultiset([1, -2]).positive_reals()


@pytest.mark.parametrize(
    "bad", [math.nan, math.inf, -math.inf, complex(1, math.inf), complex(math.nan, 0)]
)
def test_root_multiset_rejects_non_finite_zeros(bad):
    with pytest.raises(RootDomainError) as info:
        RootMultiset([1, 2, bad, 3])
    assert info.value.index == 2
    assert info.value.requirement == "finite"


def test_tolerance_combined_form():
    tol = Tolerance(abs=1e-3, rel=1e-2)
    assert tol.close(100.0, 100.9)
    assert not tol.close(100.0, 102.0)


complex_roots = st.complex_numbers(
    min_magnitude=1e-3, max_magnitude=1e3, allow_nan=False, allow_infinity=False
)


@seed(20240817)
@settings(max_examples=60, deadline=None)
@given(
    roots=st.lists(complex_roots, min_size=2, max_size=12),
    center=complex_roots,
    probe=complex_roots,
)
def test_shift_identity_property(roots, center, probe):
    p = from_roots(roots)
    shifted = taylor_shift(p, center)
    direct = evaluate(p, probe)
    recomposed = sum(t * (probe - center) ** k for k, t in enumerate(shifted))
    scale = max(
        evaluation_scale(p.coeffs, probe),
        evaluation_scale(shifted, probe - center),
    )
    assert abs(direct - recomposed) <= 1e-9 * scale


@seed(20240818)
@settings(max_examples=60, deadline=None)
@given(
    roots=st.lists(
        st.floats(min_value=0.05, max_value=20.0, allow_nan=False), min_size=2, max_size=10
    ),
    order=st.integers(min_value=1, max_value=10),
)
def test_derivative_equals_shift_coefficient(roots, order):
    # s-th derivative at c equals s! times the s-th shift coefficient at c
    order = min(order, len(roots))
    p = from_roots(roots)
    center = min(roots)
    shifted = taylor_shift(p, center)
    lhs = derivative_at_order(p, order, center)
    rhs = math.factorial(order) * shifted[order]
    # repeated centers drive both sides to zero, so the comparison keeps an
    # absolute floor at the roundoff scale of the shifted coefficients
    floor = 1e-12 * math.factorial(order) * max(1.0, max(abs(t) for t in shifted))
    assert abs(lhs - rhs) <= max(1e-8 * max(abs(lhs), abs(rhs)), floor)


@seed(20240819)
@settings(max_examples=60, deadline=None)
@given(
    roots=st.lists(complex_roots, min_size=2, max_size=12),
    probe=complex_roots,
)
def test_permutation_sum_matches_derivative(roots, probe):
    p = from_roots(roots)
    d = derivative(p)
    direct = sum(c * probe**k for k, c in enumerate(d))
    via_products = permutation_sum_derivative(roots, probe)
    scale = max(evaluation_scale(d, probe), abs(direct), 1.0)
    assert abs(direct - via_products) <= 1e-9 * scale


@seed(20240820)
@settings(max_examples=60, deadline=None)
@given(roots=st.lists(complex_roots, min_size=1, max_size=12))
def test_root_residual_scaled(roots):
    p = from_roots(roots)
    for a in roots:
        residual = abs(evaluate(p, a))
        assert residual <= 1e-9 * evaluation_scale(p.coeffs, a)
