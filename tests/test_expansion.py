import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from limpoly import (
    RootDomainError,
    from_roots,
    index_bound_check,
    local_expansion_max_plus,
    local_expansion_min,
    min_pair_lemma,
    taylor_shift,
)
from oracles import elementary_symmetric, evaluation_scale, exact_poly_from_roots, product_value


def test_min_expansion_basic():
    exp = local_expansion_min([1, 2, 3])
    assert exp.center == 1
    assert exp.center_index == 0
    assert exp.sign == "minus"
    assert exp.coeffs == (2, -3, 1)  # y (y - 1) (y - 2)
    assert exp.residuals == (1, 2)


def test_min_expansion_singleton():
    exp = local_expansion_min([0.7])
    assert exp.center == 0.7
    assert exp.coeffs == (1.0,)
    assert exp.residuals == ()


def test_min_expansion_small_roots_exact_oracle():
    # y (y - 1/10) (y - 1/5) expanded over exact rationals
    exp = local_expansion_min([0.1, 0.2, 0.3])
    gaps = [Fraction(1, 10), Fraction(1, 5)]
    oracle = exact_poly_from_roots(gaps)  # s_1..s_3 of the shifted product
    for got, want in zip(exp.coeffs, oracle):
        assert got == pytest.approx(float(want), abs=1e-15)


def test_min_expansion_rejects_bad_roots():
    with pytest.raises(RootDomainError) as err:
        local_expansion_min([1, -2, 3])
    assert err.value.index == 1
    assert err.value.root == -2
    with pytest.raises(RootDomainError):
        local_expansion_min([1, 2 + 1j])


def test_min_expansion_tie_breaks_to_first_index():
    exp = local_expansion_min([2.0, 1.0, 1.0])
    assert exp.center_index == 1


def test_repeated_min_root_zeroes_low_coefficients():
    exp = local_expansion_min([0.5, 0.5, 0.5, 2.0])
    # triple center: the three lowest coefficients vanish exactly
    assert exp.coeffs[0] == 0.0
    assert exp.coeffs[1] == 0.0
    assert exp.coeffs[-1] == 1.0


def test_max_plus_expansion_examples():
    exp = local_expansion_max_plus([1, 2, 3])
    assert exp.center == 3
    assert exp.sign == "plus"
    assert exp.coeffs == (2, -3, 1)  # y (y - 2) (y - 1)

    double = local_expansion_max_plus([4.0, 4.0])
    assert double.coeffs == (0.0, 1.0)

    pair = local_expansion_max_plus([1, 4])
    assert pair.center == 4
    assert pair.coeffs == (-3, 1)


def test_max_plus_reconstructs_plus_product():
    values = [0.3, 1.1, 2.7]
    exp = local_expansion_max_plus(values)
    for x in (-3.0, -0.4, 0.0, 0.9, 2.2):
        direct = product_value([-v for v in values], x).real  # prod (x + a_i)
        y = x + exp.center
        series = sum(c * y**k for k, c in enumerate(exp.coeffs, start=1))
        assert direct == pytest.approx(series, rel=1e-10, abs=1e-12)


def test_index_bound_check_examples():
    roots = [1, 2, 3]
    report = index_bound_check(local_expansion_min(roots), roots)
    assert report.bound == 6
    assert [e.magnitude for e in report.entries] == [2, 3]
    assert all(e.holds for e in report.entries)

    small = [0.1, 0.2, 0.3]
    violation = index_bound_check(local_expansion_min(small), small)
    assert violation.bound == pytest.approx(0.06)
    by_order = {e.order: e for e in violation.entries}
    assert by_order[1].holds  # 0.02 < 0.06
    assert not by_order[2].holds  # 0.3 > 0.06

    single = [0.4]
    vacuous = index_bound_check(local_expansion_min(single), single)
    assert vacuous.entries == ()


def test_index_bound_plus_form_uses_center_power():
    roots = [1, 4]
    report = index_bound_check(local_expansion_max_plus(roots), roots)
    assert report.bound == 16  # center 4 to the power n = 2
    assert report.entries[0].magnitude == 3
    assert report.entries[0].holds


def test_min_pair_lemma_examples():
    assert min_pair_lemma(0.5, 1.5)
    assert min_pair_lemma(0.999, 0.999)
    assert min_pair_lemma(2, 3)  # antecedent false, implication vacuously true
    with pytest.raises(ValueError):
        min_pair_lemma(0, 1)
    with pytest.raises(ValueError):
        min_pair_lemma(1, -2)


@seed(20240824)
@settings(max_examples=200, deadline=None)
@given(
    first=st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
    second=st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
)
def test_min_pair_lemma_property(first, second):
    assert min_pair_lemma(first, second)


positive_roots = st.lists(
    st.floats(min_value=0.01, max_value=50.0, allow_nan=False), min_size=1, max_size=12
)


@seed(20240825)
@settings(max_examples=80, deadline=None)
@given(roots=positive_roots)
def test_reconstruction_property(roots):
    exp = local_expansion_min(roots)
    poly = from_roots(roots)
    span = max(roots) - min(roots) + 1.0
    for frac in (-1.0, -0.25, 0.1, 0.5, 1.3):
        x = exp.center + frac * span
        y = x - exp.center
        series = sum(c * y**k for k, c in enumerate(exp.coeffs, start=1))
        direct = product_value(roots, x).real
        scale = max(evaluation_scale(poly.coeffs, x), abs(direct), 1.0)
        assert abs(direct - series) <= 1e-9 * scale


@st.composite
def repeated_least(draw):
    """Positive zeros whose least one appears at least twice, in a drawn order."""
    least = draw(st.floats(min_value=1e-3, max_value=50.0))
    above = st.floats(min_value=least, max_value=1e3, exclude_min=True)
    zeros = [least] * draw(st.integers(2, 4)) + draw(st.lists(above, max_size=8))
    return draw(st.permutations(zeros))


@seed(20261022)
@settings(max_examples=80, deadline=None)
@given(roots=repeated_least())
def test_expansion_keeps_the_signed_zeros_of_from_roots(roots):
    exp = local_expansion_min(roots)
    gaps = [v - exp.center for i, v in enumerate(roots) if i != exp.center_index]
    assert 0.0 in gaps
    assert repr(exp.coeffs) == repr(tuple(c.real for c in from_roots(gaps).coeffs))


@seed(20240826)
@settings(max_examples=80, deadline=None)
@given(roots=positive_roots)
def test_coefficients_match_taylor_shift(roots):
    exp = local_expansion_min(roots)
    shifted = taylor_shift(roots, exp.center)
    # the same product of gaps, with the center's factor y: equal values, up to signed zeros
    assert shifted[0] == 0
    assert list(exp.coeffs) == [t.real for t in shifted[1:]]
    # first coefficient magnitude is the product of gaps
    gap_product = math.prod(abs(exp.center - r) for i, r in enumerate(roots) if i != exp.center_index)
    assert abs(exp.coeffs[0]) == pytest.approx(gap_product, rel=1e-10, abs=1e-300)


def test_symmetric_function_identity():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(2, 10))
        roots = sorted(rng.uniform(0.05, 5.0, n))
        exp = local_expansion_min(roots)
        gaps = list(exp.residuals)
        for k in range(1, n + 1):
            expected = (-1.0) ** (n - k) * elementary_symmetric(gaps, n - k)
            assert exp.coeffs[k - 1] == pytest.approx(expected, rel=1e-9, abs=1e-12)


SHIFT_ROUNDOFFS = 2  # c in the bound below, fixed before the test was first run


def test_taylor_shift_is_within_n_roundoffs_of_the_exact_shift():
    # |t_k - exact_k| <= c * n * 2^-52 * e_{n-k}(|a_i - x|) at any real center x, where
    # exact_k expands the shifted zeros a_i - x over the rationals
    rng = np.random.default_rng(2601)
    for trial in range(300):
        n = int(rng.integers(1, 31))
        scale = 10.0 ** rng.uniform(-3.0, 3.0)
        low = 0.5 if trial % 2 == 0 else -2.0  # clustered positive zeros, or both signs
        roots = (scale * rng.uniform(low, 2.0, n)).tolist()
        center = float(scale * rng.uniform(-3.0, 3.0))
        shifted = taylor_shift(roots, center)
        gaps = [Fraction(a) - Fraction(center) for a in roots]
        exact = exact_poly_from_roots(gaps)
        natural = exact_poly_from_roots([-abs(g) for g in gaps])  # e_{n-k}(|gaps|)
        unit = Fraction(SHIFT_ROUNDOFFS * n, 2**52)
        for t, want, size in zip(shifted, exact, natural):
            assert t.imag == 0.0
            assert abs(Fraction(t.real) - want) <= unit * size, (roots, center)
