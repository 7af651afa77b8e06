import math

import numpy as np
import pytest

from limpoly import (
    ConvergenceError,
    critical_points,
    from_roots,
    higher_derivative_zeros,
    sendov_distances,
)
from limpoly.critical import _complex_critical_points
from oracles import (
    certify_critical_points,
    complex_derivative_zeros,
    hull_distance,
    real_derivative_tower,
)


def test_cubic_critical_points_closed_form():
    crit = critical_points(from_roots([1, 2, 3]))
    expected = (2 - 1 / math.sqrt(3), 2 + 1 / math.sqrt(3))
    assert crit.method == "interlace-bisection"
    assert len(crit.points) == 2
    for got, want in zip(crit.points, expected):
        assert got.imag == 0
        assert abs(got.real - want) <= 1e-10


def test_repeated_root_is_its_own_critical_point():
    crit = critical_points(from_roots([4.5, 4.5]))
    assert crit.points == (4.5,)


def test_tiny_double_root_with_huge_third():
    crit = critical_points(from_roots([0.001, 0.001, 500]))
    assert crit.points[0] == pytest.approx(0.001, abs=1e-12)
    assert crit.points[1].real == pytest.approx(1000.001 / 3, rel=1e-10)


def test_residuals_are_small():
    crit = critical_points(from_roots([0.25, 1.5, 2.25, 9.0]))
    assert all(r <= 1e-8 for r in crit.residuals)


def test_quadratic_critical_point_is_midpoint():
    for a in (0.0, -3.5, 12.0):
        crit = critical_points(from_roots([a, a + 1]))
        assert crit.points[0].real == pytest.approx(a + 0.5, abs=1e-12)


def test_complex_path_quadratic_centroid():
    crit = critical_points(from_roots([1, 1j]))
    assert crit.method == "simultaneous-iteration"
    assert crit.points[0] == pytest.approx((1 + 1j) / 2, abs=1e-12)


def test_complex_path_cubic_against_quadratic_formula():
    # the second input puts a zero exactly on a starting point of the iteration
    for roots in ([0, 2, 2j], [-1, 1, 0.9030192574742872 + 0.38179041845009876j]):
        crit = critical_points(from_roots(roots))
        # P' = 3x^2 - 2(r1 + r2 + r3)x + (r1 r2 + r2 r3 + r3 r1): solve directly
        r1, r2, r3 = roots
        a, b, c = 3, -2 * (r1 + r2 + r3), r1 * r2 + r2 * r3 + r3 * r1
        disc = (b * b - 4 * a * c) ** 0.5
        expected = sorted(
            [(-b + disc) / (2 * a), (-b - disc) / (2 * a)], key=lambda z: (z.real, z.imag)
        )
        for got, want in zip(crit.points, expected):
            assert got == pytest.approx(want, abs=1e-10)


def test_coefficient_only_input_is_rejected():
    squared = from_roots([1, 2, 3, 4])
    bare = type(squared)(squared.coeffs)  # drop the root multiset
    for solve in (critical_points, lambda p: higher_derivative_zeros(p, 2)):
        with pytest.raises(ValueError, match="from_roots"):
            solve(bare)
    # the complex kernel agrees with the interlace path on real zeros
    crit = _complex_critical_points([1, 2, 3, 4])
    known = critical_points(squared)
    got = sorted(z.real for z in crit)
    want = sorted(z.real for z in known.points)
    for g, w in zip(got, want):
        assert g == pytest.approx(w, abs=1e-9)
    assert all(abs(z.imag) <= 1e-9 for z in crit)


def test_exact_multiple_zero_on_simultaneous_path():
    # derivative of x^4 - 1 is 4x^3: a triple zero at the origin
    crit = critical_points(from_roots([1, 1j, -1, -1j]))
    assert crit.method == "simultaneous-iteration"
    assert len(crit.points) == 3
    assert all(abs(z) <= 1e-9 for z in crit.points)


def test_repeated_complex_zeros_regression():
    # P' = 16 (z - v1)^7 (z - v2)^7 (z - (v1 + v2)/2)
    v1, v2 = 1 + 1j, -1 + 0.5j
    roots = [v1] * 8 + [v2] * 8
    crit = critical_points(from_roots(roots))
    want = sorted([v1] * 7 + [v2] * 7 + [(v1 + v2) / 2], key=lambda z: (z.real, z.imag))
    scale = abs(v1)
    for got, ref in zip(crit.points, want):
        assert abs(got - ref) <= 1e-13 * scale
    assert max(hull_distance(b, roots) for b in crit.points) <= 1e-13 * scale


def test_higher_derivative_zeros_examples():
    p = from_roots([1, 2, 3])
    second = higher_derivative_zeros(p, 2)
    assert len(second.points) == 1
    assert second.points[0].real == pytest.approx(2.0, abs=1e-12)  # centroid

    power = from_roots([1.25] * 5)
    for k in (1, 2, 3, 4):
        zeros = higher_derivative_zeros(power, k)
        assert len(zeros.points) == 5 - k
        assert all(z.real == pytest.approx(1.25, abs=1e-9) for z in zeros.points)


def test_higher_derivative_zeros_complex_path():
    p = from_roots([1, 1j, -1, -1j])
    second = higher_derivative_zeros(p, 2)  # 12x^2: double zero at 0
    assert len(second.points) == 2
    assert all(abs(z) <= 1e-7 for z in second.points)


def _log_uniform(seed, n):
    rng = np.random.default_rng(seed)
    return tuple(float(x) for x in np.exp(rng.uniform(math.log(1e-3), math.log(1e3), n)))


def _unit_disk(seed, n):
    rng = np.random.default_rng(seed)
    radius, angle = np.sqrt(rng.uniform(0, 1, n)), 2 * np.pi * rng.uniform(0, 1, n)
    return tuple(complex(r * math.cos(t), r * math.sin(t)) for r, t in zip(radius, angle))


def _assert_relative_match(points, oracle, rel):
    got = sorted(z.real for z in points)
    assert len(got) == len(oracle)
    for g, w in zip(got, oracle):
        assert abs(g - w) <= rel * abs(w), (g, w)


@pytest.mark.parametrize(
    "roots",
    [_log_uniform(5, 40), tuple(abs(z) for z in _unit_disk(7, 20))],
    ids=["log-uniform-40", "moduli-20"],
)
def test_real_critical_points_match_mpmath(roots):
    crit = critical_points(from_roots(roots))
    assert crit.method == "interlace-bisection"
    _assert_relative_match(crit.points, real_derivative_tower(roots, 1)[0], 1e-13)


def test_higher_derivative_zeros_match_mpmath():
    roots = _log_uniform(9, 20)
    tower = real_derivative_tower(roots, 19)
    p = from_roots(roots)
    for k in (1, 5, 10, 19):
        _assert_relative_match(higher_derivative_zeros(p, k).points, tower[k - 1], 1e-13)


def test_higher_derivative_order_validation():
    p = from_roots([1, 2, 3])
    with pytest.raises(ValueError):
        higher_derivative_zeros(p, 0)
    with pytest.raises(ValueError):
        higher_derivative_zeros(p, 3)


def test_degree_validation():
    with pytest.raises(ValueError):
        critical_points(from_roots([1]))


def test_sendov_distance_examples():
    roots = [1, 2, 3]
    table = sendov_distances(roots, critical_points(from_roots(roots)))
    offset = 1 / math.sqrt(3)
    assert table.min_zero_index == 0
    assert table.distances[0][0] == pytest.approx(1 - offset, abs=1e-9)
    assert table.distances[0][1] == pytest.approx(1 + offset, abs=1e-9)
    assert table.max_from_min_zero == pytest.approx(1 + offset, abs=1e-9)
    assert table.max_from_min_zero > 1
    assert table.all_within_unit  # every zero still has some critical point within 1

    pair = [7.0, 8.0]
    pair_table = sendov_distances(pair, critical_points(from_roots(pair)))
    assert pair_table.per_zero_min == (pytest.approx(0.5), pytest.approx(0.5))
    assert pair_table.all_within_unit

    skew = [0.001, 0.001, 500]
    skew_table = sendov_distances(skew, critical_points(from_roots(skew)))
    assert skew_table.max_from_min_zero == pytest.approx(333.3327, abs=1e-3)


def test_interlacing_on_random_instances():
    rng = np.random.default_rng(21)
    for _ in range(150):
        n = int(rng.integers(3, 9))
        roots = np.sort(rng.uniform(0.1, 40.0, n))
        while np.min(np.diff(roots)) < 1e-6:
            roots = np.sort(rng.uniform(0.1, 40.0, n))
        crit = critical_points(from_roots(tuple(roots)))
        points = sorted(z.real for z in crit.points)
        assert len(points) == n - 1
        for lo, hi, b in zip(roots, roots[1:], points):
            assert lo < b < hi


def _stress_instances(seed, count):
    """Complex zeros with repeats, alternating with ones that hold a pair 1e-9 apart."""
    rng = np.random.default_rng(seed)
    for t in range(count):
        n = int(rng.integers(2, 7))
        base = [complex(x, y) for x, y in rng.uniform(-5, 5, (n, 2))]
        if t % 2 == 0:
            yield tuple(b for b in base for _ in range(int(rng.integers(1, 4))))
        else:
            yield tuple(base + [base[0] + 1e-9 * complex(*rng.uniform(-1, 1, 2))])


def test_gauss_lucas_on_random_complex_instances():
    rng = np.random.default_rng(22)
    random = []
    for _ in range(150):
        n = int(rng.integers(3, 8))
        random.append(tuple(
            complex(x, y) for x, y in zip(rng.uniform(-5, 5, n), rng.uniform(-5, 5, n))
        ))
    for roots in random + list(_stress_instances(32, 150)):
        crit = critical_points(from_roots(roots))
        scale = max(1.0, max(abs(r) for r in roots))
        for b in crit.points:
            assert hull_distance(b, roots) <= 1e-8 * scale


def test_critical_sum_identity():
    rng = np.random.default_rng(23)
    random = []
    for _ in range(100):
        n = int(rng.integers(2, 9))
        random.append(tuple(
            complex(x, y) for x, y in zip(rng.uniform(-4, 4, n), rng.uniform(-4, 4, n))
        ))
    for roots in random + list(_stress_instances(33, 100)):
        n = len(roots)
        crit = critical_points(from_roots(roots))
        lhs = sum(crit.points)
        rhs = (n - 1) / n * sum(roots)
        scale = max(sum(abs(b) for b in crit.points), abs(rhs), 1e-12)
        assert abs(lhs - rhs) <= 1e-8 * scale


def test_high_degree_simultaneous_convergence():
    # coefficient magnitudes reach ~1e17 here; the solver must still
    # converge within its sweep budget and land at roundoff residuals
    for trial in (0, 1, 2, 3):
        rng = np.random.default_rng(7000 + trial)
        n = 30
        roots = tuple(
            complex(x, y) for x, y in zip(rng.uniform(-5, 5, n), rng.uniform(-5, 5, n))
        )
        crit = critical_points(from_roots(roots))
        assert len(crit.points) == n - 1
        assert max(crit.residuals) <= 1e-8


def _assert_complex_match(points, refs, tol):
    free = list(refs)
    assert len(points) == len(free)
    for b in points:
        k = min(range(len(free)), key=lambda i: abs(free[i] - b))
        assert abs(free.pop(k) - b) <= tol, b


@pytest.mark.parametrize("n", [40, 80])
def test_complex_critical_points_match_mpmath(n):
    # polyroots is the oracle at degree 40; at 80 it is too slow, and the
    # points are certified by 40-digit Newton refinement instead
    for seed in (n + 1, n + 2):
        roots = _unit_disk(seed, n)
        points = critical_points(from_roots(roots)).points
        if n <= 40:
            refs = complex_derivative_zeros(roots)
        else:
            refs = certify_critical_points(roots, points)
        _assert_complex_match(points, refs, 1e-13 * max(abs(r) for r in roots))


def test_complex_tower_matches_mpmath():
    roots = _unit_disk(12, 12)
    p = from_roots(roots)
    scale = max(abs(r) for r in roots)
    for k in range(1, 12):
        zeros = higher_derivative_zeros(p, k)
        assert zeros.method == "simultaneous-iteration"
        _assert_complex_match(zeros.points, complex_derivative_zeros(roots, k), 1e-13 * scale)


def test_convergence_error_carries_iterates():
    with pytest.raises(ConvergenceError) as err:
        _complex_critical_points([1, 1j, -1, -1j], budget=2)
    assert len(err.value.iterates) == 3
    assert len(err.value.residuals) == 3
