import builtins
import cmath
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from limpoly import (
    ConvergenceError,
    critical,
    critical_points,
    from_roots,
    higher_derivative_zeros,
    sendov_distances,
)
from limpoly.critical import (
    _CLUSTER_GAP,
    _cluster_reals,
    _coincident,
    _complex_critical_points,
    _compressed_zeros,
    _groups,
    _interval_zero,
    _log_derivative,
    _real_critical_points,
    _zero_band,
    _zero_run_end,
)
from oracles import (
    certify_critical_points,
    complex_derivative_zeros,
    distance_summary,
    hull_distance,
    rational_derivative_zeros,
    real_derivative_tower,
    scan_groups,
    sign_change_interval_zero,
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


@pytest.mark.parametrize(
    "roots, points",
    [([1, 1, -2], (-1.0, 1.0)), ([-1, 2, 2], (0.0, 2.0)), ([-1, 1], (0.0,))],
)
def test_a_point_where_the_sum_is_exactly_zero_comes_out_exactly(roots, points):
    # the sum is 0 on a run of floats about -1 and about 0: the run's midpoint, not
    # the first float of it that a bisection happens to meet (-0.9999999999999999, 1.1e-16)
    assert critical_points(from_roots(roots)).points == points


def test_tiny_double_root_with_huge_third():
    crit = critical_points(from_roots([0.001, 0.001, 500]))
    assert crit.points[0] == pytest.approx(0.001, abs=1e-12)
    assert crit.points[1].real == pytest.approx(1000.001 / 3, rel=1e-10)


def test_real_path_near_the_top_of_double_range():
    # the bracket's midpoint must not overflow where lo + hi does
    crit = critical_points(from_roots([1e308, 1.5e308]))
    assert crit.points == (1.25e308,)


@pytest.mark.parametrize("s", [1e-12, 1e-300, 1e-310, 1e300])
def test_close_zeros_stay_distinct_at_every_scale(s):
    # zeros are grouped by a gap relative to their size, never an absolute one;
    # at 1e-310 the gaps are subnormal, where m / (x - v) would overflow unscaled
    crit = critical_points(from_roots([s, 2 * s, 3 * s]))
    expected = (2 * s - s / math.sqrt(3), 2 * s + s / math.sqrt(3))
    for got, want in zip(crit.points, expected):
        assert abs(got.real - want) <= 1e-13 * want, (got, want)


def test_mixed_scale_real_zeros_with_subnormal_gaps():
    # the gap between the two tiny zeros is subnormal, where m / (x - v) would overflow
    # unscaled; the solve's one power of two brings every zero into the normal range
    crit = critical_points(from_roots([1e-310, 2e-310, 0.5]))
    assert len(crit.points) == 2
    assert abs(crit.points[0].real - 1.5e-310) <= 1e-13 * 1.5e-310
    assert crit.points[1].real == pytest.approx(1 / 3, rel=1e-15)


def test_mixed_scale_complex_zeros():
    # scaled near 1, the two tiny zeros fall below the subnormal range and count as one
    # double zero: its critical point is their mean, right to the zeros' scale
    roots = [1e-200 + 1e-200j, 2e-200, 1e150j, 3e150]
    points = critical_points(from_roots(roots)).points
    assert points[0] == 1.5e-200 + 5e-201j
    for b, want in zip(points, certify_critical_points(roots, points)):
        assert abs(b - complex(want)) <= 1e-13 * 3e150, (points, want)


def test_repeated_complex_zero_at_the_top_of_double_range():
    # the unscaled sum of the two zeros overflows; their point is the scaled mean mapped back
    for roots in ([1e308, 1e308, 1j], [1.7e308 + 1.7e308j] * 2 + [1j]):
        points = _complex_critical_points(roots)
        assert roots[0] in points
        assert all(cmath.isfinite(p) for p in points), points


def test_close_complex_zeros_stay_distinct():
    points = _complex_critical_points([1e-12j, 2e-12j, 3e-12j])
    expected = (2e-12 - 1e-12 / math.sqrt(3), 2e-12 + 1e-12 / math.sqrt(3))
    for got, want in zip(points, expected):
        assert abs(got - want * 1j) <= 1e-13 * want, (got, want)


@pytest.mark.parametrize(
    "s, direction, offset",
    [(1, 1j, 0), (1e-300, 1j, 0), (1e-150, 1j, 0), (1e150, 1j, 0), (1e299, 1j, 0),
     (1e300, 1j, 0), (1e301, 1j, 0), (1e200, 1, 1e200j)],
    ids=["1", "1e-300", "1e-150", "1e+150", "1e+299", "1e+300", "1e+301", "1e200-triple"],
)
def test_complex_path_is_scale_invariant(s, direction, offset):
    # zeros s, 2s, 3s on a line off the real axis: critical points at (2 -/+ 1/sqrt(3)) s,
    # in that order on a vertical line as on a horizontal one
    points = _complex_critical_points([k * s * direction + offset for k in (1, 2, 3)])
    assert len(points) == 2
    for b, t in zip(points, (2 - 1 / math.sqrt(3), 2 + 1 / math.sqrt(3))):
        want = t * s * direction + offset
        assert abs(b - want) <= 1e-13 * abs(want), (points, want)


def test_zeros_whose_differences_overflow():
    # |u - w| of two of these zeros is above the largest double
    s = 1.7e308
    crit = critical_points(from_roots([s, s * 1j, -s]))
    for b, sign in zip(crit.points, (-1, 1)):
        want = (sign * 2 * math.sqrt(2) + 2j) / 6 * s
        assert abs(b - want) <= 1e-13 * abs(want), (crit.points, want)


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
    for roots, orders in (
        (_log_uniform(9, 20), (1, 5, 10, 19)),
        (_log_uniform(11, 40), (1, 10, 20, 39)),
    ):
        tower = real_derivative_tower(roots, orders[-1])
        p = from_roots(roots)
        for k in orders:
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
    assert table.per_zero_min[0] == pytest.approx(1 - offset, abs=1e-9)
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

    tied = [2, 1j, -1, 1]  # three moduli tie at 1: the first of them is the least zero
    assert sendov_distances(tied, critical_points(from_roots(tied))).min_zero_index == 1
    for unit in ([0, 2], [1j, -1j]):
        unit_table = sendov_distances(unit, critical_points(from_roots(unit)))
        assert unit_table.per_zero_min == (1.0, 1.0)
        assert not unit_table.all_within_unit  # within 1 means strictly


# zeros on a coarse grid, so moduli tie and zeros repeat, or on a fine one
_grid = st.integers(-8, 8).map(lambda k: k / 4)
_fine = st.integers(-2**20, 2**20).map(lambda k: k / 2**18)


@seed(20261021)
@settings(max_examples=120, deadline=None)
@given(
    roots=st.one_of(
        st.lists(st.builds(complex, _grid, _grid), min_size=2, max_size=9),
        st.lists(_grid.map(complex), min_size=2, max_size=9),
        st.lists(st.builds(complex, _fine, _fine), min_size=2, max_size=9),
    )
)
@example(roots=[2, 1j, -1, 1])  # three moduli tie at 1: index 1 is the least zero
@example(roots=[0, 2])  # the critical point 1 is exactly 1 from each zero
@example(roots=[1j, -1j, 1, -1])  # ties in modulus, and a triple critical point exactly 1 away
def test_sendov_summaries_match_the_full_table(roots):
    crit = critical_points(from_roots(roots))
    t = sendov_distances(roots, crit)
    got = (t.per_zero_min, t.all_within_unit, t.min_zero_index, t.max_from_min_zero)
    assert got == distance_summary([complex(a) for a in roots], crit.points)


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


def test_convergence_error_carries_iterates(monkeypatch):
    # from its eigenvalue starts this input needs two sweeps
    monkeypatch.setattr(critical, "_SWEEP_BUDGET", 1)
    with pytest.raises(ConvergenceError, match="no convergence after 1 sweeps") as err:
        _complex_critical_points(_unit_disk(3, 20))
    assert len(err.value.iterates) == 19
    assert len(err.value.residuals) == 19


def test_sweep_steps_off_a_start_on_a_zero():
    # a critical point within 2**-33 of a zero on the grid, here 0 or 0.5 scaled by 2**-1,
    # starts exactly on that zero, where the secular sums divide by zero
    for roots in ([0, 1e-11, 1j], [0.5, 0.5 + 1e-12, -0.5j]):
        refs = [complex(r) for r in complex_derivative_zeros(roots)]
        for b in _complex_critical_points(roots):
            want = min(refs, key=lambda r: abs(r - b))
            assert abs(b - want) <= 1e-13 * abs(want), (roots, b, want)


def test_convergence_error_residuals_are_at_the_returned_iterates(monkeypatch):
    # the one sweep nudges two starts off the zero 0, and each residual is |f| / size
    # where its iterate went, not the division by zero that moved it
    monkeypatch.setattr(critical, "_SWEEP_BUDGET", 1)
    roots = [0, 1e-11, 1e-11j, 1j]
    with pytest.raises(ConvergenceError) as err:
        _complex_critical_points(roots)
    clusters = [(complex(r), 1) for r in roots]
    for b, r in zip(err.value.iterates, err.value.residuals):
        f, size = critical._secular(clusters, b)
        assert abs(r - abs(f) / size) <= 1e-12, (b, r)


def test_sweep_parts_two_starts_on_one_zero():
    # two critical points within 2**-33 of a zero on the grid both start on it: the sweep
    # moves them together, so their nudges off it must differ or they stay one point
    for roots in ([0, 1e-11, 1e-11j, 1j], [0.5, 0.5 + 1e-12, 0.5 + 1e-12j, -0.5j]):
        refs = [complex(r) for r in complex_derivative_zeros(roots)]
        points = _complex_critical_points(roots)
        assert len(set(points)) == 3, (roots, points)
        for b in points:
            want = min(refs, key=lambda r: abs(r - b))
            assert abs(b - want) <= 1e-13 * abs(want), (roots, b, want)


@pytest.mark.parametrize("n", [5, 12, 20])
def test_complex_points_ignore_the_last_bits_of_the_eigenvalues(monkeypatch, n):
    # the starts are rounded to a grid of the scaled plane, so eigenvalues a few ulps
    # off, as another BLAS build may return them, give the same points bit for bit
    instances = [_unit_disk(100 * n + k, n) for k in range(40)]
    want = [_complex_critical_points(roots) for roots in instances]
    eigvals = np.linalg.eigvals
    rng = np.random.default_rng(n)

    def perturbed(a):
        z = eigvals(a)
        ulps = rng.integers(-64, 65, (2, len(z)))
        return z.real + ulps[0] * np.spacing(z.real) + 1j * (z.imag + ulps[1] * np.spacing(z.imag))

    monkeypatch.setattr(np.linalg, "eigvals", perturbed)
    for roots, points in zip(instances, want):
        got = _complex_critical_points(roots)
        assert [(b.real.hex(), b.imag.hex()) for b in got] == [(b.real.hex(), b.imag.hex()) for b in points]


_SOLVE_IN_CHILD = """
import json, sys
from limpoly.critical import _complex_critical_points
for roots in json.load(sys.stdin):
    points = _complex_critical_points([complex(re, im) for re, im in roots])
    print(json.dumps([[b.real.hex(), b.imag.hex()] for b in points]))
"""


def _kernel_choices():
    """Environments that pick other OpenBLAS core types, or drop numpy's SIMD dispatch targets."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    found = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    choices = [{"OPENBLAS_CORETYPE": "Prescott"}, {"NPY_DISABLE_CPU_FEATURES": " ".join(found)}]
    if umath.__cpu_features__.get("AVX512F"):  # a forced core type must run on this CPU
        choices.append({"OPENBLAS_CORETYPE": "SkylakeX"})
    return choices


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="the OpenBLAS core types and numpy dispatch targets named are x86-64's")
def test_complex_points_are_the_same_on_every_cpu_kernel():
    # the sweep makes no BLAS call, whose kernels round differently, and its elementwise
    # products and row sums round alike under every SIMD target
    instances = [_unit_disk(900 + 10 * n + k, n) for n in (5, 12, 20) for k in range(7)]
    want = [[[b.real.hex(), b.imag.hex()] for b in _complex_critical_points(roots)] for roots in instances]
    stdin = json.dumps([[[z.real, z.imag] for z in roots] for roots in instances])
    src = str(Path(critical.__file__).resolve().parents[1])
    for choice in _kernel_choices():
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])), **choice}
        child = subprocess.run([sys.executable, "-c", _SOLVE_IN_CHILD], input=stdin, env=env,
                               capture_output=True, text=True, check=True)
        assert [json.loads(line) for line in child.stdout.splitlines()] == want, choice


@pytest.mark.parametrize("center, radius", [(0, 1), (-1j, 0.5)])
@pytest.mark.parametrize("k", range(3, 13))
def test_roots_of_unity_have_one_multiple_critical_point(center, radius, k):
    # P = (z - c)^k - r^k, so P' = k (z - c)^(k-1): every point is the centre
    roots = [center + radius * cmath.exp(2j * math.pi * j / k) for j in range(k)]
    points = critical_points(from_roots(roots)).points
    assert len(points) == k - 1
    assert max(abs(b - center) for b in points) <= 1e-12 * max(abs(center), radius), points


def _coincident_zeros(values):
    """(points, reach, near) as the complex path groups its scaled zeros."""
    return values, [_CLUSTER_GAP * abs(u) for u in values], lambda i, j: _coincident(values[i], values[j])


def _overlapping_discs(centers, radii):
    """(points, reach, near) as the complex path groups its iterates by inclusion discs."""
    return centers, radii, lambda i, j: abs(centers[i] - centers[j]) <= radii[i] + radii[j]


def _group_cases():
    rng = np.random.default_rng(31)
    cases = []
    for t in range(20):  # repeated zeros, in random order
        base = [complex(x, y) for x, y in rng.uniform(-1, 1, (int(rng.integers(1, 8)), 2))]
        values = [b for b in base for _ in range(int(rng.integers(1, 5)))]
        cases.append(pytest.param(*_coincident_zeros([values[i] for i in rng.permutation(len(values))]),
                                  id=f"repeated-{t}"))
    for t in range(20):  # chains of zeros, each within the gap of the next but not of the one after
        base = complex(*rng.uniform(-1, 1, 2))
        step = 0.6e-12 * abs(base) * complex(*rng.uniform(-1, 1, 2)) / math.sqrt(2)
        values = [base + k * step for k in range(int(rng.integers(2, 9)))] + [-base, 1j * base]
        cases.append(pytest.param(*_coincident_zeros([values[i] for i in rng.permutation(len(values))]),
                                  id=f"chain-{t}"))
    for n in (3, 8, 12, 20):  # rings: each disc meets its neighbours, or none, or one meets all
        ring = [cmath.exp(2j * math.pi * k / n) for k in rng.permutation(n)]
        chord = abs(1 - cmath.exp(2j * math.pi / n))
        for name, radii in (
            ("linked", [0.6 * chord] * n),
            ("apart", [0.4 * chord] * n),
            ("one-infinite", [0.0] * (n - 1) + [math.inf]),
            ("mixed", list(rng.choice((0.0, 0.6 * chord), n))),
        ):
            cases.append(pytest.param(*_overlapping_discs(ring, radii), id=f"ring-{n}-{name}"))
    return cases


@pytest.mark.parametrize("points, reach, near", _group_cases())
def test_groups_are_those_of_the_all_pairs_scan(points, reach, near):
    # the same groups in the same order, each listing its members in the same order
    assert _groups(points, reach, near) == scan_groups(range(len(points)), near)


# ---------------------------------------------------------------------------
# the real path's interval search returns the float the signs of the sum define


def _gaps(clusters):
    """(lo, hi, start) for each gap between the clusters, with the start the solve takes there."""
    starts = _compressed_zeros(clusters, np.linalg.eigvalsh)
    return [(lo, hi, start) for (lo, _), (hi, _), start in zip(clusters, clusters[1:], starts)]


def _tower_intervals(values):
    """(clusters, lo, hi, start) for each gap between distinct zeros, at every stage of the tower.

    Each stage gives the gaps the solve searches, on the zeros times its power
    of two, and the same gaps at the zeros' own scale, tiny or huge, except
    where a gap is subnormal: there the bisection's terms overflow at both ends.
    """
    while len(values) >= 2:
        scaled, e = _cluster_reals(values)
        unscaled = [(math.ldexp(v, e), m) for v, m in scaled]
        for clusters in (scaled, unscaled) if e else (scaled,):
            gaps = _gaps(clusters)
            yield from ((clusters, *gap) for gap in gaps if gap[1] - gap[0] >= sys.float_info.min)
        values = _real_critical_points(values)


def _bisection_cases():
    rng = np.random.default_rng(13)
    log_uniform = [tuple(float(x) for x in np.exp(rng.uniform(-7, 7, n))) for n in (2, 3, 5, 8, 13, 21, 40)]
    clustered = [
        (1.0,) * 10 + (2.0,) * 10,
        (0.5,) * 3 + (1.7,) * 10 + (4.0,),
        (-1.0, 0.25, 0.25, 3.0, 3.0, 3.0),
    ]
    # the sum is exactly 0 at a float: at the first midpoint, or deeper in
    small_ints = [
        (1.0, 3.0),
        (-2.0, 2.0),
        (0.0, 1.0, 3.0, 4.0),
        (-3.0, -1.0, 1.0),
        (-3.0, 1.0, 3.0, 4.0),
        (-3.0, -3.0, -3.0, -1.0, 0.0),
    ]
    scaled = [tuple(s * x for x in log_uniform[4]) for s in (1e-300, 1e300)]
    signs = rng.choice((-1.0, 1.0), 12)
    spanning = [tuple(float(x) for x in signs * np.exp(rng.uniform(-690, 690, 12)))]
    return log_uniform + clustered + small_ints + scaled + spanning


_tower_values = st.one_of(
    st.lists(st.floats(-7, 7).map(math.exp), min_size=2, max_size=40),
    st.lists(st.tuples(st.floats(-3, 3), st.integers(1, 10)), min_size=2, max_size=4).map(
        lambda pairs: [v for v, m in pairs for _ in range(m)]
    ),
    st.lists(st.integers(-6, 6).map(float), min_size=2, max_size=10),
    st.tuples(
        st.sampled_from((1e-300, 1e300)),
        st.lists(st.floats(-3, 3).map(math.exp), min_size=2, max_size=20),
    ).map(lambda pair: [pair[0] * x for x in pair[1]]),
    st.lists(
        st.tuples(st.sampled_from((-1.0, 1.0)), st.floats(-690, 690)).map(
            lambda pair: pair[0] * math.exp(pair[1])
        ),
        min_size=2,
        max_size=15,
    ),
)


def _assert_bisection_float(values):
    for clusters, lo, hi, start in _tower_intervals(values):
        got = _interval_zero(clusters, lo, hi, start)
        assert got.hex() == sign_change_interval_zero(clusters, lo, hi).hex(), (clusters, lo, hi)


def _assert_sum_monotone_about_zeros(values):
    # the premise of the contract: the computed sum does not increase from one float to the next
    for clusters, lo, hi, start in _tower_intervals(values):
        below = above = _interval_zero(clusters, lo, hi, start)
        xs = [below]
        for _ in range(64):
            below, above = math.nextafter(below, lo), math.nextafter(above, hi)
            xs = [below] * (below > lo) + xs + [above] * (above < hi)
        sums = [_log_derivative(clusters, x)[0] for x in xs]
        assert all(u >= w for u, w in zip(sums, sums[1:])), (clusters, lo, hi)


@pytest.mark.parametrize("values", _bisection_cases())
def test_interval_zero_is_the_bisection_float(values):
    _assert_bisection_float(values)


def test_bisection_cases_reach_exact_zero_sums():
    # the cases reach floats where the sum is exactly 0, not only at the first midpoint
    exact = [
        (clusters, lo, hi, start)
        for values in _bisection_cases()
        for clusters, lo, hi, start in _tower_intervals(values)
        if _log_derivative(clusters, _interval_zero(clusters, lo, hi, start))[0] == 0.0
    ]
    assert any(_interval_zero(c, lo, hi, x) != 0.5 * lo + 0.5 * hi for c, lo, hi, x in exact)


@seed(20261018)
@settings(max_examples=150, deadline=None)
@given(values=_tower_values)
@example(values=[1e-300, 1.0000000010000002e-300])  # a subnormal gap, searched scaled only
def test_interval_zero_is_the_bisection_float_property(values):
    _assert_bisection_float(values)


_START_KINDS = ("nan", "inf", "-inf", "lo", "hi", "inside", "below", "above")


def _start(kind, t, lo, hi):
    """A start for the gap (lo, hi): not finite, an end, or at t in [0, 1] inside or beyond it."""
    return {
        "nan": math.nan, "inf": math.inf, "-inf": -math.inf, "lo": lo, "hi": hi,
        "inside": (1.0 - t) * lo + t * hi, "below": lo - t * (hi - lo), "above": hi + t * (hi - lo),
    }[kind]


@seed(20261020)
@settings(max_examples=150, deadline=None)
@given(
    values=_tower_values,
    starts=st.lists(st.tuples(st.sampled_from(_START_KINDS), st.floats(0.0, 1.0)), min_size=1, max_size=8),
)
def test_interval_zero_is_the_bisection_float_from_any_start(values, starts):
    for g, (clusters, lo, hi, _) in enumerate(_tower_intervals(values)):
        kind, t = starts[g % len(starts)]
        got = _interval_zero(clusters, lo, hi, _start(kind, t, lo, hi))
        assert got.hex() == sign_change_interval_zero(clusters, lo, hi).hex(), (clusters, lo, hi, kind, t)


@pytest.mark.parametrize("values", _bisection_cases())
def test_log_derivative_is_monotone_over_floats(values):
    _assert_sum_monotone_about_zeros(values)


@seed(20261019)
@settings(max_examples=40, deadline=None)
@given(values=_tower_values)
def test_log_derivative_is_monotone_over_floats_property(values):
    _assert_sum_monotone_about_zeros(values)


def test_interval_zero_evaluates_the_sum_a_few_times(monkeypatch):
    # plain bisection to ulp resolution evaluates it about 52 times per interval,
    # Newton from the interval's midpoint about 6.3
    log_derivative = critical._log_derivative
    calls = []

    def counted(*args):
        calls.append(args)
        return log_derivative(*args)

    monkeypatch.setattr(critical, "_log_derivative", counted)
    intervals = 0
    for i in range(5):
        values = _log_uniform(i, 20)
        while len(values) >= 2:
            intervals += len(_cluster_reals(values)[0]) - 1
            values = _real_critical_points(values)
    assert len(calls) / intervals <= 4  # 2.836 measured (2,694 sums over 950 gaps)


def test_interval_zero_weighs_repeated_zeros_in_its_slope(monkeypatch):
    # towers from zeros repeated 1 to 8 times; a Newton slope that counted each
    # distinct zero once took 3.32 sums a gap here
    log_derivative = critical._log_derivative
    calls = []

    def counted(*args):
        calls.append(args)
        return log_derivative(*args)

    monkeypatch.setattr(critical, "_log_derivative", counted)
    rng = np.random.default_rng(41)
    intervals = 0
    for i in range(8):
        values = [v for v in _log_uniform(40 + i, 6) for _ in range(int(rng.integers(1, 9)))]
        while len(values) >= 2:
            intervals += len(_cluster_reals(values)[0]) - 1
            values = _real_critical_points(values)
    assert len(calls) / intervals <= 3.2  # 2.795 measured (8,556 sums over 3,061 gaps)


def _exact_zero_gaps():
    """(clusters, lo, hi, start) of the case gaps whose result is a float where the sum is 0."""
    return [
        (clusters, lo, hi, start)
        for values in _bisection_cases()
        for clusters, lo, hi, start in _tower_intervals(values)
        if _log_derivative(clusters, _interval_zero(clusters, lo, hi, start))[0] == 0.0
    ]


def test_a_run_of_exact_zero_sums_ends_where_the_sum_turns():
    for clusters, lo, hi, start in _exact_zero_gaps():
        zero = _interval_zero(clusters, lo, hi, start)
        for bound in (lo, hi):
            end = _zero_run_end(clusters, zero, bound)
            beyond = math.nextafter(end, bound)
            assert _log_derivative(clusters, end)[0] == 0.0, (clusters, lo, hi)
            assert beyond == bound or _log_derivative(clusters, beyond)[0] != 0.0, (clusters, lo, hi)


def test_an_exact_zero_sum_keeps_the_bracket(monkeypatch):
    # from a float where the sum is 0, the run of such floats is found, and the point is
    # the midpoint of its ends, with no further sum; a bisection from (lo, hi) took 22-54
    # sums on 18 of these gaps
    log_derivative = critical._log_derivative
    calls = []

    def counted(*args):
        calls.append(args)
        return log_derivative(*args)

    monkeypatch.setattr(critical, "_log_derivative", counted)
    per_gap = []
    for clusters, lo, hi, start in _exact_zero_gaps():
        calls.clear()
        _interval_zero(clusters, lo, hi, start)
        per_gap.append(len(calls))
    assert max(per_gap) <= 8, per_gap  # 7 measured
    # an eigenvalue start where the sum is 0, on a one-sign gap: it took 30 sums
    clusters, _ = _cluster_reals([2e-27, 2.9999999999999998e-55, -1e-69])
    [_, (lo, hi, start)] = _gaps(clusters)
    calls.clear()
    assert _interval_zero(clusters, lo, hi, start).hex() == "0x1.a68cd9e985015p+69"
    assert len(calls) == 3


# across 0, and from subnormals


@pytest.mark.parametrize(
    "values, points",
    [
        ([-0.7, 1.9], ["0x1.3333333333333p-1"]),
        ([-1e-300, 3e-300], ["0x1.56e1fc2f8f35ap-2"]),  # scaled by 2**995
        # f is flat near 0: at the band's edge
        ([-1.0, 1.0, 1e80], ["-0x1.0000000000000p-187", "0x1.1fdf4e14b5240p+132"]),
        ([5e-308, 1e-307, 1.7e308], ["0x0.d7b9221309489p-1022", "0x1.42c8b75a4d24ep+1021"]),  # by 2**-2
    ],
)
def test_interval_zero_replays_the_bisection_across_zero_or_from_subnormals(values, points):
    # every gap of each set: the midpoint of the pair about the sum's sign change
    clusters, _ = _cluster_reals(values)
    gaps = _gaps(clusters)
    got = [_interval_zero(clusters, *gap) for gap in gaps]
    assert [x.hex() for x in got] == points
    assert got == [sign_change_interval_zero(clusters, lo, hi) for lo, hi, _ in gaps]


@settings(max_examples=300, deadline=None)
@given(v=st.floats(allow_nan=False, allow_infinity=False).filter(bool), fraction=st.floats(0.0, 1.0))
@example(v=1.0, fraction=1.0)
@example(v=-(2.0**-133), fraction=1.0)
@example(v=3.0, fraction=1.0)
@example(v=5e-324, fraction=1.0)
def test_zero_band_leaves_every_zero_unchanged(v, fraction):
    w = _zero_band(v)
    x = math.nextafter(w, 0.0) * fraction
    assert x - v == -v and -x - v == -v


@pytest.mark.parametrize(
    "values, points, most",
    [
        # the scaled gap is (-2**-133, 2**-133): f's exact zero is near -2**-400, the sum is flat to 2**-187
        ([-1.0, 1.0, 1e80], ["-0x1.0000000000000p-54", "0x1.1fdf4e14b5240p+265"], 8),  # 6 measured
        ([-1e-5, 1e-5, 1e100, 1e101], None, 16),  # 8 measured
        ([-1.0, 1.0, 1e200], None, 8),  # 7 measured
    ],
)
def test_interval_zero_steps_over_the_flat_band_about_zero(monkeypatch, values, points, most):
    clusters, _ = _cluster_reals(values)
    gaps = _gaps(clusters)
    expected = [sign_change_interval_zero(clusters, lo, hi) for lo, hi, _ in gaps]
    log_derivative = critical._log_derivative
    calls = []

    def counted(*args):
        calls.append(args)
        return log_derivative(*args)

    monkeypatch.setattr(critical, "_log_derivative", counted)
    got = _real_critical_points(values)
    assert len(calls) <= most
    assert [_interval_zero(clusters, *gap) for gap in gaps] == expected
    if points is not None:
        assert [x.hex() for x in got] == points


def test_interval_zero_bisects_over_the_floats_places_when_the_steps_run_out(monkeypatch):
    # across 0, the computed zero lies in the rounding staircase beside the flat band: the
    # Newton steps crawl a bit a sum until the budget ends, and the bisection over places finishes
    values = [-2048.0, 2048.000000000002, 9.117438272240433e33, 4.2578731299688967e136,
              -1.0760586679164915e228, 2.455169133819497e190]
    clusters, _ = _cluster_reals(values)
    [(lo, hi, start)] = [gap for gap in _gaps(clusters) if gap[0] < 0.0 < gap[1]]
    log_derivative = critical._log_derivative
    calls = []

    def counted(*args):
        calls.append(args)
        return log_derivative(*args)

    monkeypatch.setattr(critical, "_log_derivative", counted)
    got = _interval_zero(clusters, lo, hi, start)
    assert critical._NEWTON_BUDGET < len(calls) <= critical._NEWTON_BUDGET + 65  # 119 measured
    assert got.hex() == sign_change_interval_zero(clusters, lo, hi).hex()


# ---------------------------------------------------------------------------
# a gap narrower than the smallest normal double, beside a zero near the top of double range


@pytest.mark.parametrize(
    "values",
    [
        [1e-320, 3e-320, 1e300],
        [2e-320, 3e-320, 5e-320, 1e300],
        [1e-320, 3e-320, 1.7e308],
        [5e-308, 1e-307, 1.7e308],
    ],
)
def test_a_subnormal_gap_beside_a_huge_zero_is_solved_at_its_own_scale(values):
    # the stage's one power of two, set by the huge zero, leaves the gap subnormal; both of
    # its near terms overflowed there, and fsum raised on -inf + inf
    points = _real_critical_points(values)
    for got, want in zip(points, rational_derivative_zeros(values)):
        assert abs(Fraction(got) - want) <= Fraction(math.ulp(got)), (got.hex(), float(want).hex())


def test_a_subnormal_gap_point_is_the_bisections_float_at_its_own_scale():
    # solved at the stage's scale it came out 0x1.af72442612912p-1021, 1 ulp below the true zero
    assert _real_critical_points([5e-308, 1e-307, 1.7e308])[0].hex() == "0x1.af72442612913p-1021"


# ---------------------------------------------------------------------------
# the real path's floats, pinned


def _words(seed):
    """53-bit integers from a 64-bit linear congruential generator (Knuth's MMIX constants)."""
    state = seed
    while True:
        state = (state * 6364136223846793005 + 1442695040888963407) % 2**64
        yield state >> 11


def _pinned_towers():
    """150 sets of 2 to 40 real zeros, built from integers and math.ldexp alone.

    They are the same bits on every host.  In turn: positive zeros spread
    over 2**-10 to 2**10, zeros of both signs over 2**-30 to 2**30,
    uniform on [-1, 1], zeros repeated 1 to 8 times, small integers
    (where the sum is exactly 0 at floats, and across 0), and zeros of
    one size near 1e-300 or 1e300 with both signs.
    """
    words = _words(2026)

    def draw(k):
        return next(words) % k

    def spread(lo, hi):
        return math.ldexp(2**52 + draw(2**52), lo + draw(hi - lo + 1) - 52)

    def sign():
        return (-1.0, 1.0)[draw(2)]

    kinds = [
        lambda n: [spread(-10, 10) for _ in range(n)],
        lambda n: [sign() * spread(-30, 30) for _ in range(n)],
        lambda n: [math.ldexp(draw(2**54) - 2**53, -53) for _ in range(n)],
        lambda n: [v for v in [spread(-3, 3) for _ in range(1 + n // 5)] for _ in range(1 + draw(8))][:n],
        lambda n: [float(draw(13) - 6) for _ in range(n)],
        lambda n: [sign() * spread(s - 5, s + 5) for s in [(-997, 997)[draw(2)]] for _ in range(n)],
    ]
    for i in range(150):
        values = kinds[i % len(kinds)](2 + draw(39))
        yield values if len(values) >= 2 else values * 2


def test_real_critical_points_are_pinned():
    # the hex of every point of every stage of each tower: 3,171 stages, 41,849 gaps,
    # 544 ends of runs where the sum is exactly 0, and 1,482 gaps across 0
    digest = hashlib.sha256()
    stages = 0
    for values in _pinned_towers():
        while len(values) >= 2:
            values = _real_critical_points(values)
            digest.update(" ".join(x.hex() for x in values).encode() + b"\n")
            stages += 1
    assert stages == 3171
    assert digest.hexdigest() == "3ed783360dc842fb025a318197ed12ae78f71356db15d79e9833cc7ddbe4778a"


def _pinned_clusters():
    """120 sets of 2 to 40 (value, multiplicity) pairs, built from integers and math.ldexp alone.

    In turn: the clusters of real zeros of both signs over 2**-10 to 2**10,
    each repeated 1 to 8 times; complex values with components of both
    signs over 2**-20 to 2**20 and multiplicities 1 to 4; and the clusters
    of real zeros of one size near 1e-300 or 1e300 with both signs.
    """
    words = _words(2030)

    def draw(k):
        return next(words) % k

    def spread(lo, hi):
        return math.ldexp(2**52 + draw(2**52), lo + draw(hi - lo + 1) - 52)

    def sign():
        return (-1.0, 1.0)[draw(2)]

    for i in range(120):
        k = 2 + draw(39)
        if i % 3 == 0:
            values = [v for v in [sign() * spread(-10, 10) for _ in range(k)] for _ in range(1 + draw(8))]
        elif i % 3 == 1:
            yield [(complex(sign() * spread(-20, 20), sign() * spread(-20, 20)), 1 + draw(4)) for _ in range(k)]
            continue
        else:
            values = [sign() * spread(s - 5, s + 5) for s in [(-997, 997)[draw(2)]] for _ in range(k)]
        yield _cluster_reals(values)[0]


def test_eigen_starts_are_pinned():
    # the real path's points do not depend on its starts, so only this shows a change in them;
    # the eigen-solve is the identity here, as LAPACK's last bits differ between builds, so
    # the digest pins the hex of every entry of the 120 compressed matrices, 61,428 in all
    digest = hashlib.sha256()
    for clusters in _pinned_clusters():
        block = _compressed_zeros(clusters, lambda block: block)
        assert len(block) == len(clusters) - 1
        entries = [complex(x) for row in block for x in row]
        digest.update(" ".join(f"{x.real.hex()},{x.imag.hex()}" for x in entries).encode() + b"\n")
    assert digest.hexdigest() == "77a0922e8f05e3b520f2544f884487e897ddeabc771b6a8817f5f2e7425ffd12"


def _compensated_sum(items):
    """sum() with a float total, or each part of a complex one, correctly rounded."""
    items = list(items)
    if all(isinstance(x, int) for x in items):
        return builtins.sum(items)
    real = math.fsum(x.real for x in items)
    if all(isinstance(x, (int, float)) for x in items):
        return real
    return complex(real, math.fsum(x.imag for x in items))


def test_complex_points_do_not_depend_on_how_sum_rounds(monkeypatch):
    # Python 3.12 made sum() of floats compensated, and 3.14 that of complex numbers; the
    # solve adds its means and centre left to right from 0, the same bits on every version
    instances = [_unit_disk(3000 + 10 * n + k, n) for n in (5, 12, 20) for k in range(6)]
    instances += [tuple(z for z in _unit_disk(3100 + 10 * n + k, n) for _ in range(1 + k % 3))
                  for n in (3, 5, 8) for k in range(6)]
    instances += [tuple(c + r * cmath.exp(2j * math.pi * j / k) for j in range(k))
                  for c, r in [(0.3 - 0.7j, 0.9), (1e-3 + 2j, 3.0)] for k in range(3, 12)]
    want = [[(b.real.hex(), b.imag.hex()) for b in _complex_critical_points(roots)] for roots in instances]
    monkeypatch.setattr(critical, "sum", _compensated_sum, raising=False)
    got = [[(b.real.hex(), b.imag.hex()) for b in _complex_critical_points(roots)] for roots in instances]
    assert got == want
