"""Zeros of the derivative (and higher derivatives) of a monic polynomial.

Critical points are found from the zeros alone, so the polynomial must
carry them (build it with from_roots); coefficients feed only the
reported residuals.  Coincident zeros are grouped, and a zero of
multiplicity m is its own critical point m - 1 times.  The others are
the zeros of the logarithmic derivative sum f(z) = sum m_i / (z - v_i)
over the distinct zeros v_i.  Two code paths:

* all zeros real: f is strictly decreasing between neighbouring distinct
  zeros, so bisection on its sign finds the one critical point in each
  open interval.
* otherwise: Aberth sweeps on the secular form of the zeros, that is on
  Q(z) = f(z) prod (z - v_i) evaluated through f.  Iterates that close in
  on an m-fold critical point are finished together by Newton on the
  m-th derivative, which has a simple zero there.

Higher derivatives repeat the step on the previous stage's points.
Solver state is per call; calls are independent and concurrency-safe.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

from .polynomials import (
    MonicPolynomial,
    RootMultiset,
    RootsLike,
    _derive,
    _horner,
    derivative,
    evaluation_scale,
)

__all__ = [
    "ConvergenceError",
    "CriticalSet",
    "DistanceTable",
    "critical_points",
    "higher_derivative_zeros",
    "sendov_distances",
]

INTERLACE = "interlace-bisection"
SIMULTANEOUS = "simultaneous-iteration"

_SWEEP_BUDGET = 200
_STEP_TOL = 1e-13
_CLUSTER_GAP = 1e-12  # absolute gap below which real zeros count as repeated


class ConvergenceError(RuntimeError):
    """The iteration budget ran out; carries the best iterates seen."""

    def __init__(self, message: str, iterates: tuple[complex, ...], residuals: tuple[float, ...]):
        super().__init__(message)
        self.iterates = iterates
        self.residuals = residuals


@dataclass(frozen=True)
class CriticalSet:
    """Zeros of a derivative, counted with multiplicity.

    residuals are |value at point| divided by the evaluation scale of the
    derivative's coefficient vector at that point.
    """

    points: tuple[complex, ...]
    residuals: tuple[float, ...]
    method: str


def _scaled_residual(coeffs, z: complex) -> float:
    scale = evaluation_scale(coeffs, z)
    if scale == 0.0:
        return 0.0
    return abs(_horner(coeffs, z)) / scale


# ---------------------------------------------------------------------------
# all-real path


def _cluster_reals(values) -> list[tuple[float, int]]:
    """Sorted (representative, multiplicity) pairs, chaining gaps <= _CLUSTER_GAP."""
    ordered = sorted(values)
    clusters: list[list[float]] = [[ordered[0]]]
    for v in ordered[1:]:
        if v - clusters[-1][-1] <= _CLUSTER_GAP:
            clusters[-1].append(v)
        else:
            clusters.append([v])
    return [(math.fsum(c) / len(c), len(c)) for c in clusters]


def _log_derivative(clusters, x: float) -> float:
    return math.fsum(m / (x - v) for v, m in clusters)


def _interval_zero(clusters, lo: float, hi: float) -> float:
    """The single derivative zero in the open interval (lo, hi).

    The logarithmic derivative sum m_i / (x - v_i) is strictly decreasing
    there, positive near lo and negative near hi, so bisection on its
    sign is safe even when the endpoints are repeated zeros.  It runs
    until the bracket cannot shrink, which leaves the zero to within
    about an ulp.
    """
    a, b = lo, hi
    for _ in range(200):
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            break
        s = _log_derivative(clusters, mid)
        if s > 0.0:
            a = mid
        elif s < 0.0:
            b = mid
        else:
            return mid
    return 0.5 * (a + b)


def _real_critical_points(values) -> list[float]:
    """Sorted zeros of the derivative of prod(x - v) for real values v."""
    clusters = _cluster_reals(values)
    points: list[float] = []
    for rep, mult in clusters:
        points.extend([rep] * (mult - 1))
    for (lo, _), (hi, _) in zip(clusters, clusters[1:]):
        points.append(_interval_zero(clusters, lo, hi))
    points.sort()
    return points


# ---------------------------------------------------------------------------
# complex path: Aberth sweeps on the secular form of the zeros


def _groups(items, near) -> list[list]:
    """Items grouped by chains of near pairs."""
    groups: list[list] = []
    for x in items:
        joined = [g for g in groups if any(near(x, y) for y in g)]
        groups = [g for g in groups if all(g is not h for h in joined)]
        groups.append([x] + [y for g in joined for y in g])
    return groups


def _secular(clusters, z: complex) -> tuple[complex, complex, complex, float]:
    """f = sum m/(z - v), g = sum m/(z - v)^2, h = sum 1/(z - v), and sum m/|z - v|.

    Q(z) = f(z) prod (z - v) vanishes at the critical points that are not
    zeros of P, and Q/Q' = f / (f h - g).
    """
    f = g = h = 0j
    size = 0.0
    for v, m in clusters:
        w = 1.0 / (z - v)
        f += m * w
        g += m * w * w
        h += w
        size += m * abs(w)
    return f, g, h, size


def _multiple_zero(clusters, b: complex, m: int, scale: float, floor: float) -> complex | None:
    """Newton on P^(m) from b, which has a simple zero at an m-fold zero of P'.

    P^(j)/P = j! e_j, with e_j the elementary symmetric functions of the
    1/(z - a_i), so the step is e_m / ((m + 1) e_{m+1}).  None unless the
    steps settle where f vanishes to roundoff.
    """
    try:
        for _ in range(_SWEEP_BUDGET):
            e = [1 + 0j] + [0j] * (m + 1)
            for v, k in clusters:
                w = 1.0 / (b - v)
                for _ in range(k):
                    for j in range(m + 1, 0, -1):
                        e[j] += w * e[j - 1]
            step = e[m] / ((m + 1) * e[m + 1])
            b -= step
            if abs(step) <= _STEP_TOL * max(abs(b), scale):
                f, _, _, size = _secular(clusters, b)
                return b if abs(f) <= floor * size else None
    except ZeroDivisionError:  # b hit a zero, or e_{m+1} vanished
        pass
    return None


def _complex_critical_points(values, budget: int = _SWEEP_BUDGET) -> list[complex]:
    """Sorted zeros of the derivative of prod(z - v) for complex values v.

    Gauss-Seidel Aberth sweeps on the zeros of Q, from a circle about the
    weighted centroid with half the zeros' spread as radius.  An iterate
    is done when f is at its roundoff floor or its step is below
    _STEP_TOL of max(|z|, spread).  Iterates whose inclusion discs
    (radius deg Q * |Q/Q'|) overlap close in on one m-fold critical
    point; Newton on P^(m) from their mean finishes it, and is kept only
    where f vanishes to roundoff.
    """
    clusters = [
        (sum(g) / len(g), len(g))
        for g in _groups(values, lambda u, w: abs(u - w) <= _CLUSTER_GAP)
    ]
    points = [v for v, m in clusters for _ in range(m - 1)]
    d = len(clusters) - 1  # degree of Q
    n = len(values)
    center = sum(m * v for v, m in clusters) / n
    spread = max(abs(v - center) for v, _ in clusters)
    floor = 4 * n * sys.float_info.epsilon
    # the 0.4 offset keeps the start off the symmetry axes of the zeros
    z = [center + 0.5 * spread * cmath.exp(1j * (2 * math.pi * k / d + 0.4)) for k in range(d)]
    done = [False] * d
    for _ in range(budget):
        if all(done):
            break
        for i, zi in enumerate(z):
            if done[i]:
                continue
            try:
                f, g, h, size = _secular(clusters, zi)
                pull = sum(1.0 / (zi - zj) for j, zj in enumerate(z) if j != i)
                step = f / (f * (h - pull) - g)
            except ZeroDivisionError:  # on a zero or another iterate
                z[i] = zi + _STEP_TOL * spread * (1 + 1j)
                continue
            z[i] = zi - step
            done[i] = abs(f) <= floor * size or abs(step) <= _STEP_TOL * max(abs(z[i]), spread)
    if not all(done):
        sums = [_secular(clusters, zi) for zi in z]
        raise ConvergenceError(
            f"no convergence after {budget} sweeps",
            tuple(z),
            tuple(abs(f) / size for f, _, _, size in sums),
        )
    radii = []
    for zi in z:
        f, g, h, _ = _secular(clusters, zi)
        den = abs(f * h - g)
        radii.append(d * abs(f) / den if den else math.inf)
    for group in _groups(range(d), lambda i, j: abs(z[i] - z[j]) <= radii[i] + radii[j]):
        if len(group) > 1:
            mean = sum(z[i] for i in group) / len(group)
            b = _multiple_zero(clusters, mean, len(group), spread, floor)
            if b is not None:
                for i in group:
                    z[i] = b
    points += z
    points.sort(key=lambda b: (b.real, b.imag))
    return points


# ---------------------------------------------------------------------------
# public operations


def _critical_set(coeffs, points, method: str) -> CriticalSet:
    """Points with their scaled residuals against the coefficient vector."""
    points = tuple(complex(b) for b in points)
    residuals = tuple(_scaled_residual(coeffs, b) for b in points)
    return CriticalSet(points=points, residuals=residuals, method=method)


def critical_points(p: MonicPolynomial) -> CriticalSet:
    """All zeros of P', counted with multiplicity (degree - 1 of them).

    The polynomial must carry its zeros (build it with from_roots).
    """
    if p.degree < 2:
        raise ValueError("critical points need degree at least 2")
    if p.roots is None:
        raise ValueError("critical points need the zeros; build the polynomial with from_roots")
    deriv_coeffs = derivative(p)
    if p.roots.is_real():
        return _critical_set(deriv_coeffs, _real_critical_points(p.roots.reals()), INTERLACE)
    return _critical_set(deriv_coeffs, _complex_critical_points(p.roots.roots), SIMULTANEOUS)


def higher_derivative_zeros(p: MonicPolynomial, k: int) -> CriticalSet:
    """All zeros of the k-th derivative, 1 <= k <= degree - 1.

    Stage 1 is critical_points(p); each later stage solves on the previous
    stage's points, which are the zeros of the derivative before it.
    Residuals are taken against the k-th derivative's coefficients.
    """
    if not 1 <= k <= p.degree - 1:
        raise ValueError(f"order must be in 1..{p.degree - 1}, got {k}")
    coeffs = derivative(p)
    for _ in range(k - 1):
        coeffs = _derive(coeffs)
    crit = critical_points(p)
    if crit.method == INTERLACE:
        points, solve = [b.real for b in crit.points], _real_critical_points
    else:
        points, solve = list(crit.points), _complex_critical_points
    for _ in range(k - 1):
        points = solve(points)
    return _critical_set(coeffs, points, crit.method)


@dataclass(frozen=True)
class DistanceTable:
    """All |a_i - b_k| distances between zeros and derivative zeros."""

    distances: tuple[tuple[float, ...], ...]  # one row per zero
    per_zero_min: tuple[float, ...]
    all_within_unit: bool  # every zero has a derivative zero strictly within 1
    min_zero_index: int  # smallest-modulus zero (ties: smallest index)
    max_from_min_zero: float  # worst distance from that zero to any derivative zero


def sendov_distances(roots: RootsLike, crit: CriticalSet) -> DistanceTable:
    """Distance table between the zeros and a computed critical set."""
    rs = RootMultiset(roots)
    rows = tuple(
        tuple(abs(a - b) for b in crit.points)
        for a in rs.roots
    )
    per_zero_min = tuple(min(row) for row in rows)
    j = rs.min_modulus_index()
    return DistanceTable(
        distances=rows,
        per_zero_min=per_zero_min,
        all_within_unit=all(m < 1.0 for m in per_zero_min),
        min_zero_index=j,
        max_from_min_zero=max(rows[j]),
    )
