"""Zeros of the derivative (and higher derivatives) of a monic polynomial.

Two code paths:

* all zeros known and real: sort, cluster coincident zeros, and bisect
  on the sign of the logarithmic derivative sum m_i / (x - v_i) for the
  single derivative zero in each open interval between distinct zeros.
  A zero of multiplicity m contributes itself m-1 times.  Points come
  from the zeros alone (coefficients feed only the reported residuals);
  higher derivatives repeat the step on the previous stage's points.
* otherwise: normalize the derivative to monic and run a simultaneous
  (Aberth-style) Jacobi iteration from equally spaced points on a circle,
  polishing each converged point with Newton.

Solver state is per call; calls are independent and concurrency-safe.
"""

from __future__ import annotations

import cmath
import math
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
# simultaneous-iteration path


def _newton_ratio(coeffs, deriv_coeffs, z: complex) -> complex:
    """p(z)/p'(z), using the reversed-coefficient form for |z| > 1 so that
    points on the (possibly huge) starting circle cannot overflow."""
    if abs(z) <= 1.0:
        value = _horner(coeffs, z)
        slope = _horner(deriv_coeffs, z)
        if slope == 0:
            return _nudge(z) if value != 0 else 0j
        return value / slope
    w = 1.0 / z
    high = _horner(tuple(reversed(coeffs)), w)  # p(z) / z^n
    low = _horner(tuple(reversed(deriv_coeffs)), w)  # p'(z) / z^(n-1)
    if low == 0:
        return _nudge(z) if high != 0 else 0j
    return z * high / low


def _nudge(z: complex) -> complex:
    return 1e-6 * (1.0 + abs(z)) * (1 + 1j)


def _start_radius(coeffs) -> float:
    """Fujiwara-style bound on the largest root modulus of a monic vector.

    The plain Cauchy bound 1 + max |c_k| can exceed the true root bound by
    many orders of magnitude at desk-scale degrees, and the iteration only
    contracts like (1 - 1/n) per sweep from far away, so the sweep budget
    could never close that gap.
    """
    n = len(coeffs) - 1
    largest = 0.0
    for k in range(1, n + 1):
        magnitude = abs(coeffs[n - k])
        if k == n:
            magnitude /= 2.0
        if magnitude > 0.0:
            largest = max(largest, magnitude ** (1.0 / k))
    return 1.0 + 2.0 * largest


_MACHINE_EPS = 2.220446049250313e-16


def _roundoff_floor(coeffs, z: complex) -> float:
    """Worst-case roundoff of Horner at z: about 2n eps sum |c_k| |z|^k.

    No max(1, .) flooring here; for vectors with exact zero coefficients
    the bound must shrink with |z| or a still-improving iterate near the
    origin would be declared done too early.
    """
    n = len(coeffs) - 1
    base = abs(z)
    total = 0.0
    power = 1.0
    for c in coeffs:
        total += abs(c) * power
        power *= base
    return (2.0 * n + 2.0) * _MACHINE_EPS * total


def _aberth(coeffs, budget: int = _SWEEP_BUDGET, step_tol: float = _STEP_TOL) -> list[complex]:
    """All zeros of a monic coefficient vector by Gauss-Seidel Aberth sweeps."""
    n = len(coeffs) - 1
    if n == 1:
        return [-coeffs[0]]
    deriv_coeffs = _derive(coeffs)
    radius = _start_radius(coeffs)
    offset = math.pi / (2 * n)
    z = [radius * cmath.exp(1j * (2 * math.pi * k / n + offset)) for k in range(n)]
    worst = math.inf
    for _ in range(budget):
        worst = 0.0
        for i in range(n):
            zi = z[i]
            inv_sum = 0j
            collided = False
            for j in range(n):
                if i == j:
                    continue
                diff = zi - z[j]
                if diff == 0:
                    collided = True
                    break
                inv_sum += 1.0 / diff
            if collided:
                z[i] = zi + 1e-8 * (1.0 + abs(zi)) * cmath.exp(2j * math.pi * i / n)
                worst = math.inf
                continue
            ratio = _newton_ratio(coeffs, deriv_coeffs, zi)
            den = 1.0 - ratio * inv_sum
            step = ratio if den == 0 else ratio / den
            z[i] = zi - step
            rel = abs(step) / (1.0 + abs(z[i]))
            if rel > worst:
                # a value at the Horner roundoff floor has every obtainable
                # digit already; step jitter there is not non-convergence
                value = abs(_horner(coeffs, z[i]))
                if value > _roundoff_floor(coeffs, z[i]):
                    worst = rel
        if worst <= step_tol:
            break
    else:
        residuals = tuple(_scaled_residual(coeffs, zi) for zi in z)
        raise ConvergenceError(
            f"no convergence after {budget} sweeps (worst step {worst:.3e})",
            tuple(z),
            residuals,
        )
    return [_polish(coeffs, deriv_coeffs, zi) for zi in z]


def _polish(coeffs, deriv_coeffs, z: complex, steps: int = 3) -> complex:
    best = z
    best_res = _scaled_residual(coeffs, z)
    for _ in range(steps):
        z = z - _newton_ratio(coeffs, deriv_coeffs, z)
        res = _scaled_residual(coeffs, z)
        if res < best_res:
            best, best_res = z, res
    return best


# ---------------------------------------------------------------------------
# public operations


def _critical_set(coeffs, points, method: str) -> CriticalSet:
    """Points with their scaled residuals against the coefficient vector."""
    points = tuple(complex(b) for b in points)
    residuals = tuple(_scaled_residual(coeffs, b) for b in points)
    return CriticalSet(points=points, residuals=residuals, method=method)


def _simultaneous(coeffs) -> CriticalSet:
    """All zeros of a coefficient vector by Aberth iteration, sorted."""
    monic = tuple(c / coeffs[-1] for c in coeffs[:-1]) + (1 + 0j,)
    found = sorted(_aberth(monic), key=lambda w: (w.real, w.imag))
    return _critical_set(coeffs, found, SIMULTANEOUS)


def critical_points(p: MonicPolynomial) -> CriticalSet:
    """All zeros of P', counted with multiplicity (degree - 1 of them)."""
    if p.degree < 2:
        raise ValueError("critical points need degree at least 2")
    deriv_coeffs = derivative(p)
    if p.roots is not None and p.roots.is_real():
        return _critical_set(deriv_coeffs, _real_critical_points(p.roots.reals()), INTERLACE)
    return _simultaneous(deriv_coeffs)


def higher_derivative_zeros(p: MonicPolynomial, k: int) -> CriticalSet:
    """All zeros of the k-th derivative, 1 <= k <= degree - 1.

    With known real zeros the solver walks down one derivative at a time
    on the zeros alone, each stage interlacing the one before; otherwise
    it differentiates k times and solves once.  Residuals are taken
    against the k-th derivative's coefficients either way.
    """
    if not 1 <= k <= p.degree - 1:
        raise ValueError(f"order must be in 1..{p.degree - 1}, got {k}")
    coeffs = derivative(p)
    for _ in range(k - 1):
        coeffs = _derive(coeffs)
    if p.roots is not None and p.roots.is_real():
        points = [b.real for b in critical_points(p).points]
        for _ in range(k - 1):
            points = _real_critical_points(points)
        return _critical_set(coeffs, points, INTERLACE)
    return _simultaneous(coeffs)


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
