"""Zeros of the derivative (and higher derivatives) of a monic polynomial.

Critical points are found from the zeros alone, so the polynomial must
carry them (build it with from_roots); coefficients feed only the
reported residuals.  Coincident zeros are grouped by a gap relative to
their size, and a zero of multiplicity m is its own critical point m - 1
times.  The others are the zeros of the logarithmic derivative sum
f(z) = sum m_i / (z - v_i) over the k distinct zeros v_i.

Those k - 1 zeros are exactly the eigenvalues of diag(v) compressed onto
the complement of the weight vector (sqrt(m_i)) (R. Pereira, J. Math.
Anal. Appl. 2003; S. M. Malamud, Trans. AMS 2005).  Each solve starts
from one LAPACK eigen-solve of that (k - 1)-square matrix, and the two
code paths only polish its eigenvalues:

* all zeros real: the matrix is symmetric, and its i-th eigenvalue lies
  in the i-th gap between neighbouring zeros, where f is strictly
  decreasing and its sign brackets the one critical point.  Its computed
  value is non-increasing over consecutive floats too (each term is a
  correctly rounded monotone function of x, and fsum rounds correctly),
  so the point is defined by the computed signs alone, whatever the
  start: the midpoint of the last float where the sum is >= 0 and the
  first where it is <= 0.  Newton steps from the start, each step's
  slope taken from the terms of the sum just computed, find that pair.
* otherwise: total-step Aberth sweeps on arrays, no BLAS call, on the
  secular form of the zeros, that is on Q(z) = f(z) prod (z - v_i)
  evaluated through f, from the eigenvalues rounded to a grid, so
  neither the eigen-solve's last bits nor a BLAS kernel's rounding
  reaches the points.  Iterates whose inclusion discs overlap close in
  on an m-fold critical point, and are finished together by Newton on
  the m-th derivative, which has a simple zero there.  A disc's radius
  is deg Q * max(|f|, floor * size) / |f h - g|: the noise floor keeps
  it from shrinking where |f| is only roundoff.

Each solve multiplies its zeros by one power of two before grouping
them, which is exact in the normal range, and maps the points back.
The real path takes the midpoint of the largest and smallest exponents
of the nonzero zeros, raised to keep the largest below 2**1022; while
those exponents span well under the normal range, no zero, gap or term
m / (x - v) is subnormal or overflows.  A gap that is still narrower
than the smallest normal double is solved on the zeros times its own
power of two, which brings its ends near 1: the zeros that then leave
double range are infinite, and add a signed 0 to the sum.  The complex
path brings the largest component near 1, so no difference of two
zeros overflows.

Higher derivatives repeat the step on the previous stage's points.
Solver state is per call; calls are independent and concurrency-safe.
"""

from __future__ import annotations

import bisect
import cmath
import math
import struct
import sys
from dataclasses import dataclass
from functools import reduce
from operator import add, truediv

import numpy as np

from .polynomials import (
    MonicPolynomial,
    RootMultiset,
    RootsLike,
    _derive,
    _evaluation_scale,
    _horner,
    derivative,
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
_NEWTON_BUDGET = 64  # bracketing steps per interval before bisection over the floats' places
_STEP_TOL = 1e-13
_MIN_NORMAL = sys.float_info.min
_CLUSTER_GAP = 1e-12  # gap, relative to the zeros' size, below which zeros count as repeated


class ConvergenceError(RuntimeError):
    """The iteration budget ran out, or the eigen-solve for the starts failed.

    Carries the last iterates, none where there were no starts, and each
    one's |f| / size there.
    """

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
    scale = _evaluation_scale(coeffs, z)
    if scale == 0.0:
        return 0.0
    return abs(_horner(coeffs, z)) / scale


def _coincident(u, w) -> bool:
    return abs(u - w) <= _CLUSTER_GAP * max(abs(u), abs(w))


def _compressed_zeros(clusters, eig) -> list:
    """The zeros of f(z) = sum m / (z - v) over the clusters (v, m), by one eigen-solve.

    They are the eigenvalues of diag(v) compressed onto the complement of
    the unit vector w = (sqrt(m / n)): the Householder reflection
    H = I - u u^T / (1 + w_0), u = w + e_0, takes w to -e_0, so the lower
    right (k - 1)-square block of H diag(v) H is that compression.  Row
    i >= 1 of H is e_i - w_i p, with p = u / (1 + w_0), so over i, j >= 1
    the block is diag(v_i) + w_i (c w_j - a_j) - a_i w_j, with a_i = v_i p_i
    and c = sum v p^2: no matrix product is needed.  eig is
    np.linalg.eigvalsh for real v, whose block is symmetric and whose
    ascending eigenvalues then fall one in each gap between neighbouring
    v, or np.linalg.eigvals for complex v.  The v are first divided by
    the power of two that brings their largest component below 1, so no
    entry overflows.  A LAPACK failure raises ConvergenceError.
    """
    vals, mults = zip(*clusters)
    v = np.array(vals)
    scale = 2.0 ** -math.frexp(max(map(abs, v.view(float).tolist())))[1]  # components: a modulus can overflow
    v *= scale
    w = np.sqrt(np.array(mults) / sum(mults))
    p = w[1:] / (1.0 + w[0])
    a = v[1:] * p
    c = v[0] + np.add.reduce(a * p)
    w = w[1:]
    block = np.multiply.outer(w, c * w - a)
    block.flat[::len(w) + 1] += v[1:]
    block -= np.multiply.outer(a, w)
    try:
        zeros = eig(block)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"no eigenvalue start: {exc}", (), ()) from None
    return (zeros / scale).tolist()


# ---------------------------------------------------------------------------
# all-real path


def _cluster_reals(values) -> tuple[list[tuple[float, float]], int]:
    """Sorted (representative, multiplicity) pairs of the values times 2**-e, and e.

    e comes from the exponents of the largest and the smallest nonzero
    magnitude.  A lone value is its own representative, with -0.0 read as
    +0.0, as fsum reads it; a repeated one is the mean of its members.  The
    multiplicities are floats, so a term m / (x - v) converts no int.
    """
    ordered = sorted(values)
    i = bisect.bisect_left(ordered, 0.0)
    j = bisect.bisect_right(ordered, 0.0, i)
    near = ordered[i - 1:i] + ordered[j:j + 1]  # the nonzero values nearest 0
    e = 0
    if near:
        small, big = math.frexp(min(map(abs, near)))[1], math.frexp(max(-ordered[0], ordered[-1]))[1]
        e = max((small + big) // 2, big - 1022)
        if e:
            ordered = [math.ldexp(v, -e) for v in ordered]
    # a run of coincident values ends where _coincident(u, v) fails: for u <= v, max(|u|, |v|) is max(-u, v)
    ends = [i for i, u, v in zip(range(1, len(ordered)), ordered, ordered[1:])
            if v - u > _CLUSTER_GAP * (v if v > -u else -u)]
    return [(ordered[i] + 0.0, 1.0) if j - i == 1 else (math.fsum(ordered[i:j]) / (j - i), float(j - i))
            for i, j in zip([0] + ends, ends + [len(ordered)])], e


def _log_derivative(clusters, x: float) -> tuple[float, list[float]]:
    """f(x) = sum m / (x - v), correctly rounded, and its terms."""
    terms = [m / (x - v) for v, m in clusters]
    return math.fsum(terms), terms


def _sqrt_multiplicities(clusters) -> list[float]:
    """sqrt(m) of each cluster (v, m), or [] where every m is 1: the weights of the Newton slope."""
    return [] if all(m == 1 for _, m in clusters) else [math.sqrt(m) for _, m in clusters]


def _zero_band(v: float) -> float:
    """w > 0 with x - v == -v exactly whenever |x| < w."""
    return math.ulp(v) / (4.0 if abs(math.frexp(v)[0]) == 0.5 else 2.0)


def _ordinal(x: float) -> int:
    """The place of x among the floats: consecutive floats are consecutive integers, +-0 is 0."""
    k = struct.unpack("<q", struct.pack("<d", x))[0]
    return k if k >= 0 else -(k & 0x7FFFFFFFFFFFFFFF)


def _from_ordinal(k: int) -> float:
    """The float at place k: the inverse of _ordinal, with 0 read as +0."""
    return struct.unpack("<d", struct.pack("<Q", k if k >= 0 else -k | 1 << 63))[0]


def _zero_run_end(clusters, zero: float, bound: float) -> float:
    """The float furthest from zero toward bound, bound excluded, where the sum is exactly 0.

    The sum is 0 at zero, and bound is a pole or a float where it is not;
    its computed value is monotone over the floats between, so its zeros
    there form one run.  Steps toward bound double while they find 0,
    then the last step is bisected, over the floats' places.
    """
    good, bad = _ordinal(zero), _ordinal(bound)
    step = 1 if bad > good else -1
    while abs(bad - good) > 1:
        probe = good + step if abs(step) < abs(bad - good) else (good + bad) // 2
        if _log_derivative(clusters, _from_ordinal(probe))[0] == 0.0:
            good, step = probe, 2 * step
        else:
            bad = probe
    return _from_ordinal(good)


def _interval_zero(clusters, lo: float, hi: float, start: float, roots=None) -> float:
    """The single derivative zero in the open interval (lo, hi), read off the signs of the sum.

    f is strictly decreasing on (lo, hi), positive near lo and negative
    near hi, and its computed value is non-increasing over consecutive
    floats there: each term m / (x - v) is a correctly rounded, monotone
    function of x, and fsum rounds the exact sum of the terms correctly.
    So the result is defined by the computed signs alone: 0.0 where
    (lo, hi) holds 0 and the sum is 0 there, and otherwise 0.5*p + 0.5*q,
    with p the last float of (lo, hi) where the sum is >= 0 and q the
    first where it is <= 0.  p and q are two adjacent floats about a sign
    change, or the two ends of a run of floats where the sum is exactly 0.
    The result depends on neither the start nor the steps that visit
    those floats.  A start that is not a float inside (lo, hi) becomes
    the midpoint.

    Across 0, the floats near 0 are finer than the sum can see: while |x|
    is below a band set by the ulps of lo and hi, every x - v rounds to -v,
    so the sum is f(0) on the whole band.  Its sign is read once, at 0,
    before any step: a positive one moves a up to the band's largest
    float, a negative one b down to its smallest.  No step can then land
    in the band, where Newton's zero of the exact f can lie and each step
    would move x by the same tiny amount.

    Then Newton steps on F(x) = f(x) (x - lo)(hi - x), which has no pole
    at either end, shrink a bracket (a, b) with f(a) > 0 > f(b) until a
    and b are adjacent floats.  Each step's slope comes from the terms
    t = m / (x - v) of the sum just taken: -f'(x) = sum t^2 / m, whose
    square root math.hypot takes, without overflow, over t / sqrt(m).
    roots are those sqrt(m), as _sqrt_multiplicities gives them, and are
    read from the clusters when not given.  From an eigenvalue start the
    steps usually end after about three sums.  A step that leaves the
    bracket, or has no usable slope, becomes its midpoint; a step too
    small to move x probes the next float toward the zero, and each later
    such probe goes twice as far.  Should the steps run out, the bracket
    is bisected over the floats' places, in at most 64 more sums.

    Where f is exactly 0 at a float, the floats where it is 0 form one
    run, and its ends q and p are found from that float: steps toward a
    and toward b double while f stays 0, then the last one is bisected.
    """
    nextafter, hypot, inf = math.nextafter, math.hypot, math.inf
    a, b = lo, hi  # f > 0 at the floats of (lo, a], f < 0 at those of [b, hi)
    if lo < 0.0 < hi:  # inner: the band's largest float
        inner = nextafter(min(_zero_band(lo), _zero_band(hi)), 0.0)
        s = _log_derivative(clusters, 0.0)[0]
        if not s:
            return 0.0
        a, b = (inner, b) if s > 0.0 else (a, -inner)
    d = 0.5 * hi - 0.5 * lo  # the step is taken relative to the half-width
    if roots is None:
        roots = _sqrt_multiplicities(clusters)
    x = start if lo < start < hi else 0.5 * lo + 0.5 * hi  # lo + hi may overflow
    probe = 1.0  # ulps of x
    for k in range(_NEWTON_BUDGET + 64):
        if k >= _NEWTON_BUDGET or not a < x < b:  # once the steps ran out, bisect over the floats' places
            x = 0.5 * a + 0.5 * b if k < _NEWTON_BUDGET else _from_ordinal((_ordinal(a) + _ordinal(b)) // 2)
        s, terms = _log_derivative(clusters, x)
        if s > 0.0:
            a = x
        elif s < 0.0:
            b = x
        else:
            return 0.5 * _zero_run_end(clusters, x, a) + 0.5 * _zero_run_end(clusters, x, b)
        if nextafter(a, b) == b:
            break
        h = d * hypot(*(map(truediv, terms, roots) if roots else terms))  # sqrt(-f'(x)) d
        sd = s * d
        den = sd * (d / (x - lo) - d / (hi - x)) - h * h  # F'(x) d^2 / ((x - lo)(hi - x))
        x_new = x - d * sd / den if -inf < den < 0.0 else math.nan  # nan: bisect
        if x_new == x:  # probe toward the zero
            x_new = x + math.copysign(probe * math.ulp(x), s)
            probe *= 2.0
        x = x_new
    return 0.5 * a + 0.5 * b


def _real_critical_points(values) -> list[float]:
    """Sorted zeros of the derivative of prod(x - v) for real values v.

    The stage's power of two can leave a gap subnormal beside a zero near
    the top of double range; that gap is solved at its own power of two.
    """
    clusters, e = _cluster_reals(values)
    starts = _compressed_zeros(clusters, np.linalg.eigvalsh)
    roots = _sqrt_multiplicities(clusters)
    points: list[float] = []
    for (lo, mult), (hi, _), start in zip(clusters, clusters[1:], starts):
        if mult > 1:
            points += [math.ldexp(lo, e)] * int(mult - 1)
        rescaled, k = clusters, 0
        if hi - lo < _MIN_NORMAL:
            # k > 0, as coincident zeros are one cluster: max(-lo, hi) < 2**-1022 / _CLUSTER_GAP
            k = -math.frexp(max(-lo, hi))[1]
            # two factors, as 2**k may overflow; a product beyond double range is infinite
            rescaled = [(v * 2.0 ** (k // 2) * 2.0 ** (k - k // 2), m) for v, m in clusters]
            start = math.ldexp(start, k) if lo < start < hi else math.nan
            lo, hi = math.ldexp(lo, k), math.ldexp(hi, k)
        points.append(math.ldexp(_interval_zero(rescaled, lo, hi, start, roots), e - k))
    rep, mult = clusters[-1]
    points += [math.ldexp(rep, e)] * int(mult - 1)
    return points


# ---------------------------------------------------------------------------
# complex path: Aberth sweeps on the secular form of the zeros


def _groups(points, reach, near) -> list[list[int]]:
    """Indices of the complex points grouped by chains of near pairs.

    near(i, j) must imply |Re p_i - Re p_j| <= reach[i] + reach[j], so only
    the points within reach[i] + max(reach) of p_i in real part are tested,
    found by a walk out from it in the order of real parts.  Point i joins
    the groups of the earlier points near it, in index order: they merge
    into one group, moved last, that lists i and then their members in
    the groups' order, as a scan of every pair would.
    """
    re = [p.real for p in points]
    order = sorted(range(len(points)), key=re.__getitem__)
    rank = {i: k for k, i in enumerate(order)}
    widest = max(reach, default=0.0)
    owner: dict[int, list[int]] = {}
    groups: list[list[int]] = []
    for i in range(len(points)):
        bound = reach[i] + widest
        hits = set()  # ids of the groups of earlier points near i
        for step in (-1, 1):
            k = rank[i] + step
            while 0 <= k < len(order) and abs(re[order[k]] - re[i]) <= bound:
                j = order[k]
                if j < i and near(i, j):
                    hits.add(id(owner[j]))
                k += step
        group = [i]
        if hits:
            group += [j for g in groups if id(g) in hits for j in g]
            groups = [g for g in groups if id(g) not in hits]
        groups.append(group)
        owner.update((j, group) for j in group)
    return groups


def _secular(clusters, z: complex) -> tuple[complex, float]:
    """f = sum m/(z - v) and sum m/|z - v|, the scale of its roundoff."""
    f = 0j
    size = 0.0
    for v, m in clusters:
        w = 1.0 / (z - v)
        f += m * w
        size += m * abs(w)
    return f, size


def _left_sum(items) -> complex:
    """The items added up left to right from 0.

    Not sum(), which is compensated for floats from Python 3.12 and for
    complex numbers from 3.14: this gives the same bits on every version.
    """
    return reduce(add, items, 0)


def _ldexp(z: complex, e: int) -> complex:
    """z * 2**e, by components."""
    return complex(math.ldexp(z.real, e), math.ldexp(z.imag, e))


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
                f, size = _secular(clusters, b)
                return b if abs(f) <= floor * size else None
    except ZeroDivisionError:  # b hit a zero, or e_{m+1} vanished
        pass
    return None


def _complex_critical_points(values) -> list[complex]:
    """Sorted zeros of the derivative of prod(z - v) for complex values v.

    Total-step Aberth sweeps (Ehrlich 1967; Aberth 1973) on arrays, no
    BLAS call, on the zeros of Q(z) = f(z) prod (z - v), from the
    eigenvalues of the compressed zero matrix, each rounded to a multiple
    of 2**-32 in the scaled plane: a start so near its zero usually
    converges in two sweeps, and LAPACK's last bits, which differ between
    BLAS builds, change a start only where they straddle a grid midpoint.
    A sweep moves every active iterate at once by f / (f (h - pull) - g),
    with h = sum 1/(z - v), g = sum m/(z - v)^2 and pull the sum of
    1/(z - z_j) over the other iterates: elementwise products and row
    sums, which round alike on every CPU, where BLAS kernels do not.  An
    iterate is done when f is at its roundoff floor or its step is below
    _STEP_TOL of max(|z|, spread).  Those on a zero or another iterate,
    or with a zero denominator, are nudged off, each by its own multiple
    of _STEP_TOL * spread, so iterates that coincide come apart; one
    whose sums overflow goes NaN, and the budget runs out.

    Iterates whose inclusion discs overlap close in on one m-fold
    critical point; Newton on P^(m) from their mean finishes it, and is
    kept only where f vanishes to roundoff.  A disc's radius is
    deg Q * max(|f|, floor * size) / |f h - g| from the iterate's last
    sweep, and 0 on a zero: near a multiple critical point the computed
    |f| is only roundoff, and this noise floor keeps the discs from
    shrinking below it.
    """
    # components, not abs(): the modulus of a zero near the top of double range overflows
    e = math.frexp(max(max(abs(v.real), abs(v.imag)) for v in values))[1]
    scaled = [_ldexp(v, -e) for v in values]
    reach = [_CLUSTER_GAP * abs(u) for u in scaled]
    groups = _groups(scaled, reach, lambda i, j: _coincident(scaled[i], scaled[j]))
    clusters = [(_left_sum(scaled[i] for i in g) / len(g), len(g)) for g in groups]
    # a repeated zero's point: its unscaled mean, or the scaled one mapped back where the sum overflows
    means = [_left_sum(values[i] for i in g) / len(g) for g in groups]
    points = [u if cmath.isfinite(u) else _ldexp(v, e) for u, (v, m) in zip(means, clusters) for _ in range(m - 1)]
    d = len(clusters) - 1  # degree of Q
    n = len(values)
    center = _left_sum(m * v for v, m in clusters) / n
    spread = max(abs(v - center) for v, _ in clusters)
    floor = 4 * n * sys.float_info.epsilon
    v = np.array([c for c, _ in clusters])
    mult = np.array([m for _, m in clusters], dtype=float)
    z = np.round(np.array(_compressed_zeros(clusters, np.linalg.eigvals), complex) * 2**32) / 2**32
    f, q, size = np.zeros(d, complex), np.zeros(d, complex), np.zeros(d)  # each iterate's last f, f h - g, size
    active = np.arange(d)
    with np.errstate(all="ignore"):  # a division by zero or an overflow shows as a non-finite step
        for _ in range(_SWEEP_BUDGET):
            if not active.size:
                break
            za = z[active]
            w = 1.0 / (za[:, None] - v)
            mw = mult * w
            fa, ha, ga = mw.sum(axis=1), w.sum(axis=1), (mw * w).sum(axis=1)
            gap = za[:, None] - z
            gap[np.arange(active.size), active] = np.inf
            den = fa * (ha - (1.0 / gap).sum(axis=1)) - ga
            step = fa / den
            sa = np.abs(mw).sum(axis=1)
            f[active], q[active], size[active] = fa, fa * ha - ga, sa
            moved = za - step
            done = (np.abs(fa) <= floor * sa) | (np.abs(step) <= _STEP_TOL * np.maximum(np.abs(moved), spread))
            nudge = ~np.isfinite(step)
            if nudge.any():  # a division by zero: on a zero or another iterate, or no slope; not an overflow
                nudge &= (za[:, None] == v).any(axis=1) | (gap == 0).any(axis=1) | (den == 0)
                moved[nudge] = za[nudge] + _STEP_TOL * spread * (1 + 1j) * np.arange(1, nudge.sum() + 1)
                done &= ~nudge
            z[active] = moved
            active = active[~done]
        if active.size:
            mw = mult / (z[:, None] - v)
            raise ConvergenceError(
                f"no convergence after {_SWEEP_BUDGET} sweeps",
                tuple(_ldexp(b, e) for b in z.tolist()),
                tuple((np.abs(mw.sum(axis=1)) / np.abs(mw).sum(axis=1)).tolist()),
            )
        radii = np.where((z[:, None] == v).any(axis=1), 0.0, d * np.maximum(np.abs(f), floor * size) / np.abs(q))
    z, radii = z.tolist(), radii.tolist()
    for group in _groups(z, radii, lambda i, j: abs(z[i] - z[j]) <= radii[i] + radii[j]):
        if len(group) > 1:
            mean = _left_sum(z[i] for i in group) / len(group)
            b = _multiple_zero(clusters, mean, len(group), spread, floor)
            if b is not None:
                for i in group:
                    z[i] = b
    points += [_ldexp(b, e) for b in z]
    # real parts on a grid of the scaled plane, so roundoff off a vertical line cannot order it
    points.sort(key=lambda b: (round(math.ldexp(b.real, -e), 12), b.imag))
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
    return higher_derivative_zeros(p, 1)


def higher_derivative_zeros(p: MonicPolynomial, k: int) -> CriticalSet:
    """All zeros of the k-th derivative, 1 <= k <= degree - 1.

    Stage 1 solves on the zeros of p; each later stage solves on the
    previous stage's points, which are the zeros of the derivative before
    it.  Residuals are taken against the k-th derivative's coefficients.
    """
    if p.degree < 2:
        raise ValueError("critical points need degree at least 2")
    if p.roots is None:
        raise ValueError("critical points need the zeros; build the polynomial with from_roots")
    if not 1 <= k <= p.degree - 1:
        raise ValueError(f"order must be in 1..{p.degree - 1}, got {k}")
    if p.roots.is_real():
        points, solve, method = p.roots.reals(), _real_critical_points, INTERLACE
    else:
        points, solve, method = p.roots.roots, _complex_critical_points, SIMULTANEOUS
    coeffs = derivative(p)
    for _ in range(k - 1):
        coeffs = _derive(coeffs)
    for _ in range(k):
        points = solve(points)
    return _critical_set(coeffs, points, method)


@dataclass(frozen=True)
class DistanceTable:
    """Each zero's distance to its nearest derivative zero, and the least zero's farthest."""

    per_zero_min: tuple[float, ...]  # one per zero
    all_within_unit: bool  # every zero has a derivative zero strictly within 1
    min_zero_index: int  # smallest-modulus zero (ties: smallest index)
    max_from_min_zero: float  # worst distance from that zero to any derivative zero


def sendov_distances(roots: RootsLike, crit: CriticalSet) -> DistanceTable:
    """Zero-to-critical-point summaries of the zeros against a computed critical set."""
    rs = RootMultiset(roots)
    per_zero_min = tuple(min(abs(a - b) for b in crit.points) for a in rs.roots)
    j = rs.min_modulus_index()
    return DistanceTable(
        per_zero_min=per_zero_min,
        all_within_unit=all(m < 1.0 for m in per_zero_min),
        min_zero_index=j,
        max_from_min_zero=max(abs(rs.roots[j] - b) for b in crit.points),
    )
