"""Independent oracles used by the tests.

Nothing here imports the code paths under test: expansions are redone
with exact rational arithmetic, polynomial values are taken at 60
digits with mpmath, elementary symmetric values come from
the textbook recurrence, hull containment is a from-scratch
monotone-chain construction, and real derivative zeros are bisected at
60 digits with mpmath, or in exact rationals where the zeros' scales
span the whole double range.  sign_change_interval_zero reads the float
the real critical-point path must return off the signs of the
double-precision sum, by bisection over the floats' places, and scan_groups is
the all-pairs grouping that the complex path once ran, kept as the
reference for the groups it must still form.  distance_summary reads
the zero-to-critical-point summaries off the full table of distances.
numpy_sample draws a sweep sample with numpy's own Generator, one call
per degree or zero set, as the README states a sample's stream.
evaluation_scale is the definition of the scale a critical point's
residual is judged against, taken term by term for one point.
"""

from __future__ import annotations

import math
import struct
from fractions import Fraction

import mpmath
import numpy as np


def exact_poly_from_roots(roots):
    """Coefficients of prod(x - r_i) over exact Fractions, ascending."""
    coeffs = [Fraction(1)]
    for r in roots:
        r = Fraction(r)
        nxt = [-r * coeffs[0]]
        for k in range(1, len(coeffs)):
            nxt.append(coeffs[k - 1] - r * coeffs[k])
        nxt.append(coeffs[-1])
        coeffs = nxt
    return coeffs


def product_value(roots, z):
    """prod(z - r_i) at 60 digits with mpmath, rounded once to a Python complex."""
    with mpmath.workdps(60):
        value = mpmath.fprod(mpmath.mpc(z) - mpmath.mpc(r) for r in roots)
        return complex(value)


def coefficient_value(coeffs, z):
    """sum c_k z^k over ascending coefficients at 60 digits, rounded once to a complex."""
    with mpmath.workdps(60):
        return complex(mpmath.polyval([mpmath.mpc(c) for c in reversed(coeffs)], mpmath.mpc(z)))


def evaluation_scale(coeffs, z):
    """sum |c_k| * max(1, |z|)^k, added up left to right: the scale a residual at z is judged against."""
    base = max(1.0, abs(z))
    scale = 0.0
    power = 1.0
    for c in coeffs:
        scale += abs(c) * power
        power *= base
    return scale


def _place(x):
    """The place of x among the floats: consecutive floats are consecutive integers, +-0 is 0."""
    k = struct.unpack("<q", struct.pack("<d", x))[0]
    return k if k >= 0 else -(k & (2**63 - 1))


def _float_at(k):
    """The float at place k, +0.0 at 0."""
    return struct.unpack("<d", struct.pack("<Q", k if k >= 0 else 2**63 - k))[0]


def _last_place(holds, lo, hi):
    """The last place of (lo, hi) where holds(x), or lo's place where none is.

    holds must be true up to some place and false after it.
    """
    good, bad = _place(lo), _place(hi)
    while bad - good > 1:
        mid = (good + bad) // 2
        if holds(_float_at(mid)):
            good = mid
        else:
            bad = mid
    return good


def sign_change_interval_zero(clusters, lo, hi):
    """The zero of sum m / (x - v) over (v, m) in clusters, in (lo, hi), from the signs of its fsum.

    0.0 where (lo, hi) holds 0 and the sum is 0 there.  Otherwise
    0.5*p + 0.5*q, with p the last float of (lo, hi) where the sum is
    >= 0 and q the first where it is <= 0, each found by bisection over
    the floats' places.
    """

    def f(x):
        return math.fsum(m / (x - v) for v, m in clusters)

    if lo < 0.0 < hi and f(0.0) == 0.0:
        return 0.0
    p = _float_at(_last_place(lambda x: f(x) >= 0.0, lo, hi))
    q = _float_at(_last_place(lambda x: f(x) > 0.0, lo, hi) + 1)
    return 0.5 * p + 0.5 * q


def _numpy_zeros(rng, distribution, n):
    kind, _, rest = distribution.partition(":")
    params = [float(p) for p in rest.split(",")]
    if kind == "uniform":
        return tuple(map(complex, rng.uniform(params[0], params[1], n).tolist()))
    if kind == "log-uniform":
        logs = rng.uniform(math.log(params[0]), math.log(params[1]), n)
        return tuple(map(complex, np.exp(logs).tolist()))
    radii = (params[0] * np.sqrt(rng.uniform(0.0, 1.0, n))).tolist()
    angles = rng.uniform(0.0, 2.0 * math.pi, n).tolist()
    return tuple(complex(a * math.cos(t), a * math.sin(t)) for a, t in zip(radii, angles))


def numpy_sample(seed, index, degree_min, degree_max, distribution, pair, span=None):
    """Sample index of a sweep: its zeros, and its second zero set if pair (else None).

    Generator(Philox(SeedSequence(entropy=seed, spawn_key=(index,)))) draws
    the degree by integers, then each zero set by uniform: exp of a uniform
    on the logs for log-uniform, radius times sqrt(uniform) and a uniform
    angle for complex-disk.  span, if given, draws the degree from span
    values and folds it into the degree range.
    """
    rng = np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
    )
    width = degree_max - degree_min + 1
    drawn = int(rng.integers(degree_min, degree_min + (span or width)))
    degree = degree_min + (drawn - degree_min) % width
    first = _numpy_zeros(rng, distribution, degree)
    return first, _numpy_zeros(rng, distribution, degree) if pair else None


def scan_groups(items, near):
    """Items grouped by chains of near pairs, by a scan of every pair.

    Each item, in order, merges the groups holding an item near it into
    one group, put last, that lists the item first and then their members
    in the groups' order.
    """
    groups = []
    for x in items:
        joined = [g for g in groups if any(near(x, y) for y in g)]
        groups = [g for g in groups if all(g is not h for h in joined)]
        groups.append([x] + [y for g in joined for y in g])
    return groups


def distance_summary(roots, points):
    """(per_zero_min, all_within_unit, min_zero_index, max_from_min_zero), by brute force.

    Builds every |a_i - b_k|, reads each row's minimum, and finds the least
    zero by a scan that moves only on a strictly smaller modulus, so the
    first of tied zeros wins.
    """
    table = [[abs(a - b) for b in points] for a in roots]
    nearest = tuple(min(row) for row in table)
    least = 0
    for i, a in enumerate(roots):
        if abs(a) < abs(roots[least]):
            least = i
    return nearest, all(d < 1.0 for d in nearest), least, max(table[least])


def elementary_symmetric(values, order):
    """e_order(values) by the standard one-row recurrence."""
    if order == 0:
        return 1.0
    if order > len(values):
        return 0.0
    table = [0.0] * (order + 1)
    table[0] = 1.0
    for v in values:
        for k in range(min(order, len(values)), 0, -1):
            if k <= order:
                table[k] += v * table[k - 1]
    return table[order]


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _hull(points):
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    lower = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _segment_distance(p, a, b):
    ax, ay = a
    bx, by = b
    px, py = p
    dx, dy = bx - ax, by - ay
    norm2 = dx * dx + dy * dy
    if norm2 == 0.0:
        return ((px - ax) ** 2 + (py - ay) ** 2) ** 0.5
    t = max(0.0, min(1.0, ((px - ax) * dx + (py - ay) * dy) / norm2))
    cx, cy = ax + t * dx, ay + t * dy
    return ((px - cx) ** 2 + (py - cy) ** 2) ** 0.5


def hull_distance(point, vertices):
    """Distance from a complex point to the convex hull of complex vertices.

    Zero when the point lies inside (or on) the hull.
    """
    p = (point.real, point.imag)
    pts = [(v.real, v.imag) for v in vertices]
    hull = _hull(pts)
    if len(hull) == 1:
        return _segment_distance(p, hull[0], hull[0])
    if len(hull) == 2:
        return _segment_distance(p, hull[0], hull[1])
    inside = all(
        _cross(hull[i], hull[(i + 1) % len(hull)], p) >= 0 for i in range(len(hull))
    )
    if inside:
        return 0.0
    return min(
        _segment_distance(p, hull[i], hull[(i + 1) % len(hull)])
        for i in range(len(hull))
    )


def rational_derivative_zeros(values):
    """Zeros of the derivative of prod(x - v) for distinct values, as exact rationals.

    Each gap between neighbouring values holds one zero of sum 1 / (x - v);
    it is bisected on the sign of that sum in exact rational arithmetic,
    which neither overflows nor underflows, until the bracket is narrower
    than 2**-64 of its end nearer 0, or the sum is exactly 0 at a midpoint.
    """
    values = sorted(Fraction(v) for v in values)
    zeros = []
    for lo, hi in zip(values, values[1:]):
        while hi - lo > min(abs(lo), abs(hi)) / 2**64:
            mid = (lo + hi) / 2
            f = sum(1 / (mid - v) for v in values)
            if f == 0:
                lo = hi = mid
            elif f > 0:
                lo = mid
            else:
                hi = mid
        zeros.append((lo + hi) / 2)
    return zeros


def real_derivative_tower(roots, order):
    """Zeros of derivatives 1..order of prod(x - r_i), for distinct positive reals.

    Returns one sorted list of mpmath numbers per order.  Coefficients
    are exact rationals, differentiated exactly; each zero is bisected
    at 60 significant digits on the sign of the derivative in the
    interval between consecutive zeros of the derivative before it,
    which holds exactly one (Rolle), down to 25 correct digits.
    """
    coeffs = exact_poly_from_roots(roots)
    stages = []
    with mpmath.workdps(60):
        stage = [mpmath.mpf(r) for r in sorted(roots)]
        for _ in range(order):
            coeffs = [k * coeffs[k] for k in range(1, len(coeffs))]
            high_first = [mpmath.mpf(c.numerator) / c.denominator for c in reversed(coeffs)]
            found = []
            for lo, hi in zip(stage, stage[1:]):
                lo_positive = mpmath.polyval(high_first, lo) > 0
                while hi - lo > mpmath.mpf(10) ** -25 * abs(hi):
                    mid = (lo + hi) / 2
                    if (mpmath.polyval(high_first, mid) > 0) == lo_positive:
                        lo = mid
                    else:
                        hi = mid
                found.append((lo + hi) / 2)
            stage = found
            stages.append(stage)
    return stages


def _mp_derivative_coeffs(roots, order):
    """Descending coefficients of the order-th derivative of prod(x - r_i)."""
    coeffs = [mpmath.mpc(1)]
    for r in roots:
        r = mpmath.mpc(r.real, r.imag)
        coeffs = [a - r * b for a, b in zip(coeffs + [0], [0] + coeffs)]
    for _ in range(order):
        top = len(coeffs) - 1
        coeffs = [c * (top - i) for i, c in enumerate(coeffs[:-1])]
    return coeffs


def complex_derivative_zeros(roots, order=1):
    """Zeros of the order-th derivative of prod(x - r_i) for complex r_i.

    mpmath polyroots at 50 digits on coefficients expanded at that
    precision.  Practical to degree about 40; at degree 80 it takes
    seconds per instance, so certify_critical_points is used there.
    """
    with mpmath.workdps(50):
        coeffs = _mp_derivative_coeffs(roots, order)
        if len(coeffs) == 2:
            return [-coeffs[1] / coeffs[0]]
        return list(mpmath.polyroots(coeffs, maxsteps=500, extraprec=200))


def certify_critical_points(roots, points):
    """Certified zeros of P' near computed points, one per point.

    Each point is refined by Newton at 40 digits on the exact
    log-derivative sum 1/(z - r_i), whose zeros are the zeros of P' that
    are not zeros of P.  The certificate holds when every refinement
    converges and the refined zeros are n - 1 distinct ones, which are
    then all the zeros of P'.  Raises AssertionError otherwise.
    """
    n = len(roots)
    assert len(points) == n - 1, "wrong number of points"
    with mpmath.workdps(40):
        zeros = [mpmath.mpc(r.real, r.imag) for r in roots]
        scale = max(abs(r) for r in zeros)
        refined = []
        for b in points:
            z = mpmath.mpc(b.real, b.imag)
            for _ in range(60):
                f = mpmath.fsum(1 / (z - r) for r in zeros)
                slope = -mpmath.fsum(1 / (z - r) ** 2 for r in zeros)
                step = f / slope
                z -= step
                if abs(step) <= mpmath.mpf(10) ** -35 * scale:
                    break
            else:
                raise AssertionError(f"Newton did not settle near {b}")
            refined.append(z)
        for i, u in enumerate(refined):
            for w in refined[:i]:
                assert abs(u - w) > mpmath.mpf(10) ** -25 * scale, "two points refine to one zero"
    return refined
