"""Independent oracles used by the tests.

Nothing here imports the code paths under test: expansions are redone
with exact rational arithmetic, elementary symmetric values come from
the textbook recurrence, hull containment is a from-scratch
monotone-chain construction, and real derivative zeros are bisected at
60 digits with mpmath.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath


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
