"""Independent oracles and output checks for the benchmark workloads.

Nothing here calls limpoly.  Sweep inputs are redrawn with the documented
Philox/SeedSequence scheme, exact values come from Fraction arithmetic,
40-digit decimal arithmetic and mpmath, and instance hashes are rebuilt
with the plain json module.  Every check returns failure messages (empty
when the output is right) and the correct-digit counts it measured.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import mpmath
import numpy as np

DIGITS_CAP = 16.0

# Least correct digits each workload must show.  A planted error of 1e-6
# relative reads as 6 digits and fails all three; the solvers' own worst
# cases seen at this commit (8.6 digits on a degree-20 squeeze tower, 11.2
# on degree-20 complex critical points) stay above the gates.
MIN_DIGITS = {"sweep-cheap": 12.0, "squeeze-tower": 7.0, "analyze-complex": 7.0}

# Tolerance of the noise boundary the program uses for every margin:
# |u - v| <= 1e-10 + 1e-9 * max(|u|, |v|) counts as a tie.
_TOL_ABS = 1e-10
_TOL_REL = 1e-9

# A margin whose exact value lies within this share of its scale,
# max(|u|, |v|), of 0 or of its noise boundary is too close to call, and
# its class is not checked.
_UNDECIDED = 1e-6

# A mean of computed zeros may differ from the mean of P's zeros by this
# share of the largest zero (a few hundred roundings at degree 40).
_MEAN_TOL = 1e-11

# Working precision of the oracles.  At these settings the complex
# polyroots oracle and the real interlacing oracle both agree with a
# 90-digit polyroots solve to 1e-35 relative on the workloads' instances.
_ORACLE_DPS = 40
_ORACLE_EXTRAPREC = 100
_TOWER_DIGITS = 40


def digits(value, reference, scale=None) -> float:
    """Correct significant digits: min(16, -log10 |value - reference| / scale).

    scale defaults to |reference|; exact agreement reads as the cap.
    """
    err = abs(value - reference)
    if err == 0:
        return DIGITS_CAP
    size = abs(reference) if scale is None else scale
    if size == 0:
        return 0.0
    ratio = float(err / size)
    if ratio == 0.0:
        return DIGITS_CAP
    return min(DIGITS_CAP, -math.log10(ratio))


def digit_failures(workload: str, found: list[float]) -> list[str]:
    """Failures for a workload whose checked values show too few correct digits."""
    if not found:
        return [f"{workload}: no value was checked for correct digits"]
    if min(found) < MIN_DIGITS[workload]:
        return [f"{workload}: {min(found):.2f} correct digits, below {MIN_DIGITS[workload]}, "
                f"among {len(found)} checked values"]
    return []


def tail_index(count: int) -> int:
    """Index, in ascending order, of the highest percentile with ten values above it."""
    if count < 40:
        raise ValueError(f"a tail percentile needs at least 40 calls, got {count}")
    return count - 11


# ---------------------------------------------------------------------------
# input draws and instance hashes, rebuilt from their documented definitions


def draw_sample(seed: int, index: int, degree_min: int, degree_max: int,
                distribution: str, pair: bool):
    """The zeros of one sweep sample: Philox4x64 keyed by SeedSequence(seed, spawn_key=(index,))."""
    rng = np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
    )
    degree = int(rng.integers(degree_min, degree_max + 1))
    first = _draw_values(distribution, degree, rng)
    second = _draw_values(distribution, degree, rng) if pair else None
    return first, second


def _draw_values(distribution: str, n: int, rng):
    kind, _, rest = distribution.partition(":")
    params = [float(p) for p in rest.split(",")]
    if kind == "uniform":
        return tuple(complex(v) for v in rng.uniform(params[0], params[1], n))
    if kind == "log-uniform":
        logs = rng.uniform(math.log(params[0]), math.log(params[1]), n)
        return tuple(complex(v) for v in np.exp(logs))
    radius = rng.uniform(0.0, 1.0, n)
    theta = rng.uniform(0.0, 2.0 * math.pi, n)
    return tuple(
        complex(a * math.cos(t), a * math.sin(t))
        for a, t in zip(params[0] * np.sqrt(radius), theta)
    )


def instance_hash(roots) -> str:
    """sha256 of the compact JSON list of [re, im] pairs."""
    text = json.dumps([[z.real, z.imag] for z in roots], separators=(",", ":"))
    return hashlib.sha256(text.encode("ascii")).hexdigest()


# ---------------------------------------------------------------------------
# exact and high-precision oracles


def _exact_expand(roots):
    """Ascending coefficients of prod(y - r) over the given exact values."""
    coeffs = [Fraction(1)]
    for r in roots:
        nxt = [-r * coeffs[0]]
        for k in range(1, len(coeffs)):
            nxt.append(coeffs[k - 1] - r * coeffs[k])
        nxt.append(coeffs[-1])
        coeffs = nxt
    return coeffs


def _least_index(values) -> int:
    return min(range(len(values)), key=lambda i: (abs(values[i]), i))


def _gap(u, v):
    return _TOL_ABS + _TOL_REL * max(abs(u), abs(v))


def stirling_sum(n: int):
    with mpmath.workdps(50):
        return mpmath.sqrt(2 * mpmath.pi) * mpmath.fsum(
            mpmath.e ** (-k) * mpmath.mpf(k) ** (k + mpmath.mpf(1) / 2)
            for k in range(1, n + 1)
        )


def _exact(x):
    """A program float, a Decimal or an mpmath value as an exact Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, mpmath.mpf):
        man, exp = mpmath.mpf(x).man_exp
        return Fraction(int(man)) * Fraction(2) ** int(exp)
    return Fraction(x)


def _modulus(z: complex):
    with mpmath.workdps(50):
        return mpmath.sqrt(mpmath.mpf(z.real) ** 2 + mpmath.mpf(z.imag) ** 2)


def _real_setup(roots):
    values = [z.real for z in roots]
    j = _least_index(values)
    exact = [Fraction(v) for v in values]
    center = exact[j]
    rest = Fraction(1)
    for i, v in enumerate(exact):
        if i != j:
            rest *= v
    # P(center + y) = y * prod_{i != j} (y - (a_i - center))
    taylor = [Fraction(0)] + _exact_expand([v - center for i, v in enumerate(exact) if i != j])
    return values, j, center, rest, taylor


def claim_oracle(claim: str, roots, eps: float, delta: float, second=None):
    """Exact attained values, margins and class of one sweep sample.

    Returns (expected details by name, hypotheses, conclusion) where the
    hypotheses and the conclusion are (margin, boundary) pairs of exact
    values; the details hold every attained value the verdict reports.
    """
    e = Fraction(eps)
    if claim == "PRODUCT_PROP":
        with mpmath.workdps(50):
            mp = mpmath.fprod(_modulus(z) for z in roots)
            mq = mpmath.fprod(_modulus(z) for z in second)
        mp, mq = _exact(mp), _exact(mq)
        d = Fraction(delta)
        bound = e * d
        m_prod = mp * mq
        disjoint = not set(roots) & set(second)
        details = {"first_measure": mp, "second_measure": mq,
                   "product_measure": m_prod, "product_bound": bound}
        hyps = [(e - mp, _gap(e, mp)), (d - mq, _gap(d, mq)),
                (Fraction(1 if disjoint else -1), 0)]
        return details, hyps, (bound - m_prod, _gap(bound, m_prod))

    values, j, center, rest, taylor = _real_setup(roots)
    n = len(values)
    if claim == "INDEX_BOUND":
        mags = [abs(taylor[k]) for k in range(1, n)]
        worst = min(mags, key=lambda m: rest - m)
        details = {"center": center, "bound": rest, "magnitudes": mags}
        return details, [], (rest - worst, _gap(rest, worst))

    hyps = [(e - rest, _gap(e, rest))]
    if claim == "PERM_SUM_BOUND":
        attained = Fraction(1)
        for i, v in enumerate(values):
            if i != j:
                attained *= center - Fraction(v)
        attained = abs(attained)
        with mpmath.workdps(50):
            bound = _exact(mpmath.mpf(eps) * mpmath.sqrt(2 * mpmath.pi) / mpmath.e)
        details = {"center": center, "rest_product": rest, "attained": attained, "bound": bound}
        return details, hyps, (bound - attained, _gap(bound, attained))

    if claim == "SQUEEZE":
        per_order_max = [max(abs(Decimal(values[j]) - r) for r in zeros)
                         for zeros in derivative_tower(tuple(values))]
        far = _exact(max(per_order_max))
        d = Fraction(delta)
        details = {"center": center, "rest_product": rest, "delta": d,
                   "per_order_max": [_exact(m) for m in per_order_max], "max_distance": far}
        return details, hyps, (d - far, _gap(d, far))

    derivative_sum = sum(math.factorial(k) * abs(taylor[k]) for k in range(1, n + 1))
    with mpmath.workdps(50):
        exponential = _exact(mpmath.mpf(eps) * stirling_sum(n))
    if claim == "BASIC_INEQUALITY":
        details = {
            "center": center, "rest_product": rest, "derivative_sum": derivative_sum,
            "weighted_coeff_sum": derivative_sum, "exponential_bound": exponential,
            "factorial_bound": e * sum(math.factorial(k) for k in range(1, n + 1)),
        }
        return details, hyps, (exponential - derivative_sum, _gap(exponential, derivative_sum))
    if claim == "DERIV_SUM_BOUND":
        details = {"center": center, "rest_product": rest, "attained": derivative_sum,
                   "bound": exponential}
        return details, hyps, (exponential - derivative_sum, _gap(exponential, derivative_sum))
    raise ValueError(f"no oracle for claim {claim}")


def expected_class(hyps, concl):
    """Class by the verdict rule, or None when it cannot be decided.

    Rule: any hypothesis margin <= 0 gives HYPOTHESES_NOT_MET; else a
    conclusion margin >= -boundary gives CONFIRMED (a tie is no
    counterexample); else COUNTEREXAMPLE when every hypothesis margin
    exceeds its boundary.  None when a margin is too close to 0 or to its
    boundary to call, and None in the one case the rule leaves open: the
    conclusion fails beyond its boundary while a hypothesis holds only
    within its boundary.  The program calls that case CONFIRMED, which is
    disputed (see CHANGES.md), so it is checked neither way.
    """
    def close(margin, threshold, boundary):
        # boundary = _TOL_ABS + _TOL_REL * scale, so this recovers the scale
        scale = max(boundary - _TOL_ABS, 0) / _TOL_REL
        return abs(margin - threshold) <= _UNDECIDED * scale

    for margin, boundary in hyps:
        if close(margin, 0, boundary) or close(margin, boundary, boundary):
            return None
    margin, boundary = concl
    if close(margin, 0, boundary) or close(margin, -boundary, boundary):
        return None
    if not all(m > 0 for m, _ in hyps):
        return "HYPOTHESES_NOT_MET"
    if margin >= -boundary:
        return "CONFIRMED"
    if all(m > b for m, b in hyps):
        return "COUNTEREXAMPLE"
    return None


def _mp_poly(roots):
    """Descending mpmath coefficients of prod(x - r)."""
    coeffs = [mpmath.mpf(1)]
    for r in roots:
        nxt = coeffs + [mpmath.mpf(0)]
        for i in range(1, len(nxt)):
            nxt[i] -= r * coeffs[i - 1]
        coeffs = nxt
    return coeffs


def _mp_derive(coeffs):
    n = len(coeffs) - 1
    return [c * (n - i) for i, c in enumerate(coeffs[:-1])]


def _bracketed_zero(nodes, lo, hi):
    """The one zero of sum m / (x - v) in (lo, hi): Newton kept inside a shrinking bracket.

    The sum falls strictly from +inf to -inf across the interval, so the
    bracket always holds the zero and a step leaving it falls back to bisection.
    """
    tol = Decimal(10) ** (8 - _TOWER_DIGITS)
    a, b = lo, hi
    x = (a * b).sqrt() if a > 0 else (a + b) / 2
    for _ in range(1000):
        f = slope = Decimal(0)
        for v, m in nodes:
            r = 1 / (x - v)
            f += m * r
            slope -= m * r * r
        if f > 0:
            a = x
        else:
            b = x
        nxt = x - f / slope
        if not a < nxt < b:
            nxt = (a + b) / 2
        if abs(nxt - x) <= tol * abs(x):
            return nxt
        x = nxt
    raise ArithmeticError(f"no zero found in ({lo}, {hi})")


def _next_order(zeros):
    """Zeros of the derivative of prod(x - z), for real z, by interlacing."""
    nodes = []
    for z in sorted(zeros):
        if nodes and nodes[-1][0] == z:
            nodes[-1][1] += 1
        else:
            nodes.append([z, 1])
    found = [v for v, m in nodes for _ in range(m - 1)]
    found += [_bracketed_zero(nodes, lo, hi) for (lo, _), (hi, _) in zip(nodes, nodes[1:])]
    return sorted(found)


@functools.lru_cache(maxsize=64)
def derivative_tower(values: tuple, depth: int | None = None):
    """Sorted zeros of P^(k), k = 1..depth (default n-1), of a real-rooted P, as Decimals.

    Each order's zeros are found between consecutive zeros of the order
    above, in 40-digit decimal arithmetic on the logarithmic derivative of
    the product form, without expanding any coefficients.
    """
    with localcontext() as ctx:
        ctx.prec = _TOWER_DIGITS
        zeros = [Decimal(v) for v in values]
        tower = []
        for _ in range(len(values) - 1 if depth is None else depth):
            zeros = _next_order(zeros)
            tower.append(zeros)
        return tower


def complex_critical_points(roots):
    """Zeros of P' for complex zeros."""
    with mpmath.workdps(_ORACLE_DPS):
        coeffs = _mp_derive(_mp_poly([mpmath.mpc(z.real, z.imag) for z in roots]))
        if len(coeffs) == 2:
            return [mpmath.mpc(-coeffs[1] / coeffs[0])]
        zeros = mpmath.polyroots(coeffs, maxsteps=400, extraprec=_ORACLE_EXTRAPREC)
        return [mpmath.mpc(z) for z in zeros]


def _match(points, references):
    """Pair each reference with its nearest not-yet-used point."""
    free = list(points)
    pairs = []
    for ref in references:
        k = min(range(len(free)), key=lambda i: abs(free[i] - ref))
        pairs.append((free.pop(k), ref))
    return pairs


# ---------------------------------------------------------------------------
# sweeps


def _detail_values(value):
    return list(value) if isinstance(value, list) else [value]


def check_sweep_shard(claim: str, cap: int, start: int, report: dict,
                      samples: list, verdicts: list):
    """Check one run_search shard against per-sample redraws and oracles.

    cap: the config's counterexample_cap.  samples: (first, second, eps,
    delta) per index from start on, the zeros redrawn by draw_sample and
    the bounds the sweep's eps policy gives them.  verdicts: the program's
    own per-sample verdicts (canonical dicts) for those inputs, or None
    where the checker raised a solver error.
    """
    failures: list[str] = []
    found_digits: list[float] = []
    count = len(samples)
    where = f"{claim} shard {start}+{count}"

    counts = report["counts"]
    if sum(counts.values()) != count:
        failures.append(f"{where}: counts {counts} do not sum to {count} samples")
    tally = {key: 0 for key in counts}
    for verdict in verdicts:
        tally["SOLVER_FAILURE" if verdict is None else verdict["classification"]] += 1
    if tally != counts:
        failures.append(f"{where}: counts {counts} differ from per-sample verdicts {tally}")

    edges = report["margin_bin_edges"]
    histograms: dict[str, list[int]] = {}
    for (first, *_), verdict in zip(samples, verdicts):
        if verdict is not None:
            margin = verdict["conclusion"]["margin"]
            bucket = next((i for i, edge in enumerate(edges) if margin < edge), len(edges))
            histograms.setdefault(str(len(first)), [0] * (len(edges) + 1))[bucket] += 1
    if histograms != report["margin_histograms"]:
        failures.append(f"{where}: margin histograms differ from the per-sample margins")

    hits = []
    for i, ((first, second, *_), verdict) in enumerate(zip(samples, verdicts)):
        if verdict is not None and verdict["classification"] == "COUNTEREXAMPLE":
            logged = first + (second or ())
            hits.append((instance_hash(logged), start + i, logged, verdict))
    hits.sort(key=lambda h: h[0])
    kept = hits[:cap]
    records = report["counterexamples"]
    if len(records) != len(kept) or report["overflow"] != len(hits) - len(kept):
        failures.append(f"{where}: {len(records)} records + overflow {report['overflow']} "
                        f"for {len(hits)} counterexamples")
    for record, (digest, index, logged, verdict) in zip(records, kept):
        if (record["sample_index"], record["instance_hash"]) != (index, digest):
            failures.append(f"{where}: record {record['sample_index']} is not the next lowest hash")
        elif record["roots"] != [[z.real, z.imag] for z in logged]:
            failures.append(f"{where}: record {index} roots differ from the redrawn sample")
        elif record["verdict"] != verdict:
            failures.append(f"{where}: record {index} verdict differs from the checker's")

    for i, ((first, second, eps, delta), verdict) in enumerate(zip(samples, verdicts)):
        if verdict is None:
            continue
        details = verdict["details"]
        expected, hyps, concl = claim_oracle(claim, first, eps, delta, second)
        for name, exact in expected.items():
            got = _detail_values(details[name])
            want = _detail_values(exact)
            if len(got) != len(want):
                failures.append(f"{where} sample {start + i}: {name} has {len(got)} values, "
                                f"expected {len(want)}")
                continue
            found_digits.extend(digits(Fraction(g), w) for g, w in zip(got, want))
        cls = expected_class(hyps, concl)
        if cls is not None and cls != verdict["classification"]:
            failures.append(f"{where} sample {start + i}: classified "
                            f"{verdict['classification']}, oracle says {cls}")
    return failures, found_digits


def check_squeeze_tower(values, tower):
    """The program's derivative tower of one squeeze sample against the oracle.

    tower: the program's zeros of P^(k) for k = 1..n-1.  Order k must have
    n - k real zeros inside [min zero, max zero] that interlace the zeros
    of order k - 1 and keep the mean of the zeros of P.
    """
    failures: list[str] = []
    found_digits: list[float] = []
    n = len(values)
    lo, hi = min(values), max(values)
    mean = math.fsum(values) / n
    previous = sorted(values)
    for k, (points, refs) in enumerate(zip(tower, derivative_tower(tuple(values))), start=1):
        where = f"squeeze degree {n} order {k}"
        if len(points) != n - k:
            failures.append(f"{where}: {len(points)} zeros, expected {n - k}")
            continue
        if any(z.imag != 0.0 for z in points):
            failures.append(f"{where}: a zero is off the real axis")
        xs = sorted(z.real for z in points)
        if xs[0] < lo or xs[-1] > hi:
            failures.append(f"{where}: zeros leave [{lo!r}, {hi!r}]")
        if any(not previous[i] <= x <= previous[i + 1] for i, x in enumerate(xs)):
            failures.append(f"{where}: zeros do not interlace those of order {k - 1}")
        if abs(math.fsum(xs) / len(xs) - mean) > _MEAN_TOL * hi:
            failures.append(f"{where}: mean {math.fsum(xs) / len(xs)!r} differs from {mean!r}")
        found_digits.extend(digits(Decimal(x), ref) for x, ref in zip(xs, refs))
        previous = xs
    if len(tower) != n - 1:
        failures.append(f"squeeze degree {n}: {len(tower)} derivative orders, expected {n - 1}")
    return failures, found_digits


# ---------------------------------------------------------------------------
# analyze


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _hull(points):
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _segment_distance(p, a, b):
    dx, dy = b[0] - a[0], b[1] - a[1]
    norm2 = dx * dx + dy * dy
    along = (p[0] - a[0]) * dx + (p[1] - a[1]) * dy
    t = 0.0 if norm2 == 0.0 else max(0.0, min(1.0, along / norm2))
    return math.hypot(p[0] - a[0] - t * dx, p[1] - a[1] - t * dy)


def hull_distance(point: complex, vertices) -> float:
    """Distance from a point to the convex hull of the vertices; 0 inside."""
    p = (point.real, point.imag)
    hull = _hull([(v.real, v.imag) for v in vertices])
    edges = list(zip(hull, hull[1:] + hull[:1]))
    if len(hull) >= 3 and all(_cross(a, b, p) >= 0 for a, b in edges):
        return 0.0
    return min(_segment_distance(p, a, b) for a, b in edges)


def _pairs(values):
    return [complex(re, im) for re, im in values]


def check_analyze_document(roots, text: str):
    """One `limpoly analyze --json` document against oracles and invariants.

    roots: the complex zeros passed on the command line.  Returns failures,
    the digits of the gated values, and separately the digits of the
    complex_pullback projected critical points, which are reported but do
    not gate (see the README).
    """
    n = len(roots)
    where = f"analyze degree {n}"
    failures: list[str] = []
    found_digits: list[float] = []
    doc = json.loads(text)
    results = doc["results"]
    if _pairs(doc["inputs"]["roots"]) != list(roots):
        failures.append(f"{where}: echoed roots differ from the input")
    scale = max(abs(z) for z in roots)

    with mpmath.workdps(50):
        measure = mpmath.fprod(_modulus(z) for z in roots)
    found_digits.append(digits(mpmath.mpf(results["measure"]), measure))

    refs = complex_critical_points(roots)
    points = _pairs(results["critical_points"]["points"])
    if len(points) != n - 1:
        failures.append(f"{where}: {len(points)} critical points, expected {n - 1}")
        return failures, found_digits, []
    found_digits.extend(digits(mpmath.mpc(b), ref, scale) for b, ref in _match(points, refs))
    if max(hull_distance(b, roots) for b in points) > 1e-12 * scale:
        failures.append(f"{where}: a critical point lies outside the hull of the zeros")
    mean_gap = abs(sum(points) / (n - 1) - sum(roots) / n)
    if mean_gap > _MEAN_TOL * scale:
        failures.append(f"{where}: critical-point mean is {mean_gap:.3e} off the zero mean")

    table = results["sendov_distances"]
    j = _least_index(roots)
    ref_min = [min(abs(mpmath.mpc(a) - r) for r in refs) for a in roots]
    if table["min_zero_index"] != j:
        failures.append(f"{where}: least zero index {table['min_zero_index']}, expected {j}")
    worst = max(abs(mpmath.mpf(g) - w) for g, w in zip(table["per_zero_min"], ref_min))
    ref_far = max(abs(mpmath.mpc(roots[j]) - r) for r in refs)
    worst = max(worst, abs(mpmath.mpf(table["max_from_min_zero"]) - ref_far))
    if worst > 1e-9 * scale:
        failures.append(f"{where}: zero-to-critical distances off by {float(worst):.3e}")
    if table["all_within_unit"] != all(m < 1 for m in ref_min):
        failures.append(f"{where}: all_within_unit disagrees with the oracle distances")

    pull = results["complex_pullback"]
    if pull.get("skipped"):
        failures.append(f"{where}: complex pullback skipped ({pull['reason']})")
        return failures, found_digits, []
    if _pairs(pull["true_critical_points"]) != points:
        failures.append(f"{where}: pullback critical points differ from the reported ones")
    moduli = [abs(z) for z in roots]
    if [re for re, _ in pull["projected_roots"]] != moduli:
        failures.append(f"{where}: projected roots are not the moduli")
    if abs(mpmath.mpf(pull["min_distance_true"]) - ref_min[j]) > 1e-9 * scale:
        failures.append(f"{where}: pullback min distance differs from the oracle")
    projected = sorted(re for re, _ in pull["projected_critical_points"])
    ref_projected = derivative_tower(tuple(moduli), 1)[0]
    if len(projected) != n - 1:
        failures.append(f"{where}: {len(projected)} projected critical points")
    projected_digits = [digits(Decimal(x), ref) for x, ref in zip(projected, ref_projected)]
    return failures, found_digits, projected_digits
