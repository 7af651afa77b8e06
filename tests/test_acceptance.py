"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with `pytest -v -s tests/test_acceptance.py` to see one pass line
per criterion.  Random instances are drawn from fixed seeds so every
number below is reproducible.
"""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import limpoly
from limpoly import (
    SearchConfig,
    canonical_dumps,
    critical_points,
    complex_pullback_check,
    conjugate_roots,
    derivative,
    derivative_at_order,
    from_roots,
    index_bound_check,
    local_expansion_min,
    measure,
    merge_reports,
    min_pair_lemma,
    modulus_projection,
    permutation_sum_derivative,
    report_to_jsonable,
    rescale_roots,
    run_search,
    sendov_distances,
    stirling_bound_compare,
    taylor_shift,
)
from limpoly.polynomials import _evaluation_scale
from oracles import product_value


def _ok(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion:2d} PASS  {message}")


def _run_cli(argv):
    """Run the CLI in a child interpreter that imports this limpoly."""
    source = os.path.dirname(os.path.dirname(os.path.abspath(limpoly.__file__)))
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "limpoly.cli", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )


def _disk_points(rng, radius, n):
    r = radius * np.sqrt(rng.uniform(0.0, 1.0, n))
    theta = rng.uniform(0.0, 2.0 * math.pi, n)
    return tuple(complex(a * math.cos(t), a * math.sin(t)) for a, t in zip(r, theta))


def test_criterion_01_taylor_shift_reconstruction():
    rng = np.random.default_rng(1001)
    worst = 0.0
    for trial in range(500):
        n = int(rng.integers(2, 13))
        if trial % 2 == 0:
            roots = tuple(
                complex(v)
                for v in np.exp(rng.uniform(math.log(1e-3), math.log(1e3), n))
            )
        else:
            roots = _disk_points(rng, 10.0, n)
        p = from_roots(roots)
        root_scale = max(abs(r) for r in roots)
        center = _disk_points(rng, root_scale, 1)[0]
        shifted = taylor_shift(roots, center)
        probe_radius = 1.5 * (root_scale + abs(center) + 1.0)
        for z in _disk_points(rng, probe_radius, 16):
            direct = product_value(roots, z)
            series = sum(t * (z - center) ** k for k, t in enumerate(shifted))
            scale = max(
                _evaluation_scale(p.coeffs, z),
                _evaluation_scale(shifted, z - center),
            )
            worst = max(worst, abs(direct - series) / scale)
    assert worst <= 1e-9
    _ok(1, f"shift reconstruction on 500 polynomials, worst rel err {worst:.3e}")


def test_criterion_02_derivative_index_identity():
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 9))
        roots = tuple(np.exp(rng.uniform(math.log(0.1), math.log(10.0), n)))
        p = from_roots(roots)
        center = min(roots)
        exp = local_expansion_min(roots)
        for s in range(1, n + 1):
            lhs = derivative_at_order(p, s, center)
            rhs = math.factorial(s) * exp.coeffs[s - 1]
            worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
    assert worst <= 1e-8
    _ok(2, f"s-th derivative equals s! x coefficient, worst rel err {worst:.3e}")


def test_criterion_03_measure_calculus():
    rng = np.random.default_rng(1003)

    def draw(n):
        mods = np.exp(rng.uniform(math.log(1e-4), math.log(1e4), n))
        phases = rng.uniform(0.0, 2.0 * math.pi, n)
        return tuple(
            complex(m * math.cos(t), m * math.sin(t)) for m, t in zip(mods, phases)
        )

    worst_mult = worst_resc = 0.0
    for _ in range(10_000):
        first = draw(int(rng.integers(1, 13)))
        second = draw(int(rng.integers(1, 13)))
        combined = measure(first + second)
        split = measure(first) * measure(second)
        worst_mult = max(worst_mult, abs(combined - split) / split)

        assert measure(conjugate_roots(first)) == measure(first)

        scales = draw(len(first))
        rescaled = measure(rescale_roots(first, scales))
        lam = math.prod(abs(s) for s in scales)
        worst_resc = max(worst_resc, abs(rescaled * lam - measure(first)) / measure(first))
    assert worst_mult <= 1e-10
    assert worst_resc <= 1e-10
    _ok(
        3,
        "measure laws on 10^4 trials each: "
        f"multiplicativity {worst_mult:.3e}, conjugation exact, rescaling {worst_resc:.3e}",
    )


def test_criterion_04_min_pair_property():
    rng = np.random.default_rng(1004)
    log_a = rng.uniform(math.log(1e-4), math.log(1e2), 100_000)
    log_b = rng.uniform(math.log(1e-6), -log_a)
    failures = 0
    for la, lb in zip(log_a, log_b):
        a, b = math.exp(la), math.exp(lb)
        assert a * b < 1.0
        if not min_pair_lemma(a, b):
            failures += 1
    assert failures == 0
    _ok(4, "min-pair implication held on 10^5 pairs with product below 1")


def test_criterion_05_critical_solver():
    from oracles import hull_distance

    crit = critical_points(from_roots([1, 2, 3]))
    expected = (2 - 1 / math.sqrt(3), 2 + 1 / math.sqrt(3))
    for got, want in zip(crit.points, expected):
        assert abs(got - want) <= 1e-10

    rng = np.random.default_rng(1005)
    worst_centroid = 0.0
    for trial in range(1000):
        n = int(rng.integers(3, 9))
        if trial % 2 == 0:
            roots = np.sort(rng.uniform(0.1, 30.0, n))
            while np.min(np.diff(roots)) < 1e-6:
                roots = np.sort(rng.uniform(0.1, 30.0, n))
            roots = tuple(complex(v) for v in roots)
            cset = critical_points(from_roots(roots))
            points = sorted(z.real for z in cset.points)
            values = [r.real for r in roots]
            for lo, hi, b in zip(values, values[1:], points):
                assert lo < b < hi  # interlacing
        else:
            roots = _disk_points(rng, 5.0, n)
            cset = critical_points(from_roots(roots))
            scale = max(1.0, max(abs(r) for r in roots))
            for b in cset.points:
                assert hull_distance(b, roots) <= 1e-8 * scale  # containment
        lhs = sum(cset.points)
        rhs = (n - 1) / n * sum(roots)
        scale = max(sum(abs(b) for b in cset.points), abs(rhs), 1e-12)
        worst_centroid = max(worst_centroid, abs(lhs - rhs) / scale)
    assert worst_centroid <= 1e-8
    _ok(
        5,
        "cubic oracle to 1e-10; interlacing, hull containment, and centroid "
        f"identity on 10^3 instances (worst centroid err {worst_centroid:.3e})",
    )


def test_criterion_06_index_bound_known_instances():
    small = [0.1, 0.2, 0.3]
    violating = index_bound_check(local_expansion_min(small), small)
    assert violating.bound == pytest.approx(0.06)
    by_order = {e.order: e for e in violating.entries}
    assert by_order[2].magnitude == pytest.approx(0.3)
    assert not by_order[2].holds
    assert by_order[1].holds

    clean = [1, 2, 3]
    passing = index_bound_check(local_expansion_min(clean), clean)
    assert all(e.holds for e in passing.entries)
    _ok(6, "coefficient bound flagged on (0.1,0.2,0.3) and clean on (1,2,3)")


def test_criterion_07_squeeze_counterexample_via_cli():
    result = _run_cli(
        [
            "verify", "--claim", "squeeze", "--roots", "0.001,0.001,500",
            "--eps", "1", "--delta", "1", "--json",
        ]
    )
    assert result.returncode == 2
    verdict = json.loads(result.stdout)["results"]["verdict"]
    assert verdict["classification"] == "COUNTEREXAMPLE"
    distance = verdict["details"]["max_distance"]
    assert abs(distance - 333.3327) <= 1e-3
    _ok(7, f"squeeze counterexample exits 2 with max distance {distance:.4f}")


def test_criterion_08_stirling_direction():
    for n in range(1, 121):
        cmp = stirling_bound_compare(n)
        assert cmp.stirling_below_factorial, f"direction reversed at n={n}"
    one = stirling_bound_compare(1)
    assert one.factorial_sum == 1.0
    assert abs(one.stirling_sum - 0.92214) <= 1e-4
    two = stirling_bound_compare(2)
    assert two.factorial_sum == 3.0
    assert abs(two.stirling_sum - 2.84116) <= 1e-4
    _ok(8, "exponential form stays below the factorial sum for n = 1..120")


def test_criterion_09_permutation_sum_identity():
    rng = np.random.default_rng(1009)
    worst = 0.0
    for trial in range(500):
        n = int(rng.integers(2, 13))
        if trial % 2 == 0:
            roots = tuple(complex(v) for v in rng.uniform(0.05, 5.0, n))
        else:
            roots = _disk_points(rng, 5.0, n)
        d = derivative(from_roots(roots))
        radius = 2.0 * (1.0 + max(abs(r) for r in roots))
        for t in rng.uniform(0.0, 2.0 * math.pi, 16):
            z = complex(radius * math.cos(t), radius * math.sin(t))
            lhs = sum(c * z**k for k, c in enumerate(d))
            rhs = permutation_sum_derivative(roots, z)
            worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs)))

        # at the least-modulus root the sum collapses to a plain product
        j = min(range(n), key=lambda i: (abs(roots[i]), i))
        collapsed = permutation_sum_derivative(roots, roots[j])
        direct = 1 + 0j
        for i, r in enumerate(roots):
            if i != j:
                direct *= roots[j] - r
        scale = max(abs(collapsed), abs(direct), 1e-12)
        assert abs(collapsed - direct) / scale <= 1e-9
    assert worst <= 1e-9
    _ok(9, f"product-rule sum matches coefficient derivative, worst rel err {worst:.3e}")


def test_criterion_10_search_determinism():
    argv = [
        "search", "--claim", "index_bound", "--degree", "3", "--samples", "200",
        "--seed", "42", "--dist", "uniform:0.05,0.5", "--json",
    ]
    first = _run_cli(argv)
    second = _run_cli(argv)
    assert first.stdout == second.stdout
    assert first.stdout.strip()

    config = SearchConfig(
        claim_id="index_bound",
        degree_min=3,
        degree_max=3,
        samples=200,
        seed=42,
        distribution="uniform:0.05,0.5",
    )
    single = run_search(config)
    shards = [run_search(config, start=s, count=50) for s in (0, 50, 100, 150)]
    merged = merge_reports(shards)
    assert merged.counts == single.counts
    assert canonical_dumps(report_to_jsonable(merged)) == canonical_dumps(
        report_to_jsonable(single)
    )
    cli_counts = json.loads(first.stdout)["results"]["search"]["counts"]
    assert cli_counts == single.counts
    _ok(10, "byte-identical reruns; 4-shard merge equals the single-shot sweep")


def test_criterion_11_complex_projection():
    rng = np.random.default_rng(1011)
    for _ in range(1000):
        n = int(rng.integers(1, 11))
        roots = _disk_points(rng, 8.0, n)
        if any(abs(r) == 0 for r in roots):
            continue
        projected = modulus_projection(roots)
        m, pm = measure(roots), measure(projected)
        assert abs(pm - m) <= 1e-12 * m

    quartic = [1, 1j, -1, -1j]
    crit = critical_points(from_roots(quartic))
    record = complex_pullback_check(quartic, crit)
    assert len(record.true_critical_points) == 3
    assert all(abs(b) <= 1e-9 for b in record.true_critical_points)
    assert abs(record.min_distance_true - 1.0) <= 1e-9
    for distance in sendov_distances(quartic, crit).per_zero_min:
        assert abs(distance - 1.0) <= 1e-9
    _ok(
        11,
        "projection preserves measure on 10^3 instances; quartic pullback "
        "reports the triple critical point at 0 at unit distance",
    )
