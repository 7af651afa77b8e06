"""Tests of the benchmark's own checks: planted wrong answers must be caught.

    python3 -m pytest -q bench/selftest.py

Run from the root of a checkout; limpoly is imported from src/.
"""

from __future__ import annotations

import copy
import json
import math
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
import pace  # noqa: E402
import workloads  # noqa: E402
from limpoly import from_roots, higher_derivative_zeros, run_search  # noqa: E402
from tracer import Tracer  # noqa: E402


def _canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _gate(workload, failures, found):
    return failures + checks.digit_failures(workload, found)


# ---------------------------------------------------------------------------
# metric rules


def test_tail_is_the_highest_percentile_with_ten_calls_beyond_it():
    values = list(range(1, 51))
    assert sorted(values)[checks.tail_index(len(values))] == 40
    assert checks.tail_index(40) == 29
    with pytest.raises(ValueError):
        checks.tail_index(39)


def test_digits_are_capped_at_sixteen():
    assert checks.digits(1.0, 1.0) == 16.0
    assert checks.digits(mpmath.mpf(1) + mpmath.mpf(10) ** -30, 1) == 16.0
    assert checks.digits(1.000001, 1.0) == pytest.approx(6.0, abs=1e-6)
    assert checks.digits(2e-3, 1e-3) == 0.0
    assert checks.digits(1.001, 1.0, scale=10.0) == pytest.approx(4.0, abs=1e-6)


def test_host_slowdown_cancels_in_scaled_times():
    # two blocks of calls between three reference passes at the nominal pace
    refs = [pace.REFERENCE_MS / 1000.0] * 3
    measured = [(0.02, 0), (0.03, 0), (0.05, 1)]
    assert pace.scaled(measured, refs) == pytest.approx([0.02, 0.03, 0.05])
    # the host runs everything 1.6 times slower: calls and passes alike
    slow = pace.scaled([(1.6 * t, b) for t, b in measured], [1.6 * r for r in refs])
    assert slow == pytest.approx([0.02, 0.03, 0.05])
    # one stray pass is outvoted by the passes around it
    refs = [0.0075, 0.0075, 0.0300, 0.0075, 0.0075]
    assert pace.block_scale(refs, 1) == pytest.approx(1.0)


def test_class_rule_on_hand_made_margins():
    # margins of u - v with max(|u|, |v|) = 1: boundary about 1e-9, undecided band 1e-6
    boundary = checks._gap(1, 0)
    clear, far_below = (0.5, boundary), (-0.5, boundary)
    assert checks.expected_class([clear], (0.5, boundary)) == "CONFIRMED"
    # a tie is decidable only where the absolute tolerance dominates the boundary
    tiny = checks._gap(1e-20, 0)
    assert checks.expected_class([clear], (-0.5 * tiny, tiny)) == "CONFIRMED"
    assert checks.expected_class([clear], far_below) == "COUNTEREXAMPLE"
    assert checks.expected_class([(-0.5, boundary)], far_below) == "HYPOTHESES_NOT_MET"
    assert checks.expected_class([], far_below) == "COUNTEREXAMPLE"
    # too close to 0 or to the boundary to call
    assert checks.expected_class([(5e-7, boundary)], far_below) is None
    assert checks.expected_class([clear], (-boundary - 5e-7, boundary)) is None
    assert checks.expected_class([clear], (2e-6, boundary)) == "CONFIRMED"
    # a hypothesis held only within its noise boundary: left open, not CONFIRMED
    assert checks.expected_class([(0.5 * tiny, tiny)], far_below) is None
    assert checks.expected_class([(2 * tiny, tiny)], far_below) == "COUNTEREXAMPLE"


# ---------------------------------------------------------------------------
# sweep-cheap


def _small_sweep():
    wl = workloads.SweepCheap(seed=3)
    wl.shard = 20
    rounds = [[(call, wl.run(call)) for call in wl.calls(r)] for r in (0, 1)]
    return wl, rounds


def test_sweep_checks_pass_on_the_program_and_catch_flipped_counts():
    wl, rounds = _small_sweep()
    failures, found, _ = wl.check(checks, rounds)
    assert _gate("sweep-cheap", failures, found) == []

    call, report = rounds[0][1]  # BASIC_INEQUALITY: both classes occur in 20 samples
    assert report.counts["COUNTEREXAMPLE"] > 0 and report.counts["CONFIRMED"] > 0
    report.counts["COUNTEREXAMPLE"] -= 1
    report.counts["CONFIRMED"] += 1
    failures, _, _ = wl.check(checks, rounds)
    assert any("differ from per-sample verdicts" in f for f in failures)


def test_sweep_oracle_catches_a_flipped_verdict_and_a_wrong_value():
    wl, rounds = _small_sweep()
    call, report = rounds[0][1]  # BASIC_INEQUALITY
    claim, samples, verdicts = wl._redraw(checks, call)
    cap = wl.configs[call.slot].counterexample_cap
    report_json = workloads.report_to_jsonable(report)

    flipped = copy.deepcopy(verdicts)
    k = next(i for i, v in enumerate(flipped) if v["classification"] == "COUNTEREXAMPLE")
    flipped[k]["classification"] = "CONFIRMED"
    failures, _ = checks.check_sweep_shard(claim, cap, call.start, report_json, samples, flipped)
    assert any("oracle says COUNTEREXAMPLE" in f for f in failures)

    skewed = copy.deepcopy(verdicts)
    skewed[0]["details"]["derivative_sum"] *= 1 + 1e-6
    failures, found = checks.check_sweep_shard(claim, cap, call.start, report_json, samples, skewed)
    assert _gate("sweep-cheap", failures, found)


# ---------------------------------------------------------------------------
# squeeze-tower


def _tower(values):
    poly = from_roots(values)
    return [list(higher_derivative_zeros(poly, k).points) for k in range(1, len(values))]


def test_tower_oracle_agrees_with_polyroots():
    rng = np.random.default_rng(5)
    values = tuple(float(v) for v in np.exp(rng.uniform(math.log(1e-3), math.log(1e3), 8)))
    ours = checks.derivative_tower(values)
    with mpmath.workdps(60):
        coeffs = checks._mp_poly([mpmath.mpf(v) for v in values])
        for zeros in ours:
            coeffs = checks._mp_derive(coeffs)
            zeros_60 = mpmath.polyroots(coeffs, maxsteps=200, extraprec=200)
            ref = sorted(mpmath.re(z) for z in zeros_60)
            assert max(abs(mpmath.mpf(str(a)) - b) / abs(b) for a, b in zip(zeros, ref)) < 1e-30


def test_squeeze_checks_catch_a_moved_tower_zero():
    rng = np.random.default_rng(7)
    values = [float(v) for v in np.exp(rng.uniform(math.log(1e-3), math.log(1e3), 8))]
    tower = _tower(values)
    failures, found = checks.check_squeeze_tower(values, tower)
    assert _gate("squeeze-tower", failures, found) == []

    tower[2][1] *= 1 + 1e-6
    failures, found = checks.check_squeeze_tower(values, tower)
    assert _gate("squeeze-tower", failures, found)

    del tower[3][0]
    failures, _ = checks.check_squeeze_tower(values, tower)
    assert any("expected" in f for f in failures)


# ---------------------------------------------------------------------------
# analyze-complex


def _analyze_doc(seed=11):
    wl = workloads.AnalyzeComplex(seed)
    call = workloads.Call(2, 0, 1)  # the degree-20 instance of round 0
    roots, _ = wl.instances[0][call.slot]
    code, text = wl.run(call)
    return roots, code, text


def test_analyze_checks_catch_a_moved_critical_point():
    roots, code, text = _analyze_doc()
    failures, found, _ = checks.check_analyze_document(roots, text)
    assert _gate("analyze-complex", failures, found) == []

    doc = json.loads(text)
    re, im = doc["results"]["critical_points"]["points"][3]
    doc["results"]["critical_points"]["points"][3] = [re * (1 + 1e-6), im * (1 + 1e-6)]
    failures, found, _ = checks.check_analyze_document(roots, _canonical(doc))
    assert _gate("analyze-complex", failures, found)


def test_analyze_checks_catch_a_wrong_measure_and_a_bad_exit():
    roots, code, text = _analyze_doc()
    doc = json.loads(text)
    doc["results"]["measure"] *= 1 + 1e-6
    failures, found, _ = checks.check_analyze_document(roots, _canonical(doc))
    assert _gate("analyze-complex", failures, found)

    call = workloads.Call(2, 0, 1)
    assert workloads.AnalyzeComplex.light_check(call, (code, text)) == []
    assert workloads.AnalyzeComplex.light_check(call, (1, text))
    failures = workloads.AnalyzeComplex.light_check(call, (code, text.replace(",", ", ", 1)))
    assert any("re-dump" in f for f in failures)


# ---------------------------------------------------------------------------
# tracing


def test_tracer_wraps_every_binding_and_restores_them():
    import limpoly.claims
    import limpoly.critical

    original = limpoly.critical.critical_points
    by_name = limpoly.claims.higher_derivative_zeros
    tracer = Tracer(callers=[workloads])
    assert all(found > 0 for found in tracer.bindings.values()), tracer.bindings
    wl = workloads.SqueezeTower(seed=2)
    call = workloads.Call(0, 0, 1)
    plain = wl.digest(wl.run(call))
    tracer.install()
    try:
        assert limpoly.claims.higher_derivative_zeros.__wrapped__ is by_name
        tracer.call = 0
        traced = wl.digest(wl.run(call))
    finally:
        tracer.uninstall()
    assert limpoly.critical.critical_points is original
    assert limpoly.claims.higher_derivative_zeros is by_name
    assert traced == plain
    totals = tracer.totals()
    n = workloads.SQUEEZE_DEGREES[0]
    assert totals["critical.interlace"]["calls"] == n * (n - 1) // 2
    assert totals["search.run_search"]["calls"] == 1
    assert totals["claims.check_squeeze"]["self_ns"] > 0


def test_a_binding_left_unwrapped_reads_as_zero():
    tracer = Tracer()  # this module's own run_search binding stays bare
    tracer.install()
    try:
        run_search(workloads.SweepCheap(seed=1).configs[0], 0, 2)
    finally:
        tracer.uninstall()
    assert "search.run_search" not in {n for n, t in tracer.totals().items() if t["calls"]}
