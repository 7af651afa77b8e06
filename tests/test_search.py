import dataclasses
import functools
import gc
import hashlib
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import bench_workloads
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from limpoly import (
    ClaimId,
    CriticalSet,
    RootMultiset,
    SearchConfig,
    canonical_dumps,
    complex_pullback_check,
    config_hash,
    critical_points,
    from_roots,
    generate_roots,
    measure,
    merge_reports,
    modulus_projection,
    report_to_jsonable,
    run_search,
    sendov_distances,
    write_counterexample_log,
)
from limpoly import search
from limpoly.search import _SampleStreams
from oracles import numpy_sample


def _config(claim, lo, hi, dist, seed=0):
    return SearchConfig(claim_id=claim, degree_min=lo, degree_max=hi, samples=2**70, seed=seed,
                        distribution=dist)


def _samples(config, start, stop):
    """generate_roots's block as (first, second) tuples of complex zeros, second None or not."""
    return [(tuple(map(complex, first)), second and tuple(map(complex, second)))
            for first, second in zip(*generate_roots(config, start, stop))]


def _drawn_zeros(config, start, stop):
    return [z for first, second in _samples(config, start, stop) for z in first + (second or ())]


# ---------------------------------------------------------------------------
# generation


def test_generate_degenerate_uniform():
    assert _samples(_config("index_bound", 3, 3, "uniform:1,1"), 0, 1) == [((1, 1, 1), None)]


def test_generate_uniform_positive():
    roots = _drawn_zeros(_config("index_bound", 200, 200, "uniform:0.05,0.5", 3), 0, 1)
    assert len(roots) == 200
    assert all(r.imag == 0 and 0.05 <= r.real <= 0.5 for r in roots)


def test_generate_log_uniform_is_log_flat():
    config = _config("index_bound", 100, 100, "log-uniform:0.001,1000", 4)
    values = [r.real for r in _drawn_zeros(config, 0, 100)]
    assert len(values) == 10000
    logs = np.log(values)
    span = (math.log(0.001), math.log(1000))
    assert logs.min() >= span[0] and logs.max() <= span[1]
    result = stats.kstest(logs, stats.uniform(span[0], span[1] - span[0]).cdf)
    assert result.pvalue > 1e-6


def test_generate_complex_disk_containment():
    roots = _drawn_zeros(_config("product_prop", 250, 250, "complex-disk:1", 5), 0, 1)
    assert len(roots) == 500
    assert all(abs(r) <= 1.0 for r in roots)
    # not all collinear: both axes get used
    assert any(abs(r.imag) > 0.1 for r in roots)


def test_generate_rejects_malformed_specs():
    for spec in ("uniform:-1,2", "uniform:2", "gaussian:0,1", "complex-disk:0"):
        with pytest.raises(ValueError):
            _config("product_prop", 3, 3, spec)


# Blocks of samples against numpy's own per-sample draws: every distribution,
# PRODUCT_PROP pairs, a fixed degree (no degree word), and blocks across 2**32
# and 2**64.  (claim, degree_min, degree_max, distribution, seed, start, stop)
BLOCK_CASES = [
    ("index_bound", 3, 3, "uniform:0.05,0.5", 1, 0, 200),
    ("basic_inequality", 2, 8, "log-uniform:0.001,1000", 2, 0, 300),
    ("squeeze", 12, 12, "log-uniform:0.001,1000", 3, 0, 50),
    ("perm_sum_bound", 2, 40, "log-uniform:0.5,2", 4, 2**32 - 50, 2**32 + 50),
    ("product_prop", 2, 8, "uniform:0.2,0.8", 5, 2**64 - 3, 2**64 + 3),
    ("product_prop", 2, 8, "log-uniform:0.01,10", 6, 0, 200),
    ("product_prop", 2, 8, "complex-disk:2", 7, 0, 200),
    ("product_prop", 5, 5, "complex-disk:0.5", 8, 2**32 - 3, 2**32 + 3),
    ("deriv_sum_bound", 2, 2, "uniform:0.05,4.05", 2**64 - 1, 0, 100),
]


@pytest.mark.parametrize(
    "case", BLOCK_CASES, ids=[f"{c[0]}-{c[3]}-{c[1]}-{c[2]}" for c in BLOCK_CASES]
)
def test_a_block_draws_the_numpy_samples(case):
    claim, lo, hi, dist, seed, start, stop = case
    want = [numpy_sample(seed, i, lo, hi, dist, claim == "product_prop") for i in range(start, stop)]
    assert _samples(_config(claim, lo, hi, dist, seed), start, stop) == want


_DRAW_IN_CHILD = """
import json, sys
from limpoly import SearchConfig, generate_roots
from oracles import numpy_sample
for claim, lo, hi, dist, seed, start, stop in json.load(sys.stdin):
    firsts, seconds = generate_roots(SearchConfig(claim, lo, hi, 2**70, seed, dist), start, stop)
    drawn = [(tuple(map(complex, a)), b and tuple(map(complex, b))) for a, b in zip(firsts, seconds)]
    pair = claim == "product_prop"
    print(json.dumps(drawn == [numpy_sample(seed, i, lo, hi, dist, pair) for i in range(start, stop)]))
"""


def test_a_block_draws_the_numpy_samples_on_every_simd_target():
    # numpy's exp kernel differs in the last bit between dispatch targets; on each one the
    # block's one exp over all its zeros must round as the per-sample exp of the oracle does
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    found = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    if not found:
        pytest.skip("numpy dispatches to no target above its baseline on this host")
    tests = Path(__file__).resolve().parent
    path = [str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH")]
    path = os.pathsep.join(filter(None, path))
    for level in range(len(found)):  # that target and every one above it disabled
        env = {**os.environ, "PYTHONPATH": path, "NPY_DISABLE_CPU_FEATURES": " ".join(found[level:])}
        child = subprocess.run([sys.executable, "-c", _DRAW_IN_CHILD], input=json.dumps(BLOCK_CASES),
                               env=env, capture_output=True, text=True, check=True)
        assert child.stdout.split() == ["true"] * len(BLOCK_CASES), (found[level:], child.stdout)


@pytest.mark.parametrize("width", [2, 7, 3 * 2**30, 2**31 + 1, 2**32 - 1])
def test_the_degree_rule_is_numpys_integers(width):
    # at width 2**31 + 1 about half of all 32-bit values are rejected, at 3 * 2**30 a quarter
    low, indices = 5, range(2**32 - 150, 2**32 + 150)
    words = np.array([_numpy_stream(9, i).bit_generator.random_raw(17) for i in indices])
    degrees, used = search._degrees(words[:, :16], low, width)
    first, first_used = search._degrees(words[:, :1], low, width)
    for row, index in enumerate(indices):
        rng = _numpy_stream(9, index)
        assert degrees[row] == rng.integers(low, low + width), index
        assert words[row, used[row]] == rng.bit_generator.random_raw(), index  # the next word
        if used[row] == 1:  # word 0 alone gives the same degree
            assert (first[row], first_used[row]) == (degrees[row], 1), index
        else:  # numpy reads on past word 0
            assert first_used[row] == -1, index
    if width == 2**31 + 1:
        assert 50 < np.count_nonzero(used > 1) < 100


@pytest.mark.parametrize("claim, dist", [("perm_sum_bound", "log-uniform:0.001,1000"),
                                         ("product_prop", "complex-disk:2")])
def test_a_sample_whose_degree_rejects_word_0_draws_its_zeros_after_it(monkeypatch, claim, dist):
    # numpy rejects a 32-bit value for degrees 2-8 about once in 1e9 samples; a degree drawn
    # from 2**31 + 1 values, then folded into 2-8, is rejected on both halves of word 0 in
    # about a quarter of the samples, and the oracle draws and folds the same way
    span, redrawn = 2**31 + 1, []
    degrees = search._degrees

    def folded(words, low, width):
        drawn, used = degrees(words, low, span)
        redrawn.append(words.shape[1] > 1)
        return low + (drawn - low) % width, used

    monkeypatch.setattr(search, "_degrees", folded)
    pair = claim == "product_prop"
    want = [numpy_sample(11, i, 2, 8, dist, pair, span) for i in range(200)]
    assert _samples(_config(claim, 2, 8, dist, 11), 0, 200) == want
    assert 30 < sum(redrawn) < 70


# ---------------------------------------------------------------------------
# config validation


def test_config_validation():
    good = dict(
        claim_id="index_bound",
        degree_min=3,
        degree_max=3,
        samples=10,
        seed=1,
        distribution="uniform:0.1,0.9",
    )
    SearchConfig(**good)
    with pytest.raises(ValueError):
        SearchConfig(**{**good, "samples": 0})
    with pytest.raises(ValueError):
        SearchConfig(**{**good, "degree_min": 1})
    with pytest.raises(ValueError):
        SearchConfig(**{**good, "degree_max": 2})
    with pytest.raises(ValueError):
        SearchConfig(**{**good, "seed": -1})
    with pytest.raises(ValueError):
        SearchConfig(**{**good, "distribution": "uniform:0,-1"})
    with pytest.raises(ValueError):
        SearchConfig(**{**good, "epsilon_policy": "nonsense:1"})
    with pytest.raises(ValueError):
        # positive-real claims cannot run over a complex distribution
        SearchConfig(**{**good, "distribution": "complex-disk:1"})
    SearchConfig(**{**good, "claim_id": "product_prop", "distribution": "complex-disk:1"})
    # the factorial and Stirling sums of these claims stop at degree 120
    for claim in ("basic_inequality", "deriv_sum_bound"):
        SearchConfig(**{**good, "claim_id": claim, "degree_max": 120})
        with pytest.raises(ValueError, match="degree_max"):
            SearchConfig(**{**good, "claim_id": claim, "degree_max": 121})
    # index_band nan made every real_case sample a SOLVER_FAILURE, -1 every one HYPOTHESES_NOT_MET
    for bad in (
        {"epsilon_policy": "fixed:inf"},
        {"delta": math.inf},
        {"index_band": math.nan},
        {"index_band": math.inf},
        {"index_band": -1.0},
    ):
        with pytest.raises(ValueError, match="finite"):
            SearchConfig(**{**good, **bad})
    # measures of these samples overflow, or underflow to zero
    for bad in (
        {"distribution": "uniform:1e300,1e305"},
        {"claim_id": "perm_sum_bound", "distribution": "log-uniform:1e-300,1e-290"},
        {"claim_id": "product_prop", "degree_max": 200, "distribution": "complex-disk:10"},
    ):
        with pytest.raises(ValueError, match="double range"):
            SearchConfig(**{**good, **bad})
    SearchConfig(**{**good, "claim_id": "product_prop", "degree_max": 150,
                    "distribution": "complex-disk:10"})
    # numpy draws a degree from 2**32 or more values by another rule
    wide = {**good, "distribution": "uniform:1,1", "degree_min": 2}
    SearchConfig(**{**wide, "degree_max": 2**32})
    with pytest.raises(ValueError, match="fewer than 2\\*\\*32 degrees"):
        SearchConfig(**{**wide, "degree_max": 2**32 + 1})


# ---------------------------------------------------------------------------
# sweeps


INDEX_CFG = SearchConfig(
    claim_id="index_bound",
    degree_min=3,
    degree_max=3,
    samples=200,
    seed=42,
    distribution="uniform:0.05,0.5",
)


def _numpy_stream(seed, index):
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
    )


def _numpy_key(seed, index):
    state = np.random.SeedSequence(entropy=seed, spawn_key=(index,)).generate_state(2, np.uint64)
    return [int(w) for w in state]


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
def test_sample_stream_keys_are_seedsequence_keys(seed):
    draws = random.Random(seed)
    indices = [0, 1, 2**32 - 1, 2**32, 2**40 + 7, 2**64 - 1, 2**64]
    indices += [draws.getrandbits(bits) for bits in (8, 31, 32, 33, 63, 64) for _ in range(3)]
    streams = _SampleStreams(seed)
    for index in indices:
        assert streams.keys(index, index + 1) == [_numpy_key(seed, index)], index


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), index=st.integers(0, 2**70))
def test_sample_stream_keys_are_seedsequence_keys_property(seed, index):
    assert _SampleStreams(seed).keys(index, index + 1) == [_numpy_key(seed, index)]


@pytest.mark.parametrize("seed", [0, 2**32 + 5, 2**64 - 1])
@pytest.mark.parametrize(
    "start, stop",
    [
        (0, 9),  # index 0 is one zero word
        (2**32 - 3, 2**32 + 4),  # one and two words in one call
        (2**64 - 3, 2**64 + 4),  # two and three words, and the low word wraps
        (2**32 - 2, 2**32 + 2**10),
        (2**96 - 2, 2**96 + 2),  # three and four words
        (2**70, 2**70 + 3),
    ],
)
def test_sample_stream_keys_of_one_shard_are_seedsequence_keys(seed, start, stop):
    keys = _SampleStreams(seed).keys(start, stop)
    assert keys == [_numpy_key(seed, index) for index in range(start, stop)]


def test_empty_shard_has_no_keys_and_no_samples():
    assert _SampleStreams(3).keys(5, 5) == []
    assert generate_roots(_config("product_prop", 2, 8, "complex-disk:1"), 5, 5) == ([], [])
    assert sum(run_search(INDEX_CFG, start=7, count=0).counts.values()) == 0


def test_reseeded_generator_draws_the_numpy_streams():
    # odd word counts leave Philox words buffered, which the next reseed drops
    streams = _SampleStreams(2**64 - 1)
    for index in (3, 2**32 - 1, 2**32, 2**40 + 7, 5):
        want = _numpy_stream(2**64 - 1, index).bit_generator.random_raw(7)
        assert streams.words(index, index + 1, 7).tolist() == [want.tolist()], index
    start = 2**32 - 2
    want = [_numpy_stream(2**64 - 1, i).bit_generator.random_raw(9).tolist()
            for i in range(start, start + 4)]
    assert streams.words(start, start + 4, 9).tolist() == want


def _record_samples(monkeypatch):
    """The zeros each sample of a sweep passes to run_claim, as (first, second) tuples."""
    seen = []
    run_claim = search.run_claim

    def recording(claim_id, roots, **kwargs):
        second = kwargs["second_roots"]
        seen.append((roots.roots, second and second.roots))
        return run_claim(claim_id, roots, **kwargs)

    monkeypatch.setattr(search, "run_claim", recording)
    return seen


@pytest.mark.parametrize(
    "claim, dist", [("basic_inequality", "log-uniform:0.001,1000"), ("product_prop", "complex-disk:2")]
)
def test_search_shards_past_2_to_32_draw_the_numpy_zeros(monkeypatch, claim, dist):
    seen = _record_samples(monkeypatch)
    config = SearchConfig(claim, 2, 8, 2**41, 2**64 - 1, dist)
    starts = (2**32 - 2, 2**40 + 7)
    for start in starts:
        run_search(config, start=start, count=4)
    pair = claim == "product_prop"
    assert seen == [numpy_sample(config.seed, i, 2, 8, dist, pair)
                    for start in starts for i in range(start, start + 4)]


def _assert_blocks_draw_the_numpy_streams(monkeypatch, claim, lo, hi, dist, start, count):
    """A two-block shard: its blocks' sizes, and each sample against the numpy oracle."""
    seen, blocks = _record_samples(monkeypatch), []
    draw = search.generate_roots

    def recording(config, first, stop):
        blocks.append(stop - first)
        return draw(config, first, stop)

    monkeypatch.setattr(search, "generate_roots", recording)
    config = SearchConfig(claim, lo, hi, 2**41, 5, dist)
    run_search(config, start=start, count=count)
    assert len(blocks) == 2 and sum(blocks) == count
    assert max(blocks) == min(search._KEY_BLOCK, search._BLOCK_WORDS // search._layout(config)[2])
    pair = claim == "product_prop"
    assert seen == [numpy_sample(5, i, lo, hi, dist, pair) for i in range(start, start + count)]


def test_shard_longer_than_one_key_block_draws_the_numpy_streams(monkeypatch):
    start = 2**32 - search._KEY_BLOCK - 1  # the second block starts at 2**32 - 1
    _assert_blocks_draw_the_numpy_streams(
        monkeypatch, "index_bound", 2, 8, "uniform:0.05,2", start, search._KEY_BLOCK + 3
    )


def test_blocks_of_wide_samples_stay_within_their_words(monkeypatch):
    # 481 words a sample: blocks of 136 samples keep a block within _BLOCK_WORDS
    _assert_blocks_draw_the_numpy_streams(
        monkeypatch, "product_prop", 100, 120, "complex-disk:1", 2**32 - 140, 150
    )


def test_search_longer_than_one_key_block_equals_a_merge_of_shards():
    config = dataclasses.replace(INDEX_CFG, samples=2 * search._KEY_BLOCK + 50)
    single = canonical_dumps(report_to_jsonable(run_search(config)))
    bounds = (0, 700, 1500, config.samples)
    shards = [run_search(config, start=a, count=b - a) for a, b in zip(bounds, bounds[1:])]
    assert canonical_dumps(report_to_jsonable(merge_reports(shards))) == single


def test_search_deterministic():
    first = canonical_dumps(report_to_jsonable(run_search(INDEX_CFG)))
    second = canonical_dumps(report_to_jsonable(run_search(INDEX_CFG)))
    assert first == second


def test_search_counts_sum_to_samples():
    report = run_search(INDEX_CFG)
    assert sum(report.counts.values()) == INDEX_CFG.samples


def test_search_finds_index_bound_violations():
    report = run_search(INDEX_CFG)
    assert report.counts["COUNTEREXAMPLE"] > 0


@pytest.mark.parametrize("claim", ["BASIC_INEQUALITY", "DERIV_SUM_BOUND"])
def test_search_counts_a_sample_with_an_overflowed_check_as_a_solver_failure(claim):
    # the derivative sum and its bound both overflow to inf at degree 120 near 300:
    # the margin inf - inf decides nothing, so the sample gets no verdict
    config = SearchConfig(
        claim_id=claim, degree_min=120, degree_max=120, samples=3, seed=1,
        distribution="uniform:300,350",
    )
    assert run_search(config).counts == {
        "HYPOTHESES_NOT_MET": 0, "CONFIRMED": 0, "COUNTEREXAMPLE": 0, "SOLVER_FAILURE": 3,
    }


def test_search_squeeze_finds_skewed_counterexamples():
    config = SearchConfig(
        claim_id=ClaimId.SQUEEZE,
        degree_min=3,
        degree_max=3,
        samples=120,
        seed=7,
        distribution="log-uniform:0.001,1000",
        epsilon_policy="measure-times:1.01",
        delta=1.0,
    )
    report = run_search(config)
    assert report.counts["COUNTEREXAMPLE"] >= 1


def test_shard_merge_equals_single_shot():
    # At cap 5 every 50-sample shard overflows its own cap.
    for cap in (100, 5):
        config = dataclasses.replace(INDEX_CFG, counterexample_cap=cap)
        single = canonical_dumps(report_to_jsonable(run_search(config)))
        shards = [run_search(config, start=s, count=50) for s in (0, 50, 100, 150)]
        # merge order must not matter
        for order in (shards, [shards[2], shards[0], shards[3], shards[1]]):
            merged = merge_reports(order)
            assert canonical_dumps(report_to_jsonable(merged)) == single


# Uniform and complex-disk draws keep the digests free of numpy's CPU-dispatched
# exp (ROADMAP item 17): no log-uniform report is pinned.
PINNED_REPORTS = [
    ("index_bound", 3, 3, "uniform:0.05,0.5", {},
     "3222f6543212978c0d5c0926a9b4cc2de89de37a8f3b68a425311361952d7a23"),
    ("basic_inequality", 2, 8, "uniform:0.05,2", {},
     "ae096cb3e67d3f073d2c8e021dd3f581241ee68776e9a00575d88d740b56440a"),
    ("perm_sum_bound", 2, 8, "uniform:0.05,2", {},
     "6284cb6de6bdc744c862e3e295a0c0fbb4a87033acbfd9d3aaf68f6c4606b0ec"),
    ("deriv_sum_bound", 2, 8, "uniform:0.05,2", {},
     "c8beaf2b5b93770aae0e09d2306c0fe2a43732a3524fca94ff81050cc4dedb66"),
    ("product_prop", 2, 8, "uniform:0.2,0.8", {},
     "79ba7a178ad7f97d7967dcb5fc520e0e1d98f45c51152d432fb4688419c5530b"),
    ("real_case", 2, 8, "uniform:0.05,2", {"index_band": 5.0},
     "1fcc0f1ca89a4bc1a50e4f10c2497037308c001a127f66a098a404aa52c6a325"),
    ("squeeze", 2, 8, "uniform:0.05,2", {},
     "57ca1f0a44a46e3a043dc3fce3b4d2aaedcce42f5210b79bb989e19851de911f"),
    # the derivative tower's depth in the benchmark: every order's maximum distance, up to 19
    ("squeeze", 12, 20, "uniform:0.05,2", {},
     "3c93746cda24525556b8805f22faf16e42b28d753f2edf70e2ff3f84414f3d14"),
    # radius and angle words, and the second multiset's start after the first
    ("product_prop", 2, 8, "complex-disk:2", {},
     "ece10017b08582b597eaf3ae24e3abf1fa637f0da98525681bbc856dfc657609"),
]


@pytest.mark.parametrize(
    "claim, lo, hi, dist, extra, digest", PINNED_REPORTS,
    ids=[c[0] + ("" if c[3].startswith("uniform:") else f"-{c[3]}") + ("" if c[2] <= 8 else f"-{c[1]}-{c[2]}")
         for c in PINNED_REPORTS],
)
def test_canonical_reports_are_pinned(claim, lo, hi, dist, extra, digest):
    # A digest changes only together with a CHANGES.md entry saying why the reports changed.
    config = SearchConfig(
        claim_id=claim, degree_min=lo, degree_max=hi, samples=40, seed=1,
        distribution=dist, counterexample_cap=10, **extra,
    )
    dumped = canonical_dumps(report_to_jsonable(run_search(config)))
    assert hashlib.sha256(dumped.encode("ascii")).hexdigest() == digest


def test_a_shard_across_2_to_32_and_a_key_block_is_pinned():
    # index_bound at degree 3-3 draws no degree word; its digest is pinned at sample 0 above
    config = SearchConfig(
        claim_id="index_bound", degree_min=3, degree_max=3, samples=2**41, seed=1,
        distribution="uniform:0.05,0.5", counterexample_cap=10,
    )
    dumped = canonical_dumps(report_to_jsonable(run_search(config, 2**32 - 1030, 1040)))
    assert hashlib.sha256(dumped.encode("ascii")).hexdigest() == (
        "5e7fc03e2244804945ca3ae5440bf5d02c59d3b86e3d49dfca1fed3cccde41cf"
    )


def test_counterexample_cap_and_overflow():
    report = run_search(INDEX_CFG)
    capped = SearchConfig(
        claim_id="index_bound",
        degree_min=3,
        degree_max=3,
        samples=200,
        seed=42,
        distribution="uniform:0.05,0.5",
        counterexample_cap=5,
    )
    small = run_search(capped)
    assert len(small.counterexamples) == 5
    assert small.overflow == report.counts["COUNTEREXAMPLE"] - 5
    hashes = [r.instance_hash for r in small.counterexamples]
    assert hashes == sorted(hashes)


def _canonical_records(records):
    return canonical_dumps([dataclasses.asdict(r) for r in records])


@pytest.mark.parametrize("coarse", [False, True], ids=["sha256", "ties"])
def test_a_capped_sweep_keeps_its_lowest_hashes_as_sorted_then_cut(monkeypatch, coarse):
    if coarse:
        # one hex digit: about 60 records share each hash, so ties decide what is kept
        monkeypatch.setattr(search, "_instance_hash", lambda roots: hashlib.sha256(
            canonical_dumps(list(roots)).encode("ascii")).hexdigest()[:1])
    config = dataclasses.replace(INDEX_CFG, samples=1000, counterexample_cap=1000)
    everything = run_search(config)
    assert everything.overflow == 0
    arrived = sorted(everything.counterexamples, key=lambda r: r.sample_index)
    for cap in (0, 1, 7, 100, 999):
        capped = run_search(dataclasses.replace(config, counterexample_cap=cap))
        expected = sorted(arrived, key=lambda r: r.instance_hash)[:cap]
        assert _canonical_records(capped.counterexamples) == _canonical_records(expected)
        assert capped.overflow == len(arrived) - len(expected)
        assert capped.counts == everything.counts


def test_a_sweeps_memory_is_bounded_by_its_cap():
    # about 93 % of these samples are counterexamples; the cap keeps 10 of them
    config = dataclasses.replace(INDEX_CFG, samples=10**6, counterexample_cap=10)

    def peak(count):
        # The same run goes first, untraced, then a collection: set-up, and the
        # free lists in which CPython keeps freed small objects, are then as this
        # run leaves them, whatever earlier tests left.  A block taken from a free
        # list is not traced, so earlier tests moved the peaks by over 100 kB.
        run_search(config, 0, count)
        gc.collect()
        tracemalloc.start()
        try:
            run_search(config, 0, count)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # the peak rises once, by about 166 kB, where the second block is drawn, and then stays
    two_blocks, four_blocks = peak(2 * search._KEY_BLOCK), peak(4 * search._KEY_BLOCK)
    # keeping every counterexample until the end took about 1.1 kB each: 2.2 MB more here
    assert four_blocks - two_blocks < 200_000, (two_blocks, four_blocks)


@pytest.mark.parametrize(
    "claim, lo, hi, dist", bench_workloads.CHEAP_CLAIMS,
    ids=[c[0] for c in bench_workloads.CHEAP_CLAIMS],
)
def test_a_sweep_coerces_each_drawn_multiset_once(monkeypatch, claim, lo, hi, dist):
    # Values are validated once, where they are drawn; later steps take the
    # RootMultiset or its plain tuples and build no new one from raw values.
    coerced = []
    post_init = RootMultiset.__post_init__

    def counted(self):
        if not isinstance(self.roots, RootMultiset):
            coerced.append(self.roots)
        post_init(self)

    monkeypatch.setattr(RootMultiset, "__post_init__", counted)
    config = SearchConfig(
        claim_id=claim, degree_min=lo, degree_max=hi, samples=200, seed=5, distribution=dist,
    )
    report = run_search(config)
    assert sum(report.counts.values()) == 200
    assert len(coerced) == 200 * (2 if claim == "PRODUCT_PROP" else 1)


@pytest.mark.parametrize("claim", ["INDEX_BOUND", "REAL_CASE", "BASIC_INEQUALITY"])
def test_a_sweep_checks_each_drawn_multiset_positive_real_once(monkeypatch, claim):
    # The expansion and the bound about it read one checked view of the zeros.
    checked = []
    view = RootMultiset.__dict__["_positive_reals"]

    def counted(self):
        checked.append(self.roots)
        return view.func(self)

    counted_view = functools.cached_property(counted)
    counted_view.__set_name__(RootMultiset, "_positive_reals")
    monkeypatch.setattr(RootMultiset, "_positive_reals", counted_view)
    config = SearchConfig(
        claim_id=claim, degree_min=2, degree_max=6, samples=200, seed=5,
        distribution="uniform:0.05,2",
    )
    report = run_search(config)
    assert sum(report.counts.values()) == 200
    assert len(checked) == 200


def test_fixed_eps_policy():
    config = SearchConfig(
        claim_id="perm_sum_bound",
        degree_min=2,
        degree_max=4,
        samples=50,
        seed=11,
        distribution="uniform:0.1,0.9",
        epsilon_policy="fixed:5.0",
    )
    report = run_search(config)
    assert sum(report.counts.values()) == 50


def test_product_prop_sweep_draws_two_multisets():
    config = SearchConfig(
        claim_id="product_prop",
        degree_min=2,
        degree_max=3,
        samples=40,
        seed=13,
        distribution="uniform:0.2,0.8",
        epsilon_policy="measure-times:1.5",
    )
    report = run_search(config)
    assert sum(report.counts.values()) == 40
    assert report.counts["COUNTEREXAMPLE"] == 0  # multiplicativity is exact


def test_report_json_excludes_wall_time():
    payload = report_to_jsonable(run_search(INDEX_CFG))
    assert "wall_time_s" not in json.dumps(payload)
    assert payload["rng_algorithm"].startswith("numpy-philox")
    assert payload["config_hash"] == config_hash(INDEX_CFG)


def test_counterexample_log_append(tmp_path):
    log = tmp_path / "counterexamples.ndjson"
    report = run_search(INDEX_CFG)
    written = write_counterexample_log(report, log)
    written_again = write_counterexample_log(report, log)
    lines = log.read_text().splitlines()
    assert len(lines) == written + written_again
    first = json.loads(lines[0])
    assert set(first) == {"config_hash", "roots", "verdict"}
    assert first["config_hash"] == config_hash(INDEX_CFG)


def test_shard_range_validation():
    with pytest.raises(ValueError):
        run_search(INDEX_CFG, start=0, count=500)
    with pytest.raises(ValueError):
        run_search(INDEX_CFG, start=-1)
    with pytest.raises(ValueError, match="count"):
        run_search(INDEX_CFG, 0, -5)  # was an empty report
    with pytest.raises(ValueError):
        merge_reports([])


# ---------------------------------------------------------------------------
# modulus projection and pullback


def test_modulus_projection_examples():
    assert modulus_projection([1j, -1j]).roots == (1, 1)
    assert modulus_projection([3 + 4j]).roots == (5,)
    mixed = modulus_projection([1 + 1j, 2])
    assert mixed.roots[0] == pytest.approx(math.sqrt(2))
    assert measure(mixed) == pytest.approx(measure([1 + 1j, 2]), rel=1e-15)


def test_modulus_projection_preserves_measure_randomly():
    rng = np.random.default_rng(17)
    for _ in range(300):
        n = int(rng.integers(1, 10))
        roots = tuple(
            complex(x, y)
            for x, y in zip(rng.normal(0, 3, n), rng.normal(0, 3, n))
        )
        if any(abs(r) == 0 for r in roots):
            continue
        projected = modulus_projection(roots)
        assert measure(projected) == pytest.approx(measure(roots), rel=1e-12)


def _pullback(roots):
    return complex_pullback_check(roots, critical_points(from_roots(roots)))


def test_pullback_symmetric_pair():
    record = _pullback([0.5, 0.5j])
    assert record.true_critical_points[0] == pytest.approx(0.25 + 0.25j, abs=1e-12)
    assert record.min_distance_true == pytest.approx(abs(0.25 + 0.25j - 0.5), abs=1e-12)
    assert record.min_distance_true < 1


def test_pullback_repeated_complex_root():
    record = _pullback([1 + 2j, 1 + 2j])
    assert record.min_distance_true <= 1e-12


def test_pullback_fourth_roots_of_unity():
    record = _pullback([1, 1j, -1, -1j])
    assert len(record.true_critical_points) == 3
    assert all(abs(b) <= 1e-9 for b in record.true_critical_points)
    assert record.projected_roots == (1, 1, 1, 1)
    assert record.projected_distances == pytest.approx([0, 0, 0], abs=1e-12)
    # exact boundary: a strict comparison with 1 falls on roundoff
    assert record.min_distance_true == pytest.approx(1.0, abs=1e-9)


def test_pullback_distance_is_the_distance_tables_entry():
    # the pullback reads the least zero's nearest distance itself; it is the same float
    rng = np.random.default_rng(22)
    for _ in range(200):
        n = int(rng.integers(2, 13))
        roots = (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)).tolist()
        crit = critical_points(from_roots(roots))
        table = sendov_distances(roots, crit)
        record = complex_pullback_check(roots, crit)
        assert record.min_distance_true == table.per_zero_min[table.min_zero_index]


def test_pullback_rejects_singletons():
    # the critical set is well formed, so only the pullback's own check can fire
    with pytest.raises(ValueError, match="at least two roots"):
        complex_pullback_check([1 + 1j], CriticalSet((), (), "none"))


def test_pullback_rejects_a_critical_set_of_the_wrong_length():
    cubic = critical_points(from_roots([1 + 1j, 2, -0.5j]))
    with pytest.raises(ValueError, match="2 zeros have 1 critical points, not 2"):
        complex_pullback_check([1 + 1j, 2], cubic)
    with pytest.raises(ValueError, match="4 zeros have 3 critical points, not 2"):
        complex_pullback_check([1 + 1j, 2, -0.5j, 3], cubic)
