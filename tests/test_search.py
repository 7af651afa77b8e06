import json
import math

import numpy as np
import pytest
from scipy import stats

from limpoly import (
    ClaimId,
    SearchConfig,
    canonical_dumps,
    complex_pullback_check,
    config_hash,
    generate_roots,
    measure,
    merge_reports,
    modulus_projection,
    report_to_jsonable,
    run_search,
    write_counterexample_log,
)


def _rng(seed=0):
    return np.random.Generator(np.random.Philox(seed))


# ---------------------------------------------------------------------------
# generation


def test_generate_degenerate_uniform():
    roots = generate_roots("uniform:1,1", 3, _rng())
    assert roots.roots == (1, 1, 1)


def test_generate_uniform_positive():
    roots = generate_roots("uniform:0.05,0.5", 200, _rng(3))
    assert all(r.imag == 0 and 0.05 <= r.real <= 0.5 for r in roots)


def test_generate_log_uniform_is_log_flat():
    values = [
        r.real
        for r in generate_roots("log-uniform:0.001,1000", 10000, _rng(4)).roots
    ]
    logs = np.log(values)
    span = (math.log(0.001), math.log(1000))
    assert logs.min() >= span[0] and logs.max() <= span[1]
    result = stats.kstest(logs, stats.uniform(span[0], span[1] - span[0]).cdf)
    assert result.pvalue > 1e-6


def test_generate_complex_disk_containment():
    roots = generate_roots("complex-disk:1", 500, _rng(5))
    assert all(abs(r) <= 1.0 for r in roots)
    # not all collinear: both axes get used
    assert any(abs(r.imag) > 0.1 for r in roots)


def test_generate_rejects_malformed_specs():
    with pytest.raises(ValueError):
        generate_roots("uniform:-1,2", 3, _rng())
    with pytest.raises(ValueError):
        generate_roots("uniform:2", 3, _rng())
    with pytest.raises(ValueError):
        generate_roots("gaussian:0,1", 3, _rng())
    with pytest.raises(ValueError):
        generate_roots("complex-disk:0", 3, _rng())


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
    for bad in ({"epsilon_policy": "fixed:inf"}, {"delta": math.inf}):
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
    single = run_search(INDEX_CFG)
    shards = [run_search(INDEX_CFG, start=s, count=50) for s in (0, 50, 100, 150)]
    merged = merge_reports(shards)
    assert merged.counts == single.counts
    assert canonical_dumps(report_to_jsonable(merged)) == canonical_dumps(
        report_to_jsonable(single)
    )
    # merge order must not matter
    shuffled = merge_reports([shards[2], shards[0], shards[3], shards[1]])
    assert canonical_dumps(report_to_jsonable(shuffled)) == canonical_dumps(
        report_to_jsonable(single)
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


def test_pullback_symmetric_pair():
    record = complex_pullback_check([0.5, 0.5j])
    assert record.true_critical_points[0] == pytest.approx(0.25 + 0.25j, abs=1e-12)
    assert record.min_distance_true == pytest.approx(abs(0.25 + 0.25j - 0.5), abs=1e-12)
    assert record.within_bound


def test_pullback_repeated_complex_root():
    record = complex_pullback_check([1 + 2j, 1 + 2j])
    assert record.min_distance_true <= 1e-12


def test_pullback_fourth_roots_of_unity():
    record = complex_pullback_check([1, 1j, -1, -1j])
    assert len(record.true_critical_points) == 3
    assert all(abs(b) <= 1e-9 for b in record.true_critical_points)
    for d in record.per_root_min_distance:
        assert d == pytest.approx(1.0, abs=1e-9)
    # exact boundary: the strict comparison sits at roundoff, but any
    # positive slack settles it
    assert record.min_distance_true == pytest.approx(1.0, abs=1e-9)
    assert complex_pullback_check([1, 1j, -1, -1j], slack=0.01).within_bound


def test_pullback_rejects_singletons_and_bad_slack():
    with pytest.raises(ValueError):
        complex_pullback_check([1 + 1j])
    with pytest.raises(ValueError):
        complex_pullback_check([1 + 1j, 2], slack=-0.1)
