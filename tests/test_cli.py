import json

import pytest

from limpoly.cli import main, parse_complex
from limpoly.serialize import canonical_dumps


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# literal parsing


def test_parse_complex_grammar():
    assert parse_complex("2") == 2
    assert parse_complex("-0.5") == -0.5
    assert parse_complex("1+1i") == 1 + 1j
    assert parse_complex("3-0.2i") == 3 - 0.2j
    assert parse_complex("1e-3+2e-4i") == complex(1e-3, 2e-4)
    for bad in ("3i", "1+2j", "1 + 2i", "", "abc", "1+i"):
        with pytest.raises(ValueError):
            parse_complex(bad)


def test_parse_roots_names_offending_token(capsys):
    code, _, err = run_cli(capsys, "analyze", "--roots", "1,oops,3")
    assert code == 1
    assert "oops" in err


# ---------------------------------------------------------------------------
# analyze


def test_analyze_cubic_json(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--roots", "1,2,3", "--eps", "7", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["schema_version"] == "1"
    assert report["command"] == "analyze"
    results = report["results"]
    assert results["measure"] == pytest.approx(6.0)
    assert results["limitedness"]["is_limited"]
    assert results["expansion"]["coeffs"] == [2, -3, 1]
    points = [complex(re, im) for re, im in results["critical_points"]["points"]]
    assert points[0].real == pytest.approx(1.42265, abs=1e-5)
    assert points[1].real == pytest.approx(2.57735, abs=1e-5)
    assert results["claims"]["real_case"]["classification"] == "HYPOTHESES_NOT_MET"
    assert results["claims"]["index_bound"]["classification"] == "CONFIRMED"
    assert results["complex_pullback"]["reason"] == "all-real-roots"


def test_roots_flags_accept_a_leading_minus(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--roots", "-1,2", "--json")
    assert code == 0
    assert json.loads(out)["inputs"]["roots"] == [[-1, 0], [2, 0]]
    code, out, _ = run_cli(
        capsys,
        "verify", "--claim", "product_prop", "--roots", "-0.5", "--roots2", "-0.25",
        "--eps", "1", "--delta", "1", "--json",
    )
    assert code == 0
    assert json.loads(out)["results"]["verdict"]["details"]["product_measure"] == pytest.approx(
        0.125
    )


def test_analyze_singleton(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--roots", "0.5", "--json")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["measure"] == pytest.approx(0.5)
    assert results["expansion"]["coeffs"] == [1]
    assert results["critical_points"]["reason"] == "degree-1"
    assert results["limitedness"]["reason"] == "no-eps"


def test_analyze_complex_roots(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--roots", "1+1i,2", "--json")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["expansion"]["reason"] == "not-positive-real"
    pullback = results["complex_pullback"]
    assert not pullback.get("skipped")
    assert pullback["projected_roots"][0][0] == pytest.approx(2**0.5)
    # every skipped section carries a machine-readable reason
    for section in results.values():
        if isinstance(section, dict) and section.get("skipped"):
            assert isinstance(section["reason"], str) and section["reason"]


def test_analyze_json_round_trip(capsys):
    _, out, _ = run_cli(capsys, "analyze", "--roots", "1,2,3", "--eps", "7", "--json")
    parsed = json.loads(out)
    assert canonical_dumps(parsed) == out.strip()


# ---------------------------------------------------------------------------
# verify


def test_verify_squeeze_counterexample_exit_2(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "--claim", "squeeze", "--roots", "0.001,0.001,500",
        "--eps", "1", "--delta", "1", "--json",
    )
    assert code == 2
    verdict = json.loads(out)["results"]["verdict"]
    assert verdict["classification"] == "COUNTEREXAMPLE"
    assert verdict["details"]["max_distance"] == pytest.approx(333.3327, abs=1e-3)


def test_verify_index_bound_confirmed_exit_0(capsys):
    code, out, _ = run_cli(capsys, "verify", "--claim", "index_bound", "--roots", "1,2,3", "--json")
    assert code == 0
    assert json.loads(out)["results"]["verdict"]["classification"] == "CONFIRMED"


def test_verify_perm_sum_confirmed_exit_0(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "--claim", "perm_sum_bound", "--roots", "0.1,0.2,0.3", "--eps", "1", "--json",
    )
    assert code == 0
    assert json.loads(out)["results"]["verdict"]["classification"] == "CONFIRMED"


def test_verify_hypotheses_not_met_exit_0(capsys):
    code, out, _ = run_cli(capsys, "verify", "--claim", "real_case", "--roots", "2,3", "--json")
    assert code == 0
    assert json.loads(out)["results"]["verdict"]["classification"] == "HYPOTHESES_NOT_MET"


def test_verify_unknown_claim_lists_names(capsys):
    code, _, err = run_cli(capsys, "verify", "--claim", "bogus", "--roots", "1")
    assert code == 1
    assert "real_case" in err and "product_prop" in err


def test_verify_product_prop_takes_second_multiset(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "--claim", "product_prop", "--roots", "0.5", "--roots2", "0.25",
        "--eps", "1", "--delta", "1", "--json",
    )
    assert code == 0
    verdict = json.loads(out)["results"]["verdict"]
    assert verdict["details"]["product_measure"] == pytest.approx(0.125)


def test_verify_missing_eps_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "verify", "--claim", "squeeze", "--roots", "1,2")
    assert code == 1
    assert "eps" in err


# ---------------------------------------------------------------------------
# search


def test_search_violations_and_exit_code(capsys):
    code, out, _ = run_cli(
        capsys,
        "search", "--claim", "index_bound", "--degree", "3", "--samples", "100",
        "--seed", "42", "--dist", "uniform:0.05,0.5", "--json",
    )
    assert code == 2
    counts = json.loads(out)["results"]["search"]["counts"]
    assert counts["COUNTEREXAMPLE"] > 0


def test_search_repeat_is_byte_identical(capsys):
    argv = [
        "search", "--claim", "index_bound", "--degree", "3", "--samples", "60",
        "--seed", "9", "--dist", "uniform:0.05,0.5", "--json",
    ]
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


def test_search_zero_samples_usage_error(capsys):
    code, _, err = run_cli(
        capsys, "search", "--claim", "squeeze", "--samples", "0", "--seed", "1"
    )
    assert code == 1
    assert "samples" in err


def test_search_degree_beyond_stirling_range_usage_error(capsys):
    code, out, err = run_cli(
        capsys,
        "search", "--claim", "basic_inequality", "--degree", "121", "--samples", "1",
        "--seed", "1",
    )
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("limpoly search: error:") and "degree_max" in err


@pytest.mark.parametrize(
    "argv, word",
    [
        (["analyze", "--roots", "1e400,1"], "finite"),
        (["verify", "--claim", "basic_inequality", "--roots", "1,2", "--eps", "inf"], "finite"),
        (["analyze", "--roots", "1e200,1e200"], "out of double range"),
        (["search", "--claim", "index_bound", "--degree", "3", "--samples", "5",
          "--dist", "uniform:1e300,1e305"], "double range"),
        (["verify", "--claim", "index_bound", "--roots", "1e-300,1e200,1e200,1e-100"],
         "double range"),
        (["expand", "--center", "min", "--roots", "1e-300,1e200,1e200,1e-100"], "double range"),
    ],
    ids=[
        "infinite-root", "infinite-eps", "measure-overflow", "search-range",
        "index-bound-overflow", "expand-overflow",
    ],
)
def test_non_finite_or_out_of_range_input_is_a_one_line_error(capsys, argv, word):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith(f"limpoly {argv[0]}: error:") and word in err


def test_search_seed_env_default(capsys, monkeypatch):
    monkeypatch.setenv("LIMPOLY_SEED", "123")
    argv = [
        "search", "--claim", "index_bound", "--degree", "3", "--samples", "20",
        "--dist", "uniform:0.05,0.5", "--json",
    ]
    _, from_env, _ = run_cli(capsys, *argv)
    monkeypatch.delenv("LIMPOLY_SEED")
    _, explicit, _ = run_cli(capsys, *argv[:-1] + ["--seed", "123", "--json"])
    assert json.loads(from_env)["inputs"]["seed"] == 123
    assert from_env == explicit


def test_search_writes_counterexample_log(capsys, tmp_path):
    log = tmp_path / "hits.ndjson"
    code, _, err = run_cli(
        capsys,
        "search", "--claim", "index_bound", "--degree", "3", "--samples", "50",
        "--seed", "42", "--dist", "uniform:0.05,0.5", "--out", str(log), "--json",
    )
    assert code == 2
    lines = log.read_text().splitlines()
    assert lines
    assert all("config_hash" in json.loads(line) for line in lines)


def test_search_degree_range_flag(capsys):
    code, out, _ = run_cli(
        capsys,
        "search", "--claim", "index_bound", "--degree", "2-4", "--samples", "30",
        "--seed", "3", "--dist", "uniform:0.3,0.9", "--json",
    )
    assert code in (0, 2)
    config = json.loads(out)["results"]["search"]["config"]
    assert config["degree_min"] == 2 and config["degree_max"] == 4


# ---------------------------------------------------------------------------
# expand


def test_expand_min_center(capsys):
    code, out, _ = run_cli(capsys, "expand", "--roots", "1,2,3", "--center", "min", "--json")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["expansion"]["coeffs"] == [2, -3, 1]
    assert results["expansion"]["residuals"] == [1, 2]


def test_expand_value_center_zero_gives_plain_coefficients(capsys):
    code, out, _ = run_cli(capsys, "expand", "--roots", "1,2,3", "--center", "value:0", "--json")
    assert code == 0
    shift = json.loads(out)["results"]["shift_coefficients"]
    assert [complex(re, im) for re, im in shift] == [-6, 11, -6, 1]


def test_expand_max_plus(capsys):
    code, out, _ = run_cli(capsys, "expand", "--roots", "1,4", "--center", "max-plus", "--json")
    assert code == 0
    assert json.loads(out)["results"]["expansion"]["coeffs"] == [-3, 1]


def test_expand_rejects_nonpositive_roots(capsys):
    code, _, err = run_cli(capsys, "expand", "--roots", "1,-2", "--center", "min")
    assert code == 1
    assert "-2" in err


def test_expand_bad_selector(capsys):
    code, _, err = run_cli(capsys, "expand", "--roots", "1,2", "--center", "middle")
    assert code == 1
    assert "selector" in err
