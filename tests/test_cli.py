import cmath
import hashlib
import json
import math
import re
import textwrap

import numpy as np
import pytest

from limpoly import critical
from limpoly.cli import main, parse_complex
from limpoly.serialize import canonical_dumps
from oracles import complex_derivative_zeros


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
    assert report["schema_version"] == "4"
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


def test_analyze_solves_complex_critical_points_once(capsys, monkeypatch):
    # the pullback check takes the critical set analyze reports instead of solving it again
    calls = []
    solve = critical._complex_critical_points
    monkeypatch.setattr(
        critical, "_complex_critical_points", lambda v: calls.append(v) or solve(v)
    )
    code, out, _ = run_cli(capsys, "analyze", "--roots", "1+1i,2,0-0.5i", "--json")
    assert code == 0
    results = json.loads(out)["results"]
    assert len(calls) == 1
    pullback, crit = results["complex_pullback"], results["critical_points"]
    assert pullback["true_critical_points"] == crit["points"]


def test_analyze_subnormal_real_zeros(capsys):
    code, out, err = run_cli(capsys, "analyze", "--roots", "1e-310,2e-310,3e-310", "--json")
    assert (code, err) == (0, "")
    points = json.loads(out)["results"]["critical_points"]["points"]
    assert points == [[1.4226497308104e-310, 0.0], [2.5773502691896e-310, 0.0]]


@pytest.mark.parametrize(
    "argv, code",
    [
        (("analyze", "--roots=1e-320,3e-320,1e300"), 0),
        (("analyze", "--roots=1e-320,0+3e-320i,1e300"), 0),  # the pullback solves the real stage
        (("verify", "--claim", "squeeze", "--roots=1e-320,3e-320,1e300", "--eps", "1e300"), 2),
    ],
)
def test_a_subnormal_gap_beside_a_huge_real_zero(capsys, argv, code):
    # scaled by the stage's one power of two, set by 1e300, the gap between the tiny zeros
    # stayed subnormal: both of its near terms overflowed, and fsum raised on -inf + inf
    assert run_cli(capsys, *argv)[::2] == (code, "")


def test_analyze_places_the_point_of_a_subnormal_gap(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--roots=1e-320,3e-320,1e300")
    assert code == 0
    assert "critical points (interlace-bisection): 1.999978e-320, 6.666667e+299\n" in out


def test_analyze_mixed_scale_real_zeros(capsys):
    code, out, err = run_cli(capsys, "analyze", "--roots", "1e-310,2e-310,0.5", "--json")
    assert (code, err) == (0, "")
    assert len(json.loads(out)["results"]["critical_points"]["points"]) == 2


def test_analyze_mixed_scale_complex_zeros(capsys):
    code, out, err = run_cli(capsys, "analyze", "--roots=1e-200+1e-200i,2e-200,0+1e150i,3e150")
    assert (code, err) == (0, "")
    assert "critical points (simultaneous-iteration): 1.500000e-200+5.000000e-201i," in out


def test_analyze_survives_an_iterate_on_a_zero(capsys):
    # the least zero scales to 0 beside the largest, where an Aberth iterate ends; its radius is 0
    text = "-1.2176272777500325e-276,1.4523878668236158e+54,1.379050281403593e-88-1.1379760027415715e-106i"
    roots = [parse_complex(token) for token in text.split(",")]
    code, out, err = run_cli(capsys, "analyze", "--json", f"--roots={text}")
    assert (code, err) == (0, "")
    report = json.loads(out, parse_constant=lambda name: pytest.fail(f"{name} in the report"))
    assert canonical_dumps(report) + "\n" == out
    # right to the spread, as the complex path promises
    spread = max(abs(a - sum(roots) / 3) for a in roots)
    points = sorted((complex(re, im) for re, im in report["results"]["critical_points"]["points"]),
                    key=lambda b: b.real)
    exact = sorted((complex(b) for b in complex_derivative_zeros(roots)), key=lambda b: b.real)
    for b, ref in zip(points, exact, strict=True):
        assert abs(b - ref) <= 1e-13 * spread, (b, ref)


def _analyze_json_bytes(capsys, n: int) -> int:
    rng = np.random.default_rng(20261021)
    roots = [cmath.rect(math.sqrt(r), t) for r, t in zip(rng.uniform(0, 1, n), rng.uniform(0, 2 * math.pi, n))]
    code, out, _ = run_cli(capsys, "analyze", "--roots=" + ",".join(
        f"{z.real!r}{z.imag:+}i" for z in roots
    ), "--json")
    assert code == 0
    return len(out)


def test_analyze_json_grows_linearly_with_degree(capsys):
    # every section is O(n); an n^2 one (such as a full distance table) about quadruples at double n
    assert _analyze_json_bytes(capsys, 80) / _analyze_json_bytes(capsys, 40) < 2.1


def test_analyze_skips_a_claim_whose_check_leaves_double_range(capsys):
    # eps * stirling_sum(3) is inf: those claims have no verdict, the rest of the report stands
    code, out, _ = run_cli(capsys, "analyze", "--roots", "1,2,3", "--eps", "1e308", "--json")
    assert code == 0
    claims = json.loads(out)["results"]["claims"]
    for name in ("basic_inequality", "perm_sum_bound", "deriv_sum_bound"):
        assert claims[name] == {"skipped": True, "reason": "out-of-double-range"}
    assert claims["squeeze"]["classification"] == "COUNTEREXAMPLE"


def test_analyze_solver_error_is_a_one_line_error(capsys, monkeypatch):
    def no_convergence(p):
        raise critical.ConvergenceError("no convergence after 200 sweeps", (), ())

    monkeypatch.setattr("limpoly.cli.critical_points", no_convergence)
    for json_flag in ((), ("--json",)):
        code, out, err = run_cli(capsys, "analyze", "--roots", "1+1i,2", *json_flag)
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        assert err.startswith("limpoly analyze: solver error: no convergence after 200 sweeps")


def test_analyze_json_round_trip(capsys):
    _, out, _ = run_cli(capsys, "analyze", "--roots", "1,2,3", "--eps", "7", "--json")
    parsed = json.loads(out)
    assert canonical_dumps(parsed) == out.strip()


# sha256 of the --json stdout of each command; a digest changes only together
# with a CHANGES.md entry saying why the output changed.
PINNED_JSON = {
    "analyze --roots 1,2,3 --eps 7":
        "c199d143a9c632513e98e501d2dd589ca3add1c6c6d3494d1defb5d09ae753b8",
    "analyze --roots 0.001,0.001,500 --eps 1":
        "ce25a97ded14db4aebe629d98abd6f2d8080fcf2767cb235881345dd8da969ce",
    "analyze --roots 1+1i,2":
        "90a62d3e914c22176125b7eefdc9ceb5a051c3b11c84026777655eec122e2789",
    "verify --claim real_case --roots 0.1,0.2,0.3 --eps 1 --delta 1":
        "35e467c483b343b8f7808baeeed2e63995ecf149ae5d4ee5e9425d7f121e7fb3",
    "verify --claim index_bound --roots 0.1,0.2,0.3 --eps 1 --delta 1":
        "13c2642bde3392820c46ebb00731c609e4bcf4b8953806642c535d529209d1c9",
    "verify --claim basic_inequality --roots 0.1,0.2,0.3 --eps 1 --delta 1":
        "3e15f244816467960e75c9057957ba49c381c14a76ac501f1536ff27a34e9b15",
    "verify --claim squeeze --roots 0.1,0.2,0.3 --eps 1 --delta 1":
        "de6eaa406de804c8e0d41d5ffae4642d13746ece79a53974e03d12e04b817d85",
    "verify --claim perm_sum_bound --roots 0.1,0.2,0.3 --eps 1 --delta 1":
        "f964e7a1fab70261cf672daf8f9567d21b4680aaf50a38954509505e448b16e2",
    "verify --claim deriv_sum_bound --roots 0.1,0.2,0.3 --eps 1 --delta 1":
        "d4bf87fe82320759ed971e31cd436b281eb29e3f757782615d5f474989647a6d",
    "verify --claim product_prop --roots 0.1,0.2,0.3 --roots2 0.5,2 --eps 1 --delta 1":
        "77320e0b03a17d6c26772fe338f8a45d9289152974f0bf6a2efae5ef283870f2",
    "expand --roots 1,2,3 --center min":
        "141d7d27633c2cc29e48a05af3f307bbcc958ac02650bf7c1595d753deb357c5",
    "expand --roots 1,2,3 --center max-plus":
        "f81af1d8695eaf608d09e0864c8a2d89241cf52b2db99a9c914acd3bf9746ae4",
    "expand --roots 1,2,3 --center value:0.5":
        "f1bdfb7fea9f8b424ee20ac679bfebf19d947bb43355055bfe0d3611e680e0d1",
    "search --claim squeeze --degree 2-4 --samples 5 --seed 1":
        "8eb4c428eac9191773355e8f636549706af6597ee862194fd90a7d5efae09c4b",
    "analyze --roots 1+1i,2,0-0.5i --slack 0.1":
        "701ef27a97bab462423f2e6770e6b7901c2afaeed7093fe8b1979aa740a3f7ed",
    "analyze --roots=1e-300,2e-300,3e-300":
        "6f6f883b7cbf31963245aef1cdaf0b1a688131cb894c624bcc66fece6caee82e",
    "analyze --roots=1+1i,1+1i,2,0-0.5i":
        "361bc85147463879597a241fb442bf1bab4f427f99e69d2bd1251901085b8b6a",
    "analyze --roots=1e-150+1e-150i,2e-150,0+3e-150i":
        "03dcdef66524ca5db3c317e468257ec83ee7b378b59c5473bdc60cb6c4219037",
}


@pytest.mark.parametrize("command, digest", PINNED_JSON.items(), ids=list(PINNED_JSON))
def test_json_output_is_pinned(capsys, command, digest):
    _, out, _ = run_cli(capsys, *command.split(), "--json")
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest


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


def test_search_states_its_rng_once_and_times_itself_on_stderr(capsys):
    _, out, err = run_cli(
        capsys, "search", "--claim", "squeeze", "--degree", "3", "--samples", "2", "--seed", "1", "--json"
    )
    report = json.loads(out)
    assert report["schema_version"] == "4"
    assert report["diagnostics"] == {"tolerance": {"abs": 1e-10, "rel": 1e-09}}
    assert report["results"]["search"]["rng_algorithm"].startswith("numpy-philox")
    assert "wall" not in out
    assert re.fullmatch(r"wall time: \d+\.\d{3}s\n", err)


def test_search_zero_samples_usage_error(capsys):
    code, _, err = run_cli(
        capsys, "search", "--claim", "squeeze", "--samples", "0", "--seed", "1"
    )
    assert code == 1
    assert "samples" in err


@pytest.mark.parametrize(
    "dist, word",
    [("gaussian:0,1", "unknown distribution"), ("uniform:a,b", "malformed"),
     ("uniform:2", "lo,hi"), ("log-uniform:2,1", "0 < lo <= hi"), ("complex-disk:0", "radius")],
)
def test_search_bad_dist_is_a_one_line_error_every_time(capsys, dist, word):
    # a spec is parsed once and kept; a spec that fails to parse fails again on every call
    for _ in range(2):
        code, out, err = run_cli(
            capsys, "search", "--claim", "index_bound", "--degree", "3", "--samples", "5",
            "--seed", "1", "--dist", dist,
        )
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("limpoly search: error:") and word in err


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
        (["expand", "--center", "value:1e200", "--roots", "1,2,3"], "double range"),
        (["expand", "--center", "value:nan", "--roots", "1,2,3"], "finite"),
        (["verify", "--claim", "basic_inequality", "--roots", "1,2,3", "--eps", "1e308"],
         "double range"),
        (["verify", "--claim", "basic_inequality", "--roots", "1,2,3", "--eps", "1e308",
          "--json"], "double range"),
        (["verify", "--claim", "product_prop", "--roots", "1", "--roots2", "1", "--eps", "1e200",
          "--delta", "1e200", "--json"], "double range"),
        (["analyze", "--roots=1+1i,2", "--slack", "nan"], "nonnegative and finite"),
        (["analyze", "--roots=1+1i,2", "--slack", "nan", "--json"], "nonnegative and finite"),
        (["analyze", "--roots=1+1i,2", "--slack", "inf", "--json"], "nonnegative and finite"),
        (["verify", "--claim", "real_case", "--roots", "1,2,3", "--index-band", "nan"],
         "nonnegative and finite"),
        (["verify", "--claim", "real_case", "--roots", "1,2,3", "--index-band", "-1"],
         "nonnegative and finite"),
        (["search", "--claim", "real_case", "--degree", "3", "--samples", "50",
          "--index-band", "nan"], "nonnegative and finite"),
        # analyze checks the bound flags that no claim of these zeros uses, too
        (["analyze", "--roots=1+1i,2", "--index-band", "nan"], "--index-band must be nonnegative and finite"),
        (["analyze", "--roots=1+1i,2", "--index-band", "nan", "--json"],
         "--index-band must be nonnegative and finite"),
        (["analyze", "--roots=1+1i,2", "--delta", "nan"], "--delta must be positive and finite"),
        (["analyze", "--roots=1+1i,2", "--delta", "nan", "--json"], "--delta must be positive and finite"),
    ],
    ids=[
        "infinite-root", "infinite-eps", "measure-overflow", "search-range",
        "index-bound-overflow", "expand-overflow", "expand-shift-overflow", "expand-nan-center",
        "bound-overflow", "bound-overflow-json", "product-bound-overflow-json",
        "nan-slack", "nan-slack-json", "infinite-slack-json", "nan-index-band",
        "negative-index-band", "search-nan-index-band", "analyze-nan-index-band",
        "analyze-nan-index-band-json", "analyze-nan-delta", "analyze-nan-delta-json",
    ],
)
def test_non_finite_or_out_of_range_input_is_a_one_line_error(capsys, argv, word):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith(f"limpoly {argv[0]}: error:") and word in err


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
        "--seed", "3", "--dist", "uniform:0.3,0.9", "--index-band", "0.5", "--json",
    )
    assert code in (0, 2)
    report = json.loads(out)
    config = report["results"]["search"]["config"]
    assert config["degree_min"] == 2 and config["degree_max"] == 4
    # inputs echo every flag, index_band included
    assert config["index_band"] == report["inputs"]["index_band"] == 0.5


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


def test_expand_value_center_near_huge_zeros_is_the_product_of_their_gaps(capsys):
    # the coefficients of (x - 1e160) (x - 1.0000000001e160) overflow; those about 1e160 do not
    code, out, _ = run_cli(
        capsys, "expand", "--roots", "1e160,1.0000000001e160", "--center", "value:1e160", "--json"
    )
    assert code == 0
    shift = [complex(re, im) for re, im in json.loads(out)["results"]["shift_coefficients"]]
    assert shift == [0, -(1.0000000001e160 - 1e160), 1]


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


# ---------------------------------------------------------------------------
# human output

GOLDEN = {
    "analyze-real": (["analyze", "--roots", "1,2,3", "--eps", "7"], 0, """
        measure: 6.000000
        limited below eps 7.000000: yes (measure 6.000000)
        expansion about minus-form center 1.000000 (root #0):
          coefficients: 2.000000, -3.000000, 1.000000
          gaps: 1.000000, 2.000000
        index bounds (bound 6.000000):
          order 1: |coeff| = 2.000000 ok
          order 2: |coeff| = 3.000000 ok
        critical points (interlace-bisection): 1.422650, 2.577350
        distance to nearest critical point, per zero: 0.422650, 0.577350, 0.422650
          every zero within unit distance: True; max distance from least zero: 1.577350
        claims:
          real_case: HYPOTHESES_NOT_MET
            hypothesis quotient-one-limited: unmet (margin -5.000000)
            hypothesis index-pattern: unmet (margin -2.500000)
            conclusion: fails (margin -0.577350)
          index_bound: CONFIRMED
            conclusion: holds (margin 3.000000)
          basic_inequality: CONFIRMED
            hypothesis quotient-eps-limited: met (margin 1.000000)
            conclusion: holds (margin 46.741457)
          squeeze: COUNTEREXAMPLE
            hypothesis quotient-eps-limited: met (margin 1.000000)
            conclusion: fails (margin -0.577350)
          perm_sum_bound: CONFIRMED
            hypothesis quotient-eps-limited: met (margin 1.000000)
            conclusion: holds (margin 4.454959)
          deriv_sum_bound: CONFIRMED
            hypothesis quotient-eps-limited: met (margin 1.000000)
            conclusion: holds (margin 46.741457)
          product_prop: skipped (requires-two-polynomials)
        complex_pullback: skipped (all-real-roots)
    """),
    "analyze-complex": (["analyze", "--roots", "1+1i,2"], 0, """
        measure: 2.828427
        limitedness: skipped (no-eps)
        expansion: skipped (not-positive-real)
        index_bound: skipped (not-positive-real)
        critical points (simultaneous-iteration): 1.500000+0.500000i
        distance to nearest critical point, per zero: 0.707107, 0.707107
          every zero within unit distance: True; max distance from least zero: 0.707107
        claims:
          real_case: skipped (not-positive-real)
          basic_inequality: skipped (not-positive-real)
          squeeze: skipped (not-positive-real)
          perm_sum_bound: skipped (not-positive-real)
          deriv_sum_bound: skipped (not-positive-real)
          index_bound: skipped (not-positive-real)
          product_prop: skipped (not-positive-real)
        projection check: nearest critical point is 0.707107 from the least-modulus zero (within 1 + slack: True)
    """),
    "verify-squeeze-counterexample": (
        ["verify", "--claim", "squeeze", "--roots", "0.001,0.001,500", "--eps", "1", "--delta", "1"],
        2,
        """
        claim: SQUEEZE
          SQUEEZE: COUNTEREXAMPLE
            hypothesis quotient-eps-limited: met (margin 0.500000)
            conclusion: fails (margin -332.332667)
        """,
    ),
    "search-index-bound": (
        ["search", "--claim", "index_bound", "--degree", "3", "--samples", "50", "--seed", "42",
         "--dist", "uniform:0.05,0.5"],
        2,
        """
        search counts:
          CONFIRMED: 5
          COUNTEREXAMPLE: 45
          HYPOTHESES_NOT_MET: 0
          SOLVER_FAILURE: 0
        counterexamples stored: 45 (overflow 0)
        """,
    ),
    "expand-value-center": (["expand", "--roots", "1,2,3", "--center", "value:0.5"], 0, """
        center: 0.500000
        shift coefficients: -1.875000, 5.750000, -4.500000, 1.000000
        index_bound: skipped (non-extremal-center)
    """),
    # below 1e-4 or from 1e15 up, numbers print in exponent form
    "expand-tiny-and-huge": (["expand", "--roots", "1e-8,3e15", "--center", "min"], 0, """
        expansion about minus-form center 1.000000e-08 (root #0):
          coefficients: -3.000000e+15, 1.000000
          gaps: 3.000000e+15
        index bounds (bound 3.000000e+15):
          order 1: |coeff| = 3.000000e+15 VIOLATION
    """),
}


@pytest.mark.parametrize("argv, code, text", GOLDEN.values(), ids=GOLDEN.keys())
def test_human_output_golden(capsys, argv, code, text):
    got_code, out, _ = run_cli(capsys, *argv)
    assert got_code == code
    assert out == textwrap.dedent(text).lstrip("\n")
