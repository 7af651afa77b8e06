"""Command-line driver: analyze, verify, search, expand.

stdout carries the report (human text, or one canonical JSON document
with --json); stderr carries diagnostics only.  Exit codes: 0 ok,
1 usage or solver error, 2 counterexample found.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

from .claims import run_claim
from .critical import ConvergenceError, critical_points, sendov_distances
from .expansion import (
    index_bound_check,
    local_expansion_max_plus,
    local_expansion_min,
)
from .measure import is_epsilon_limited, measure
from .polynomials import (
    DEFAULT_TOL,
    RootDomainError,
    RootMultiset,
    from_roots,
    taylor_shift,
)
from .search import (
    RNG_ALGORITHM,
    SearchConfig,
    complex_pullback_check,
    report_to_jsonable,
    run_search,
    write_counterexample_log,
)
from .serialize import canonical_dumps, to_jsonable
from .verdicts import ClaimId, Classification

__all__ = ["main", "parse_complex", "parse_roots"]

SCHEMA_VERSION = "1"
SEED_ENV_VAR = "LIMPOLY_SEED"

_FLOAT = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_COMPLEX_RE = re.compile(rf"^(?P<real>[+-]?{_FLOAT})(?:(?P<imag>[+-]{_FLOAT})i)?$")


class UsageError(ValueError):
    pass


def parse_complex(token: str) -> complex:
    """Parse the literal grammar [-]a[(+|-)b i]; no whitespace, i suffix only."""
    match = _COMPLEX_RE.fullmatch(token)
    if match is None:
        raise UsageError(
            f"bad complex literal {token!r} (expected forms like 2, -0.5, 1+1i, 3-0.2i)"
        )
    real = float(match.group("real"))
    imag = float(match.group("imag")) if match.group("imag") else 0.0
    return complex(real, imag)


def parse_roots(text: str) -> RootMultiset:
    tokens = text.split(",")
    values = []
    for token in tokens:
        if not token:
            raise UsageError(f"empty root token in {text!r}")
        values.append(parse_complex(token))
    return RootMultiset(tuple(values))


def _parse_degree_range(text: str) -> tuple[int, int]:
    if "-" in text:
        lo_text, _, hi_text = text.partition("-")
        try:
            return int(lo_text), int(hi_text)
        except ValueError:
            raise UsageError(f"bad degree range {text!r} (expected N or MIN-MAX)") from None
    try:
        d = int(text)
    except ValueError:
        raise UsageError(f"bad degree {text!r} (expected N or MIN-MAX)") from None
    return d, d


def _skipped(reason: str) -> dict:
    return {"skipped": True, "reason": reason}


def _report(command: str, inputs: dict, results: dict, diagnostics: dict | None = None) -> dict:
    base = {
        "tolerance": {"abs": DEFAULT_TOL.abs, "rel": DEFAULT_TOL.rel},
    }
    if diagnostics:
        base.update(diagnostics)
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "inputs": inputs,
        "results": results,
        "diagnostics": base,
    }


# ---------------------------------------------------------------------------
# human rendering


def _fmt(x) -> str:
    # serialized complex values arrive as [re, im] pairs
    if isinstance(x, (list, tuple)) and len(x) == 2 and all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in x
    ):
        x = complex(x[0], x[1])
    if isinstance(x, complex):
        if x.imag == 0:
            return f"{x.real:.6f}"
        sign = "+" if x.imag >= 0 else "-"
        return f"{x.real:.6f}{sign}{abs(x.imag):.6f}i"
    if isinstance(x, float):
        return f"{x:.6f}"
    return str(x)


def _fmt_seq(values) -> str:
    return ", ".join(_fmt(v) for v in values)


def _print_verdict(name: str, verdict: dict, out) -> None:
    print(f"  {name}: {verdict['classification']}", file=out)
    for h in verdict["hypotheses"]:
        state = "met" if h["met"] else "unmet"
        print(f"    hypothesis {h['name']}: {state} (margin {_fmt(h['margin'])})", file=out)
    c = verdict["conclusion"]
    state = "holds" if c["holds"] else "fails"
    print(f"    conclusion: {state} (margin {_fmt(c['margin'])})", file=out)


def _render_sections(results: dict, out) -> None:
    for key in results:
        value = results[key]
        if isinstance(value, dict) and value.get("skipped"):
            print(f"{key}: skipped ({value['reason']})", file=out)
            continue
        if key == "measure":
            print(f"measure: {_fmt(value)}", file=out)
        elif key == "limitedness":
            word = "yes" if value["is_limited"] else "no"
            print(
                f"limited below eps {_fmt(value['epsilon'])}: {word} "
                f"(measure {_fmt(value['measure'])})",
                file=out,
            )
        elif key == "expansion":
            print(
                f"expansion about {value['sign']}-form center {_fmt(value['center'])} "
                f"(root #{value['center_index']}):",
                file=out,
            )
            print(f"  coefficients: {_fmt_seq(value['coeffs'])}", file=out)
            if value["residuals"]:
                print(f"  gaps: {_fmt_seq(value['residuals'])}", file=out)
        elif key == "shift_coefficients":
            print(f"shift coefficients: {_fmt_seq(value)}", file=out)
        elif key == "index_bound":
            print(f"index bounds (bound {_fmt(value['bound'])}):", file=out)
            for e in value["entries"]:
                word = "ok" if e["holds"] else "VIOLATION"
                print(
                    f"  order {e['order']}: |coeff| = {_fmt(e['magnitude'])} {word}",
                    file=out,
                )
            if not value["entries"]:
                print("  (no orders to check)", file=out)
        elif key == "critical_points":
            print(
                f"critical points ({value['method']}): {_fmt_seq(value['points'])}",
                file=out,
            )
        elif key == "sendov_distances":
            print(
                "distance to nearest critical point, per zero: "
                f"{_fmt_seq(value['per_zero_min'])}",
                file=out,
            )
            print(
                f"  every zero within unit distance: {value['all_within_unit']}; "
                f"max distance from least zero: {_fmt(value['max_from_min_zero'])}",
                file=out,
            )
        elif key == "claims":
            print("claims:", file=out)
            for claim_name in value:
                entry = value[claim_name]
                if isinstance(entry, dict) and entry.get("skipped"):
                    print(f"  {claim_name}: skipped ({entry['reason']})", file=out)
                else:
                    _print_verdict(claim_name, entry, out)
        elif key == "verdict":
            _print_verdict(results.get("claim", "claim"), value, out)
        elif key == "complex_pullback":
            print(
                f"projection check: nearest critical point is "
                f"{_fmt(value['min_distance_true'])} from the least-modulus zero "
                f"(within 1 + slack: {value['within_bound']})",
                file=out,
            )
        elif key == "search":
            print("search counts:", file=out)
            for bucket in sorted(value["counts"]):
                print(f"  {bucket}: {value['counts'][bucket]}", file=out)
            print(
                f"counterexamples stored: {len(value['counterexamples'])} "
                f"(overflow {value['overflow']})",
                file=out,
            )
        elif key == "claim":
            print(f"claim: {value}", file=out)
        elif key == "center":
            print(f"center: {_fmt(value)}", file=out)
        else:
            print(f"{key}: {canonical_dumps(value)}", file=out)


def _emit(report: dict, as_json: bool) -> None:
    if as_json:
        print(canonical_dumps(report))
    else:
        _render_sections(report["results"], sys.stdout)


# ---------------------------------------------------------------------------
# subcommands


def _claims_for_analyze(rs: RootMultiset, eps, delta: float, index_band: float) -> dict:
    claims: dict = {}
    if not rs.is_positive_real() or rs.n < 2:
        reason = "not-positive-real" if not rs.is_positive_real() else "degree-1"
        for cid in ClaimId:
            claims[cid.value.lower()] = _skipped(reason)
        return claims
    claims["real_case"] = to_jsonable(run_claim(ClaimId.REAL_CASE, rs, index_band=index_band))
    claims["index_bound"] = to_jsonable(run_claim(ClaimId.INDEX_BOUND, rs))
    if eps is None:
        for name in ("basic_inequality", "squeeze", "perm_sum_bound", "deriv_sum_bound"):
            claims[name] = _skipped("no-eps")
    else:
        claims["basic_inequality"] = to_jsonable(
            run_claim(ClaimId.BASIC_INEQUALITY, rs, eps=eps)
        )
        claims["squeeze"] = to_jsonable(
            run_claim(ClaimId.SQUEEZE, rs, eps=eps, delta=delta)
        )
        claims["perm_sum_bound"] = to_jsonable(
            run_claim(ClaimId.PERM_SUM_BOUND, rs, eps=eps)
        )
        claims["deriv_sum_bound"] = to_jsonable(
            run_claim(ClaimId.DERIV_SUM_BOUND, rs, eps=eps)
        )
    claims["product_prop"] = _skipped("requires-two-polynomials")
    return claims


def _cmd_analyze(args) -> int:
    rs = parse_roots(args.roots)
    results: dict = {"measure": measure(rs)}

    if args.eps is None:
        results["limitedness"] = _skipped("no-eps")
    else:
        results["limitedness"] = to_jsonable(is_epsilon_limited(rs, args.eps))

    positive_real = rs.is_positive_real()
    if positive_real:
        exp = local_expansion_min(rs)
        results["expansion"] = to_jsonable(exp)
        results["index_bound"] = to_jsonable(index_bound_check(exp, rs))
    else:
        results["expansion"] = _skipped("not-positive-real")
        results["index_bound"] = _skipped("not-positive-real")

    if rs.n >= 2:
        crit = critical_points(from_roots(rs))
        results["critical_points"] = to_jsonable(crit)
        results["sendov_distances"] = to_jsonable(sendov_distances(rs, crit))
    else:
        results["critical_points"] = _skipped("degree-1")
        results["sendov_distances"] = _skipped("degree-1")

    results["claims"] = _claims_for_analyze(rs, args.eps, args.delta, args.index_band)

    if rs.is_real():
        results["complex_pullback"] = _skipped("all-real-roots")
    elif rs.n < 2:
        results["complex_pullback"] = _skipped("degree-1")
    else:
        results["complex_pullback"] = to_jsonable(complex_pullback_check(rs, args.slack))

    inputs = {
        "roots": list(rs.roots),
        "eps": args.eps,
        "delta": args.delta,
        "index_band": args.index_band,
        "slack": args.slack,
    }
    _emit(_report("analyze", to_jsonable(inputs), results), args.json)
    return 0


def _claim_from_name(name: str) -> ClaimId:
    try:
        return ClaimId(name.upper())
    except ValueError:
        valid = ", ".join(c.value.lower() for c in ClaimId)
        raise UsageError(f"unknown claim {name!r}; valid claims: {valid}") from None


def _cmd_verify(args) -> int:
    cid = _claim_from_name(args.claim)
    rs = parse_roots(args.roots)
    second = parse_roots(args.roots2) if args.roots2 else None
    verdict = run_claim(
        cid,
        rs,
        eps=args.eps,
        delta=args.delta,
        second_roots=second,
        index_band=args.index_band,
    )
    inputs = {
        "claim": cid.value,
        "roots": list(rs.roots),
        "roots2": list(second.roots) if second else None,
        "eps": args.eps,
        "delta": args.delta,
        "index_band": args.index_band,
    }
    results = {"claim": cid.value, "verdict": to_jsonable(verdict)}
    _emit(_report("verify", to_jsonable(inputs), results), args.json)
    return 2 if verdict.classification is Classification.COUNTEREXAMPLE else 0


def _default_seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from None


def _cmd_search(args) -> int:
    cid = _claim_from_name(args.claim)
    degree_min, degree_max = _parse_degree_range(args.degree)
    seed = args.seed if args.seed is not None else _default_seed()
    config = SearchConfig(
        claim_id=cid,
        degree_min=degree_min,
        degree_max=degree_max,
        samples=args.samples,
        seed=seed,
        distribution=args.dist,
        epsilon_policy=args.eps_policy,
        delta=args.delta,
        index_band=args.index_band,
        counterexample_cap=args.cap,
    )
    report = run_search(config)
    if args.out:
        written = write_counterexample_log(report, args.out)
        print(f"appended {written} counterexample records to {args.out}", file=sys.stderr)
    print(f"wall time: {report.wall_time_s:.3f}s", file=sys.stderr)

    inputs = {
        "claim": cid.value,
        "degree": args.degree,
        "samples": args.samples,
        "seed": seed,
        "dist": args.dist,
        "eps_policy": args.eps_policy,
        "delta": args.delta,
        "cap": args.cap,
        "out": args.out,
    }
    results = {"search": report_to_jsonable(report)}
    _emit(
        _report("search", to_jsonable(inputs), results, {"rng_algorithm": RNG_ALGORITHM}),
        args.json,
    )
    found = report.counts.get(Classification.COUNTEREXAMPLE.value, 0)
    return 2 if found > 0 else 0


def _cmd_expand(args) -> int:
    rs = parse_roots(args.roots)
    selector = args.center
    results: dict
    if selector in ("min", "max-plus"):
        expand = local_expansion_min if selector == "min" else local_expansion_max_plus
        exp = expand(rs)
        results = {
            "expansion": to_jsonable(exp),
            "index_bound": to_jsonable(index_bound_check(exp, rs)),
        }
    elif selector.startswith("value:"):
        try:
            center = float(selector[len("value:"):])
        except ValueError:
            raise UsageError(f"bad center value in {selector!r}") from None
        shifted = taylor_shift(from_roots(rs), center)
        results = {
            "center": center,
            "shift_coefficients": to_jsonable(list(shifted)),
            "index_bound": _skipped("non-extremal-center"),
        }
    else:
        raise UsageError(
            f"bad center selector {selector!r} (expected min, max-plus, or value:<real>)"
        )
    inputs = {"roots": list(rs.roots), "center": selector}
    _emit(_report("expand", to_jsonable(inputs), results), args.json)
    return 0


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1, per the exit-code contract (argparse defaults to 2)
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# Flags whose value may start with "-" (a negative zero, as in --roots -1,2).
# argparse reads such a value as an option, so it is attached as --flag=value.
_ROOT_FLAGS = ("--roots", "--roots2")


def _attach_root_values(argv) -> list[str]:
    out = []
    tokens = iter(argv)
    for token in tokens:
        if token in _ROOT_FLAGS:
            value = next(tokens, None)
            if value is not None:
                token = f"{token}={value}"
        out.append(token)
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="limpoly", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_common(p):
        p.add_argument("--json", action="store_true", help="single canonical JSON document")

    p_analyze = sub.add_parser("analyze", help="full per-instance report")
    p_analyze.add_argument("--roots", required=True, help="comma-separated complex literals")
    p_analyze.add_argument("--eps", type=float, default=None)
    p_analyze.add_argument("--delta", type=float, default=1.0)
    p_analyze.add_argument("--index-band", type=float, default=1e-9)
    p_analyze.add_argument("--slack", type=float, default=0.0)
    add_common(p_analyze)
    p_analyze.set_defaults(handler=_cmd_analyze)

    p_verify = sub.add_parser("verify", help="check one claim on one instance")
    p_verify.add_argument("--claim", required=True)
    p_verify.add_argument("--roots", required=True)
    p_verify.add_argument("--roots2", default=None, help="second multiset (product_prop)")
    p_verify.add_argument("--eps", type=float, default=None)
    p_verify.add_argument("--delta", type=float, default=1.0)
    p_verify.add_argument("--index-band", type=float, default=1e-9)
    add_common(p_verify)
    p_verify.set_defaults(handler=_cmd_verify)

    p_search = sub.add_parser("search", help="seeded randomized claim sweep")
    p_search.add_argument("--claim", required=True)
    p_search.add_argument("--degree", default="2-6", help="N or MIN-MAX")
    p_search.add_argument("--samples", type=int, required=True)
    p_search.add_argument("--seed", type=int, default=None, help=f"default ${SEED_ENV_VAR} or 0")
    p_search.add_argument("--dist", default="log-uniform:0.001,1000")
    p_search.add_argument("--eps-policy", default="measure-times:1.01")
    p_search.add_argument("--delta", type=float, default=1.0)
    p_search.add_argument("--index-band", type=float, default=1e-9)
    p_search.add_argument("--cap", type=int, default=100)
    p_search.add_argument("--out", default=None, help="append counterexample log here")
    add_common(p_search)
    p_search.set_defaults(handler=_cmd_search)

    p_expand = sub.add_parser("expand", help="local expansion about a chosen center")
    p_expand.add_argument("--roots", required=True)
    p_expand.add_argument("--center", default="min", help="min, max-plus, or value:<real>")
    add_common(p_expand)
    p_expand.set_defaults(handler=_cmd_expand)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_attach_root_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.handler(args)
    except (UsageError, RootDomainError, ValueError, OverflowError) as exc:
        print(f"limpoly {args.command}: error: {exc}", file=sys.stderr)
        return 1
    except ConvergenceError as exc:
        print(f"limpoly {args.command}: solver error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
