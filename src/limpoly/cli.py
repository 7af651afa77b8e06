"""Command-line driver: analyze, verify, search, expand.

stdout carries the report (human text, or one canonical JSON document
with --json); stderr carries diagnostics only.  Exit codes: 0 ok,
1 usage or solver error, 2 counterexample found.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
import time

from .claims import CLAIMS_TAKING_EPS, run_claim
from .critical import ConvergenceError, critical_points, sendov_distances
from .expansion import (
    index_bound_check,
    local_expansion_max_plus,
    local_expansion_min,
    taylor_shift,
)
from .measure import (
    _require_nonnegative_finite,
    _require_positive_finite,
    is_epsilon_limited,
    measure,
)
from .polynomials import (
    DEFAULT_TOL,
    RootMultiset,
    from_roots,
)
from .search import (
    SearchConfig,
    complex_pullback_check,
    report_to_jsonable,
    run_search,
    write_counterexample_log,
)
from .serialize import canonical_dumps, to_jsonable
from .verdicts import ClaimId, Classification

__all__ = ["main", "parse_complex", "parse_roots"]

# Each command's document layout; a version moves whenever that command's fields change.
SCHEMA_VERSION = {"analyze": "4", "expand": "3", "search": "4", "verify": "3"}

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


def _report(args, results: dict, **parsed) -> dict:
    """The report document; its inputs echo every flag, with `parsed` values for raw ones."""
    inputs = {k: v for k, v in vars(args).items() if k not in ("command", "handler", "json")}
    inputs.update(parsed)
    return {
        "schema_version": SCHEMA_VERSION[args.command],
        "command": args.command,
        "inputs": inputs,
        "results": results,
        "diagnostics": {"tolerance": {"abs": DEFAULT_TOL.abs, "rel": DEFAULT_TOL.rel}},
    }


# ---------------------------------------------------------------------------
# human rendering


def _num(v: float) -> str:
    """Six decimals, or exponent form where those would hide a tiny or bloat a huge value."""
    return f"{v:.6e}" if v != 0 and not 1e-4 <= abs(v) < 1e15 else f"{v:.6f}"


def _fmt(x) -> str:
    # serialized complex values arrive as [re, im] pairs
    if isinstance(x, (list, tuple)) and len(x) == 2 and all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in x
    ):
        x = complex(x[0], x[1])
    if isinstance(x, complex):
        if x.imag == 0:
            return _num(x.real)
        sign = "+" if x.imag >= 0 else "-"
        return f"{_num(x.real)}{sign}{_num(abs(x.imag))}i"
    if isinstance(x, float):
        return _num(x)
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
        _render_sections(to_jsonable(report["results"]), sys.stdout)


# ---------------------------------------------------------------------------
# subcommands


# The claims analyze checks, in report order.
_ANALYZE_CLAIMS = (
    ClaimId.REAL_CASE, ClaimId.INDEX_BOUND, ClaimId.BASIC_INEQUALITY,
    ClaimId.SQUEEZE, ClaimId.PERM_SUM_BOUND, ClaimId.DERIV_SUM_BOUND,
)


def _claims_for_analyze(rs: RootMultiset, eps, delta: float, index_band: float) -> dict:
    if not rs.is_positive_real() or rs.n < 2:
        reason = "not-positive-real" if not rs.is_positive_real() else "degree-1"
        return {cid.value.lower(): _skipped(reason) for cid in ClaimId}
    claims: dict = {}
    for cid in _ANALYZE_CLAIMS:
        name = cid.value.lower()
        if eps is None and cid in CLAIMS_TAKING_EPS:
            claims[name] = _skipped("no-eps")
        else:
            try:
                claims[name] = run_claim(cid, rs, eps=eps, delta=delta, index_band=index_band)
            except OverflowError:
                claims[name] = _skipped("out-of-double-range")
    claims["product_prop"] = _skipped("requires-two-polynomials")
    return claims


def _cmd_analyze(args) -> int:
    rs = parse_roots(args.roots)
    results: dict = {"measure": measure(rs)}

    if args.eps is None:
        results["limitedness"] = _skipped("no-eps")
    else:
        results["limitedness"] = is_epsilon_limited(rs, args.eps)

    if rs.is_positive_real():
        exp = local_expansion_min(rs)
        results["expansion"] = exp
        results["index_bound"] = index_bound_check(exp, rs)
    else:
        results["expansion"] = _skipped("not-positive-real")
        results["index_bound"] = _skipped("not-positive-real")

    if rs.n >= 2:
        crit = critical_points(from_roots(rs))
        results["critical_points"] = crit
        results["sendov_distances"] = sendov_distances(rs, crit)
    else:
        results["critical_points"] = _skipped("degree-1")
        results["sendov_distances"] = _skipped("degree-1")

    results["claims"] = _claims_for_analyze(rs, args.eps, args.delta, args.index_band)

    if rs.is_real():
        results["complex_pullback"] = _skipped("all-real-roots")
    elif rs.n < 2:
        results["complex_pullback"] = _skipped("degree-1")
    else:
        results["complex_pullback"] = complex_pullback_check(rs, crit, args.slack)

    _emit(_report(args, results, roots=rs.roots), args.json)
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
    results = {"claim": cid.value, "verdict": verdict}
    parsed = {"claim": cid.value, "roots": rs.roots, "roots2": second.roots if second else None}
    _emit(_report(args, results, **parsed), args.json)
    return 2 if verdict.classification is Classification.COUNTEREXAMPLE else 0


def _cmd_search(args) -> int:
    cid = _claim_from_name(args.claim)
    degree_min, degree_max = _parse_degree_range(args.degree)
    config = SearchConfig(
        claim_id=cid,
        degree_min=degree_min,
        degree_max=degree_max,
        samples=args.samples,
        seed=args.seed,
        distribution=args.dist,
        epsilon_policy=args.eps_policy,
        delta=args.delta,
        index_band=args.index_band,
        counterexample_cap=args.cap,
    )
    began = time.perf_counter()
    report = run_search(config)
    wall = time.perf_counter() - began
    if args.out:
        written = write_counterexample_log(report, args.out)
        print(f"appended {written} counterexample records to {args.out}", file=sys.stderr)
    print(f"wall time: {wall:.3f}s", file=sys.stderr)

    results = {"search": report_to_jsonable(report)}
    _emit(_report(args, results, claim=cid.value), args.json)
    found = report.counts.get(Classification.COUNTEREXAMPLE.value, 0)
    return 2 if found > 0 else 0


def _cmd_expand(args) -> int:
    rs = parse_roots(args.roots)
    selector = args.center
    if selector in ("min", "max-plus"):
        expand = local_expansion_min if selector == "min" else local_expansion_max_plus
        exp = expand(rs)
        results = {"expansion": exp, "index_bound": index_bound_check(exp, rs)}
    elif selector.startswith("value:"):
        try:
            center = float(selector[len("value:"):])
        except ValueError:
            raise UsageError(f"bad center value in {selector!r}") from None
        if not math.isfinite(center):
            raise UsageError(f"center value must be finite, got {selector!r}")
        results = {
            "center": center,
            "shift_coefficients": taylor_shift(rs, center),
            "index_bound": _skipped("non-extremal-center"),
        }
    else:
        raise UsageError(
            f"bad center selector {selector!r} (expected min, max-plus, or value:<real>)"
        )
    _emit(_report(args, results, roots=rs.roots), args.json)
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
    as_json = argparse.ArgumentParser(add_help=False)
    as_json.add_argument("--json", action="store_true", help="single canonical JSON document")
    bounds = argparse.ArgumentParser(add_help=False)
    bounds.add_argument("--delta", type=float, default=1.0)
    bounds.add_argument("--index-band", type=float, default=1e-9)

    def command(name, handler, help, *parents):
        p = sub.add_parser(name, help=help, parents=[*parents, as_json])
        p.set_defaults(handler=handler)
        return p

    p = command("analyze", _cmd_analyze, "full per-instance report", bounds)
    p.add_argument("--roots", required=True, help="comma-separated complex literals")
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--slack", type=float, default=0.0)

    p = command("verify", _cmd_verify, "check one claim on one instance", bounds)
    p.add_argument("--claim", required=True)
    p.add_argument("--roots", required=True)
    p.add_argument("--roots2", default=None, help="second multiset (product_prop)")
    p.add_argument("--eps", type=float, default=None)

    p = command("search", _cmd_search, "seeded randomized claim sweep", bounds)
    p.add_argument("--claim", required=True)
    p.add_argument("--degree", default="2-6", help="N or MIN-MAX")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dist", default="log-uniform:0.001,1000")
    p.add_argument("--eps-policy", default="measure-times:1.01")
    p.add_argument("--cap", type=int, default=100)
    p.add_argument("--out", default=None, help="append counterexample log here")

    p = command("expand", _cmd_expand, "local expansion about a chosen center")
    p.add_argument("--roots", required=True)
    p.add_argument("--center", default="min", help="min, max-plus, or value:<real>")
    return parser


_PARSER = _build_parser()

# Every bound flag with the rule its value must meet, checked before any command runs:
# a command that does not use a flag still echoes it in its --json inputs.
_BOUND_RULES = (
    ("eps", _require_positive_finite),
    ("delta", _require_positive_finite),
    ("index_band", _require_nonnegative_finite),
    ("slack", _require_nonnegative_finite),
)


def _check_bounds(args) -> None:
    for name, rule in _BOUND_RULES:
        value = getattr(args, name, None)
        if value is not None:
            rule(f"--{name.replace('_', '-')}", value)


def main(argv=None) -> int:
    args = _PARSER.parse_args(_attach_root_values(sys.argv[1:] if argv is None else argv))
    try:
        _check_bounds(args)
        return args.handler(args)
    except (ValueError, OverflowError) as exc:  # UsageError and RootDomainError included
        print(f"limpoly {args.command}: error: {exc}", file=sys.stderr)
        return 1
    except ConvergenceError as exc:
        print(f"limpoly {args.command}: solver error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
