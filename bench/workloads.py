"""The three benchmark workloads: inputs, calls, and the checks of their outputs.

Each workload is a closed loop of rounds.  A round is a fixed list of
calls; round r of a workload always makes the same kinds of calls on
fresh inputs drawn from the benchmark seed, so every run attempts whole
rounds of the same operations.  Importing this module imports limpoly.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from limpoly import (
    SearchConfig,
    canonical_dumps,
    from_roots,
    higher_derivative_zeros,
    measure,
    merge_reports,
    report_to_jsonable,
    run_claim,
    run_search,
    to_jsonable,
)
from limpoly.cli import main as cli_main

# Samples per sweep-cheap call: about 30 ms of work, so run_search's own
# per-call set-up (counts, sort, report) stays far below 1 % of a call.
CHEAP_SHARD = 200

# The five claims that never solve for critical points, at the configs
# of the ROADMAP baseline: (claim, degree_min, degree_max, distribution).
CHEAP_CLAIMS = (
    ("INDEX_BOUND", 3, 3, "uniform:0.05,0.5"),
    ("BASIC_INEQUALITY", 2, 8, "log-uniform:0.001,1000"),
    ("PERM_SUM_BOUND", 2, 8, "log-uniform:0.001,1000"),
    ("DERIV_SUM_BOUND", 2, 8, "log-uniform:0.001,1000"),
    ("PRODUCT_PROP", 2, 8, "complex-disk:2"),
)

# One single-sample squeeze shard per degree and round.  A squeeze sample
# costs 50-400 ms, so one sample already amortises the call set-up.  The
# degrees are fixed, not drawn, so every round does the same work: a drawn
# degree would make the call-time median depend on the seed.  An odd count
# puts the median inside the middle degree's calls.
SQUEEZE_DEGREES = (12, 16, 20)
SQUEEZE_DISTRIBUTION = "log-uniform:0.001,1000"

# One analyze call per degree and round, zeros uniform in the unit disk.
# Degree 40 is left out: its complex critical points lose 3 to 9 of their
# digits on some seeds' inputs, so whether a run passes its checks would
# depend on the seed (see the README).
ANALYZE_DEGREES = (5, 12, 20)
ANALYZE_POOL = 256  # rounds of distinct instances drawn at set-up, then reused

# Sweeps never get near this many samples; it only bounds shard ranges.
_SWEEP_SAMPLES = 10**9


def _config_seed(seed: int, slot: int) -> int:
    """Each sweep config of a run gets its own stream family."""
    return seed * 64 + slot


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def _eps_for(claim: str, first, second):
    """eps and delta by the sweeps' default eps policy, measure-times:1.01."""
    if claim == "PRODUCT_PROP":
        return 1.01 * measure(first), 1.01 * measure(second)
    j = min(range(len(first)), key=lambda i: (abs(first[i]), i))
    rest = [z for i, z in enumerate(first) if i != j]
    return 1.01 * measure(rest), 1.0


@dataclass(frozen=True)
class Call:
    slot: int  # which config or degree
    start: int  # first sample index (sweeps) or round index (analyze)
    count: int  # samples or instances in this call


class _Sweep:
    """Shared machinery of the two run_search workloads."""

    configs: list
    shard: int

    def calls(self, round_index: int) -> list[Call]:
        return [
            Call(slot, round_index * self.shard, self.shard) for slot in range(len(self.configs))
        ]

    def run(self, call: Call):
        return run_search(self.configs[call.slot], call.start, call.count)

    @staticmethod
    def failed(call: Call, report) -> int:
        return report.counts["SOLVER_FAILURE"]

    @staticmethod
    def digest(report) -> str:
        return _sha(canonical_dumps(report_to_jsonable(report)))

    @staticmethod
    def light_check(call: Call, report) -> list[str]:
        if sum(report.counts.values()) != call.count:
            return [f"slot {call.slot} shard {call.start}: counts do not sum to {call.count}"]
        return []

    def warm_up(self) -> None:
        for config in self.configs:
            run_search(config, 0, min(self.shard, 10))

    def _redraw(self, checks, call: Call):
        """Redrawn zeros and policy bounds of a shard, with the program's verdicts."""
        config = self.configs[call.slot]
        claim = config.claim_id.value
        samples, verdicts = [], []
        for index in range(call.start, call.start + call.count):
            first, second = checks.draw_sample(
                config.seed, index, config.degree_min, config.degree_max,
                config.distribution, pair=claim == "PRODUCT_PROP",
            )
            eps, delta = _eps_for(claim, first, second)
            samples.append((first, second, eps, delta))
            verdicts.append(to_jsonable(run_claim(
                claim, first, eps=eps, delta=delta, second_roots=second,
                index_band=config.index_band,
            )))
        return claim, samples, verdicts


class SweepCheap(_Sweep):
    name = "sweep-cheap"
    checked_rounds = 2

    def __init__(self, seed: int):
        self.shard = CHEAP_SHARD
        self.configs = [
            SearchConfig(
                claim_id=claim, degree_min=lo, degree_max=hi, samples=_SWEEP_SAMPLES,
                seed=_config_seed(seed, slot), distribution=dist,
            )
            for slot, (claim, lo, hi, dist) in enumerate(CHEAP_CLAIMS)
        ]

    def check(self, checks, rounds):
        """Rounds 0 and 1 sample by sample, then merged against one shot."""
        failures, found = [], []
        for call, report in (entry for outputs in rounds for entry in outputs):
            claim, samples, verdicts = self._redraw(checks, call)
            f, d = checks.check_sweep_shard(
                claim, self.configs[call.slot].counterexample_cap, call.start,
                report_to_jsonable(report), samples, verdicts,
            )
            failures += f
            found += d
        later = {call.slot: report for call, report in rounds[1]}
        for call, first in rounds[0]:
            if call.slot not in later:
                continue
            config = self.configs[call.slot]
            merged = canonical_dumps(report_to_jsonable(merge_reports([later[call.slot], first])))
            single = canonical_dumps(report_to_jsonable(run_search(config, 0, 2 * self.shard)))
            if merged != single:
                failures.append(f"{config.claim_id.value}: shard merge differs from one shot")
        return failures, found, []


class SqueezeTower(_Sweep):
    name = "squeeze-tower"
    checked_rounds = 3

    def __init__(self, seed: int):
        self.shard = 1
        self.configs = [
            SearchConfig(
                claim_id="SQUEEZE", degree_min=n, degree_max=n, samples=_SWEEP_SAMPLES,
                seed=_config_seed(seed, slot), distribution=SQUEEZE_DISTRIBUTION,
            )
            for slot, n in enumerate(SQUEEZE_DEGREES)
        ]

    def warm_up(self) -> None:
        run_search(self.configs[0], 0, 1)

    def check(self, checks, rounds):
        """Every tower zero of every sample of the checked rounds against the oracle."""
        failures, found = [], []
        for call, report in (entry for outputs in rounds for entry in outputs):
            claim, samples, verdicts = self._redraw(checks, call)
            f, d = checks.check_sweep_shard(
                claim, self.configs[call.slot].counterexample_cap, call.start,
                report_to_jsonable(report), samples, verdicts,
            )
            failures += f
            found += d
            for first, *_ in samples:
                poly = from_roots(first)
                tower = [higher_derivative_zeros(poly, k).points for k in range(1, len(first))]
                f, d = checks.check_squeeze_tower([z.real for z in first], tower)
                failures += f
                found += d
        return failures, found, []


def _literal(z: complex) -> str:
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real!r}{sign}{abs(z.imag)!r}i"


class AnalyzeComplex:
    name = "analyze-complex"
    checked_rounds = 3

    def __init__(self, seed: int):
        rng = np.random.Generator(np.random.Philox(seed))
        self.instances = []
        for _ in range(ANALYZE_POOL):
            row = []
            for n in ANALYZE_DEGREES:
                radius = np.sqrt(rng.uniform(0.0, 1.0, n))
                theta = rng.uniform(0.0, 2.0 * math.pi, n)
                roots = tuple(
                    complex(a * math.cos(t), a * math.sin(t)) for a, t in zip(radius, theta)
                )
                argv = ["analyze", "--roots=" + ",".join(_literal(z) for z in roots), "--json"]
                row.append((roots, argv))
            self.instances.append(row)

    def calls(self, round_index: int) -> list[Call]:
        return [Call(slot, round_index, 1) for slot in range(len(ANALYZE_DEGREES))]

    def run(self, call: Call):
        _, argv = self.instances[call.start % ANALYZE_POOL][call.slot]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli_main(argv)
        return code, out.getvalue()

    @staticmethod
    def failed(call: Call, output) -> int:
        return int(output[0] != 0)

    @staticmethod
    def digest(output) -> str:
        return _sha(f"{output[0]}\n{output[1]}")

    @staticmethod
    def light_check(call: Call, output) -> list[str]:
        """Exit code 0, and the document re-dumps byte for byte with plain json."""
        code, text = output
        where = f"analyze round {call.start} degree {ANALYZE_DEGREES[call.slot]}"
        if code != 0:
            return [f"{where}: exit code {code}"]
        if json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) != text.rstrip("\n"):
            return [f"{where}: the document does not re-dump byte for byte"]
        return []

    def warm_up(self) -> None:
        self.run(Call(0, 0, 1))

    def check(self, checks, rounds):
        """Every instance of the checked rounds against mpmath polyroots."""
        failures, found, projected = [], [], []
        for call, (_, text) in (entry for outputs in rounds for entry in outputs):
            roots, _ = self.instances[call.start % ANALYZE_POOL][call.slot]
            f, d, p = checks.check_analyze_document(roots, text)
            failures += f
            found += d
            projected += p
        notes = [f"complex_pullback projected critical points: {min(projected):.2f} digits "
                 "(reported, not gated)"] if projected else []
        return failures, found, notes


WORKLOADS = {cls.name: cls for cls in (SweepCheap, SqueezeTower, AnalyzeComplex)}

# Wrapped functions that must fire on each workload's traced run; a layer
# missing here reads as zero, which is right only where it does not run.
EXPECTED_LAYERS = {
    "sweep-cheap": (
        "search.run_search", "search.generate_roots", "claims.run_claim",
        "polynomials.RootMultiset", "polynomials.from_roots", "polynomials.derivative",
        "polynomials.derivative_at_order", "polynomials.permutation_sum_derivative",
        "expansion.local_expansion_min", "expansion.index_bound_check", "measure.measure",
        "measure.check_product_proposition", "verdicts.build_verdict",
        "serialize.canonical_dumps",
    ),
    "squeeze-tower": (
        "search.run_search", "search.generate_roots", "claims.run_claim",
        "claims.check_squeeze", "critical.interlace", "critical.higher_derivative_zeros",
        "polynomials.RootMultiset", "polynomials.from_roots", "polynomials.derivative",
        "measure.measure", "verdicts.build_verdict",
    ),
    "analyze-complex": (
        "cli.main", "cli.parse_roots", "search.complex_pullback_check",
        "critical.simultaneous", "critical.interlace", "critical.sendov_distances",
        "polynomials.RootMultiset", "polynomials.from_roots", "polynomials.derivative",
        "measure.measure", "serialize.canonical_dumps",
    ),
}
