"""Seeded randomized claim sweeps and the complex-to-real projection check.

Every sample owns its own counter-based random stream derived from
(seed, sample index), so a sweep can be split into shards by sample
range and merged back without changing a single draw.  Reports are
canonically serializable: identical config and seed give byte-identical
JSON (wall time is kept out of the canonical form).
"""

from __future__ import annotations

import hashlib
import math
import sys
import time
from dataclasses import dataclass

import numpy as np

from .claims import _STIRLING_N_MAX, run_claim
from .critical import ConvergenceError, critical_points
from .measure import _require_positive_finite, _rest_measure, measure
from .polynomials import RootMultiset, RootsLike, from_roots
from .serialize import canonical_dumps, to_jsonable
from .verdicts import ClaimId, ClaimVerdict, Classification

__all__ = [
    "RNG_ALGORITHM",
    "SearchConfig",
    "SearchReport",
    "complex_pullback_check",
    "config_hash",
    "generate_roots",
    "merge_reports",
    "modulus_projection",
    "report_to_jsonable",
    "run_search",
    "write_counterexample_log",
]

# Counter-based generator, identical draws for (seed, sample index) pairs
# regardless of sharding; the identifier is embedded in every report.
RNG_ALGORITHM = "numpy-philox4x64-10/seedsequence"

SOLVER_FAILURE = "SOLVER_FAILURE"

# Fixed histogram bin edges for conclusion margins; bucket 0 is everything
# below the first edge, the last bucket everything at or above the last.
MARGIN_BIN_EDGES = (-1.0, -0.1, -0.01, 0.0, 0.01, 0.1, 1.0)

_DISTRIBUTION_KINDS = ("uniform", "log-uniform", "complex-disk")
_POLICY_KINDS = ("fixed", "measure-times")

# Logarithms of the least normal and the largest double.
_LOG_MIN = math.log(sys.float_info.min)
_LOG_MAX = math.log(sys.float_info.max)


def _parse_distribution(spec: str):
    kind, _, rest = spec.partition(":")
    if kind not in _DISTRIBUTION_KINDS:
        raise ValueError(
            f"unknown distribution {spec!r}; expected one of {_DISTRIBUTION_KINDS}"
        )
    parts = rest.split(",") if rest else []
    try:
        params = [float(p) for p in parts]
    except ValueError:
        raise ValueError(f"malformed distribution parameters in {spec!r}") from None
    if kind in ("uniform", "log-uniform"):
        if len(params) != 2:
            raise ValueError(f"{kind} needs lo,hi bounds, got {spec!r}")
        lo, hi = params
        if not 0 < lo <= hi:
            raise ValueError(f"{kind} needs 0 < lo <= hi, got {spec!r}")
    else:
        if len(params) != 1 or not params[0] > 0:
            raise ValueError(f"complex-disk needs a positive radius, got {spec!r}")
    return kind, params


def _parse_policy(spec: str):
    kind, _, rest = spec.partition(":")
    if kind not in _POLICY_KINDS:
        raise ValueError(f"unknown eps policy {spec!r}; expected one of {_POLICY_KINDS}")
    try:
        value = float(rest)
    except ValueError:
        raise ValueError(f"malformed eps policy value in {spec!r}") from None
    if not 0 < value < math.inf:
        raise ValueError(f"eps policy value must be positive and finite, got {spec!r}")
    return kind, value


def generate_roots(distribution: str, n: int, rng: np.random.Generator) -> RootMultiset:
    """Draw n roots; real distributions yield positive reals."""
    if n < 1:
        raise ValueError("need at least one root")
    kind, params = _parse_distribution(distribution)
    if kind == "uniform":
        lo, hi = params
        values = rng.uniform(lo, hi, n)
        return RootMultiset(tuple(complex(v) for v in values))
    if kind == "log-uniform":
        lo, hi = params
        values = np.exp(rng.uniform(math.log(lo), math.log(hi), n))
        return RootMultiset(tuple(complex(v) for v in values))
    radius = params[0]
    r = radius * np.sqrt(rng.uniform(0.0, 1.0, n))
    theta = rng.uniform(0.0, 2.0 * math.pi, n)
    return RootMultiset(tuple(complex(a * math.cos(t), a * math.sin(t)) for a, t in zip(r, theta)))


@dataclass(frozen=True)
class SearchConfig:
    claim_id: ClaimId
    degree_min: int
    degree_max: int
    samples: int
    seed: int
    distribution: str
    epsilon_policy: str = "measure-times:1.01"
    delta: float = 1.0  # distance bound for SQUEEZE, second eps for PRODUCT_PROP
    index_band: float = 1e-9  # relaxed band for the REAL_CASE index hypothesis
    counterexample_cap: int = 100

    def __post_init__(self) -> None:
        if not isinstance(self.claim_id, ClaimId):
            object.__setattr__(self, "claim_id", ClaimId(str(self.claim_id).upper()))
        if self.degree_min < 2:
            raise ValueError("degree_min must be at least 2")
        if self.degree_max < self.degree_min:
            raise ValueError("degree_max must be >= degree_min")
        if self.samples < 1:
            raise ValueError("samples must be at least 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")
        if self.counterexample_cap < 0:
            raise ValueError("counterexample_cap must be nonnegative")
        _require_positive_finite("delta", self.delta)
        if (
            self.claim_id in (ClaimId.BASIC_INEQUALITY, ClaimId.DERIV_SUM_BOUND)
            and self.degree_max > _STIRLING_N_MAX
        ):
            raise ValueError(
                f"{self.claim_id.value} needs degree_max <= {_STIRLING_N_MAX} "
                "(its factorial and Stirling sums stay in double range only that far)"
            )
        kind, params = _parse_distribution(self.distribution)
        policy, factor = _parse_policy(self.epsilon_policy)
        if kind == "complex-disk" and self.claim_id is not ClaimId.PRODUCT_PROP:
            raise ValueError(
                f"{self.claim_id.value} needs positive real zeros; "
                "complex-disk sweeps support PRODUCT_PROP only"
            )
        # Every measure a sample takes, and every eps drawn from one, stays
        # in double range when these powers of the distribution's bounds do.
        # PRODUCT_PROP also takes the measure of both multisets together.
        zeros = self.degree_max * (2 if self.claim_id is ClaimId.PRODUCT_PROP else 1)
        scale = math.log(factor) if policy == "measure-times" else 0.0
        for b in params:
            logs = (zeros * math.log(b), scale + self.degree_max * math.log(b))
            if not all(_LOG_MIN <= v <= _LOG_MAX for v in logs):
                raise ValueError(
                    f"distribution {self.distribution!r} with eps policy "
                    f"{self.epsilon_policy!r}: measures of up to {zeros} zeros, or eps "
                    "values drawn from them, would leave double range"
                )


@dataclass(frozen=True)
class CounterexampleRecord:
    sample_index: int
    roots: tuple[complex, ...]
    verdict: ClaimVerdict
    instance_hash: str


@dataclass
class SearchReport:
    config: SearchConfig
    counts: dict
    counterexamples: list
    overflow: int  # counterexamples found beyond the stored cap
    margin_histograms: dict  # degree -> bucket counts over conclusion margins
    wall_time_s: float  # volatile; excluded from the canonical serialization


def config_hash(config: SearchConfig) -> str:
    return hashlib.sha256(canonical_dumps(config).encode("ascii")).hexdigest()


def _instance_hash(roots: tuple[complex, ...]) -> str:
    return hashlib.sha256(canonical_dumps(list(roots)).encode("ascii")).hexdigest()


def _sample_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
    )


def _resolve_eps(policy: str, roots: RootMultiset, claim: ClaimId) -> float:
    kind, value = _parse_policy(policy)
    if kind == "fixed":
        return value
    if claim is ClaimId.PRODUCT_PROP:
        return value * measure(roots)
    return value * _rest_measure(roots.roots, roots.min_modulus_index())


def _margin_bucket(margin: float) -> int:
    for i, edge in enumerate(MARGIN_BIN_EDGES):
        if margin < edge:
            return i
    return len(MARGIN_BIN_EDGES)


def _empty_counts() -> dict:
    counts = {c.value: 0 for c in Classification}
    counts[SOLVER_FAILURE] = 0
    return counts


def run_search(config: SearchConfig, start: int = 0, count: int | None = None) -> SearchReport:
    """Run one sweep, or one shard of it.

    start/count select a contiguous range of sample indices; the full
    sweep is the merge of any partition into shards, in any order.
    """
    if not 0 <= start <= config.samples:
        raise ValueError("shard start out of range")
    end = config.samples if count is None else start + count
    if end > config.samples:
        raise ValueError("shard extends past the configured sample count")

    began = time.perf_counter()
    counts = _empty_counts()
    histograms: dict[int, list[int]] = {}
    found: list[CounterexampleRecord] = []

    for index in range(start, end):
        rng = _sample_rng(config.seed, index)
        degree = int(rng.integers(config.degree_min, config.degree_max + 1))
        roots = generate_roots(config.distribution, degree, rng)
        second = None
        if config.claim_id is ClaimId.PRODUCT_PROP:
            second = generate_roots(config.distribution, degree, rng)
        eps = _resolve_eps(config.epsilon_policy, roots, config.claim_id)
        delta = config.delta
        if config.claim_id is ClaimId.PRODUCT_PROP and second is not None:
            delta = _resolve_eps(config.epsilon_policy, second, config.claim_id)
        try:
            verdict = run_claim(
                config.claim_id,
                roots,
                eps=eps,
                delta=delta,
                second_roots=second,
                index_band=config.index_band,
            )
        except ConvergenceError:
            counts[SOLVER_FAILURE] += 1
            continue
        counts[verdict.classification.value] += 1
        bucket = _margin_bucket(verdict.conclusion.margin)
        histograms.setdefault(degree, [0] * (len(MARGIN_BIN_EDGES) + 1))[bucket] += 1
        if verdict.classification is Classification.COUNTEREXAMPLE:
            logged = roots.roots if second is None else roots.roots + second.roots
            found.append(
                CounterexampleRecord(
                    sample_index=index,
                    roots=logged,
                    verdict=verdict,
                    instance_hash=_instance_hash(logged),
                )
            )

    # Keep the cap lowest instance hashes: the same rule a merge applies,
    # so shard-then-merge equals single-shot.
    found.sort(key=lambda r: r.instance_hash)
    kept = found[: config.counterexample_cap]
    return SearchReport(
        config=config,
        counts=counts,
        counterexamples=kept,
        overflow=len(found) - len(kept),
        margin_histograms=histograms,
        wall_time_s=time.perf_counter() - began,
    )


def merge_reports(reports) -> SearchReport:
    """Merge shard reports of one sweep; associative and commutative."""
    reports = list(reports)
    if not reports:
        raise ValueError("nothing to merge")
    reference = canonical_dumps(reports[0].config)
    if any(canonical_dumps(r.config) != reference for r in reports[1:]):
        raise ValueError("cannot merge reports with different configs")
    config = reports[0].config

    counts = _empty_counts()
    histograms: dict[int, list[int]] = {}
    pooled: list[CounterexampleRecord] = []
    overflow_seen = 0
    wall = 0.0
    for r in reports:
        for key, value in r.counts.items():
            counts[key] = counts.get(key, 0) + value
        for degree, buckets in r.margin_histograms.items():
            acc = histograms.setdefault(degree, [0] * len(buckets))
            for i, b in enumerate(buckets):
                acc[i] += b
        pooled.extend(r.counterexamples)
        overflow_seen += r.overflow
        wall += r.wall_time_s
    pooled.sort(key=lambda rec: rec.instance_hash)
    kept = pooled[: config.counterexample_cap]
    total_found = len(pooled) + overflow_seen
    return SearchReport(
        config=config,
        counts=counts,
        counterexamples=kept,
        overflow=total_found - len(kept),
        margin_histograms=histograms,
        wall_time_s=wall,
    )


def report_to_jsonable(report: SearchReport) -> dict:
    """Canonical form of a report; wall time deliberately left out."""
    return {
        "rng_algorithm": RNG_ALGORITHM,
        "config": to_jsonable(report.config),
        "config_hash": config_hash(report.config),
        "counts": to_jsonable(report.counts),
        "counterexamples": [
            {
                "sample_index": rec.sample_index,
                "roots": to_jsonable(list(rec.roots)),
                "verdict": to_jsonable(rec.verdict),
                "instance_hash": rec.instance_hash,
            }
            for rec in report.counterexamples
        ],
        "overflow": report.overflow,
        "margin_histograms": {
            str(d): report.margin_histograms[d] for d in sorted(report.margin_histograms)
        },
        "margin_bin_edges": list(MARGIN_BIN_EDGES),
    }


def write_counterexample_log(report: SearchReport, path) -> int:
    """Append one serialized (config hash, roots, verdict) line per record."""
    digest = config_hash(report.config)
    lines = []
    for rec in report.counterexamples:
        lines.append(
            canonical_dumps(
                {
                    "config_hash": digest,
                    "roots": list(rec.roots),
                    "verdict": rec.verdict,
                }
            )
        )
    with open(path, "a", encoding="ascii") as handle:
        for line in lines:
            handle.write(line + "\n")
    return len(lines)


# ---------------------------------------------------------------------------
# complex-to-real projection


def modulus_projection(complex_roots: RootsLike) -> RootMultiset:
    """Replace every root by its modulus; the measure is preserved exactly.

    Zero moduli are not an error here; downstream positivity-requiring
    operations reject them on their own terms.
    """
    rs = RootMultiset(complex_roots)
    return RootMultiset(tuple(complex(abs(r)) for r in rs.roots))


@dataclass(frozen=True)
class PullbackRecord:
    """Diagnostic comparison of a complex instance with its modulus projection.

    Distances are measured from the smallest-modulus root; nothing here
    is asserted, only measured.
    """

    min_zero_index: int
    true_critical_points: tuple[complex, ...]
    projected_roots: tuple[complex, ...]
    projected_critical_points: tuple[complex, ...]
    min_distance_true: float
    within_bound: bool  # min_distance_true < 1 + slack
    slack: float
    per_root_min_distance: tuple[float, ...]
    projected_distances: tuple[float, ...]  # from |least root| to projected criticals
    projected_zero_moduli: bool


def complex_pullback_check(complex_roots: RootsLike, slack: float = 0.0) -> PullbackRecord:
    """Project to moduli, solve both sides, report zero-to-critical distances."""
    if slack < 0:
        raise ValueError("slack must be nonnegative")
    rs = RootMultiset(complex_roots)
    if rs.n < 2:
        raise ValueError("needs at least two roots")
    projected = modulus_projection(rs)

    true_crit = critical_points(from_roots(rs))
    projected_crit = critical_points(from_roots(projected))

    j = rs.min_modulus_index()
    anchor = rs.roots[j]
    per_root = tuple(min(abs(a - b) for b in true_crit.points) for a in rs.roots)
    min_distance = per_root[j]
    projected_anchor = abs(anchor)
    projected_distances = tuple(
        abs(projected_anchor - c.real) for c in projected_crit.points
    )
    return PullbackRecord(
        min_zero_index=j,
        true_critical_points=true_crit.points,
        projected_roots=projected.roots,
        projected_critical_points=projected_crit.points,
        min_distance_true=min_distance,
        within_bound=min_distance < 1.0 + slack,
        slack=float(slack),
        per_root_min_distance=per_root,
        projected_distances=projected_distances,
        projected_zero_moduli=any(r == 0 for r in projected.roots),
    )
