"""Seeded randomized claim sweeps and the complex-to-real projection check.

Every sample owns its own counter-based random stream derived from
(seed, sample index), so a sweep can be split into shards by sample
range and merged back without changing a single draw.  Sample i of a
sweep with seed s draws from Generator(Philox(SeedSequence(entropy=s,
spawn_key=(i,)))): Philox4x64-10 from counter 0, keyed by that
SeedSequence's first two 64-bit output words.  A sweep starts from the
seed's share of that key, derives the keys of its samples in numpy
passes over blocks of samples, reads each sample's raw Philox words, and
derives a block's degrees and zeros from them in numpy passes.  Reports
are canonically serializable: identical config and seed give
byte-identical JSON.
"""

from __future__ import annotations

import bisect
import hashlib
import heapq
import math
import sys
from dataclasses import dataclass

import numpy as np

from .claims import CLAIMS, run_claim
from .critical import ConvergenceError, CriticalSet, critical_points
from .measure import _require_nonnegative_finite, _require_positive_finite, _rest_measure, measure
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
# regardless of sharding; the identifier is embedded in every report.  The
# Philox key of sample i is SeedSequence(entropy=seed, spawn_key=(i,))
# .generate_state(2, uint64), and its counter starts at 0.
RNG_ALGORITHM = "numpy-philox4x64-10/seedsequence"

# SeedSequence's constants (numpy.random.bit_generator): the hash of words
# entering the pool, the hash of words leaving it, and the pool mixer.
_MASK32, _MASK64 = 0xFFFFFFFF, 0xFFFFFFFFFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# The entering hash constant once the four pool words are hashed and mixed
# (16 steps); each index word then takes four steps, h to h m**4 (m = _MULT_A),
# hashing lane d with h m**d and h m**(d + 1).  The five leaving constants
# hash the four output words the same way.
_POOL_HASH = _INIT_A * pow(_MULT_A, 16, 1 << 32) & _MASK32
_MULT_A_4 = pow(_MULT_A, 4, 1 << 32)
_LANE_POWERS = np.array([pow(_MULT_A, k, 1 << 32) for k in range(5)], dtype=np.uint64)[:, None]
_OUT_HASH = np.array(
    [_INIT_B * pow(_MULT_B, k, 1 << 32) & _MASK32 for k in range(5)], dtype=np.uint64
)[:, None]
# Samples drawn in one block, of at most _BLOCK_WORDS raw words: memory
# stays bounded on any sweep, and a block's numpy passes are spread over
# its samples.
_KEY_BLOCK = 1024
_BLOCK_WORDS = 1 << 16

# Samples with no verdict: the solver ran out of sweeps, or a checked value left double range.
SOLVER_FAILURE = "SOLVER_FAILURE"

# Fixed histogram bin edges for conclusion margins; bucket 0 is everything
# below the first edge, and a margin equal to an edge counts in the bucket above it.
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
        params = tuple(float(p) for p in parts)
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


def _paired(claim: ClaimId) -> bool:
    """Whether the claim takes a second zero set, drawn after the first."""
    return "second_roots" in CLAIMS[claim].takes


@dataclass(frozen=True)
class SearchConfig:
    claim_id: ClaimId
    degree_min: int
    degree_max: int
    samples: int
    seed: int
    distribution: str
    epsilon_policy: str = "measure-times:1.01"
    delta: float = 1.0  # distance bound for SQUEEZE; PRODUCT_PROP takes both eps from the policy
    index_band: float = 1e-9  # relaxed band for the REAL_CASE index hypothesis
    counterexample_cap: int = 100

    def __post_init__(self) -> None:
        if not isinstance(self.claim_id, ClaimId):
            object.__setattr__(self, "claim_id", ClaimId(str(self.claim_id).upper()))
        if self.degree_min < 2:
            raise ValueError("degree_min must be at least 2")
        if self.degree_max < self.degree_min:
            raise ValueError("degree_max must be >= degree_min")
        if self.degree_max - self.degree_min >= _MASK32:  # numpy's 64-bit integers rule
            raise ValueError("a degree range spans fewer than 2**32 degrees")
        if self.samples < 1:
            raise ValueError("samples must be at least 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")
        if self.counterexample_cap < 0:
            raise ValueError("counterexample_cap must be nonnegative")
        _require_positive_finite("delta", self.delta)
        _require_nonnegative_finite("index_band", self.index_band)
        limit = CLAIMS[self.claim_id].degree_max
        if limit is not None and self.degree_max > limit:
            raise ValueError(
                f"{self.claim_id.value} needs degree_max <= {limit} "
                "(its checked values stay in double range only that far)"
            )
        kind, params = _parse_distribution(self.distribution)
        policy, factor = _parse_policy(self.epsilon_policy)
        paired = _paired(self.claim_id)
        if kind == "complex-disk" and not paired:
            raise ValueError(
                f"{self.claim_id.value} needs positive real zeros; "
                "complex-disk sweeps support PRODUCT_PROP only"
            )
        # Every measure a sample takes, and every eps drawn from one, stays
        # in double range when these powers of the distribution's bounds do.
        # A claim on two zero sets also takes the measure of both together.
        zeros = self.degree_max * (2 if paired else 1)
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


def config_hash(config: SearchConfig) -> str:
    return hashlib.sha256(canonical_dumps(config).encode("ascii")).hexdigest()


def _instance_hash(roots: tuple[complex, ...]) -> str:
    return hashlib.sha256(canonical_dumps(list(roots)).encode("ascii")).hexdigest()


class _SampleStreams:
    """The raw Philox words of the stream of each sample of a sweep.

    The stream of sample i is Generator(Philox(SeedSequence(entropy=seed,
    spawn_key=(i,)))), reproduced exactly.  That SeedSequence pads the
    seed's 32-bit words with zeros to its pool of four, hashes them into
    the pool, then mixes in the index's words: only that last part depends
    on i.  SeedSequence(seed) without a spawn key pads and hashes the same
    four words, so its pool is the one to start from.  The hash constant
    has then run through 16 steps, and it runs through four more for each
    index word, so it too is known before the index is.

    The keys of a block are derived in numpy passes with no per-sample
    Python: the pool is a (4, N) uint64 array, one column per sample, and
    each hash or mix step is one whole-array operation on 32-bit values
    held in 64 bits.  An index past 2**32 has more words; as the indices
    ascend, the columns that take word w are those from the first index at
    or past 2**(32 w) on.  One Philox bit generator is then reseeded to each
    key in turn and reads that sample's words.
    """

    def __init__(self, seed: int) -> None:
        self._pool = np.random.SeedSequence(seed).pool.astype(np.uint64)[:, None]
        self._bitgen = np.random.Philox(0)  # reseeded before every sample
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": (0, 0, 0, 0), "key": None},
            "buffer": (0, 0, 0, 0),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def keys(self, start: int, stop: int) -> list[list[int]]:
        """The two Philox key words, generate_state(2, uint64), of samples start..stop-1."""
        count = max(stop - start, 0)
        low = np.arange(count, dtype=np.uint64) + np.uint64(start & _MASK64)  # wraps at 2**64
        pool, word, h = np.repeat(self._pool, count, axis=1), 0, _POOL_HASH
        while (first := max((1 << 32 * word) - start, 0) if word else 0) < count:
            if word < 2:
                words = (low >> 32 if word else low) & _MASK32
            else:  # past 2**64: the words of start >> 64, plus 1 on the columns that wrapped
                high, shift = start >> 64, 32 * (word - 2)
                words = np.where(low < low[0], np.uint64(high + 1 >> shift & _MASK32),
                                 np.uint64(high >> shift & _MASK32))
            consts = h * _LANE_POWERS & _MASK32
            h = h * _MULT_A_4 & _MASK32
            v = (words[first:] ^ consts[:4]) * consts[1:] & _MASK32
            v ^= v >> 16
            mixed = (_MIX_MULT_L * pool[:, first:] - _MIX_MULT_R * v) & _MASK32
            pool[:, first:] = mixed ^ mixed >> 16
            word += 1
        out = (pool ^ _OUT_HASH[:4]) * _OUT_HASH[1:] & _MASK32
        out ^= out >> 16
        return (out[::2] | out[1::2] << 32).T.tolist()

    def words(self, start: int, stop: int, width: int) -> np.ndarray:
        """The first width raw words, random_raw(width), of samples start..stop-1: one row each."""
        out = np.empty((max(stop - start, 0), width), dtype=np.uint64)
        state, bitgen = self._state, self._bitgen
        for row, key in enumerate(self.keys(start, stop)):
            state["state"]["key"] = key
            bitgen.state = state
            out[row] = bitgen.random_raw(width)
        return out


def _degrees(words: np.ndarray, low: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Generator.integers(low, low + width) on each row of raw words, for width < 2**32.

    numpy's 32-bit rule (Lemire 2019) takes 32-bit values x in turn, the
    low and then the high half of each word, and returns low + (x width >> 32)
    for the first x whose x width mod 2**32 is at least (2**32 - width) mod
    width.  Returns the degrees, and per row the word after the one that
    gave its degree: -1 where no half of the row's words is accepted.
    """
    halves = np.stack((words & _MASK32, words >> 32), axis=2)  # the low, then the high half
    halves = halves.reshape(len(words), 2 * words.shape[1])
    scaled = halves * np.uint64(width)
    accepted = (scaled & _MASK32) >= (2**32 - width) % width
    first = accepted.argmax(axis=1)
    degrees = low + (scaled[np.arange(len(words)), first] >> 32).astype(np.int64)
    return degrees, np.where(accepted.any(axis=1), first // 2 + 1, -1)


def _layout(config: SearchConfig) -> tuple[int, int, int]:
    """Raw words a sample reads for its degree (0 or 1), per multiset zero, and at most in all."""
    kind, _ = _parse_distribution(config.distribution)
    skip = int(config.degree_min < config.degree_max)
    per_zero = 2 if kind == "complex-disk" else 1  # a radius and an angle
    sets = 2 if _paired(config.claim_id) else 1
    return skip, per_zero, skip + sets * per_zero * config.degree_max


def generate_roots(
    config: SearchConfig, start: int, stop: int
) -> tuple[list[list[complex]], list[list[complex] | None]]:
    """Draw samples start..stop-1 of a sweep as one block.

    Returns the zeros of each sample, and those of its second multiset for
    PRODUCT_PROP (None for the other claims), as plain lists of floats
    (complex for complex-disk): a sweep validates each as a RootMultiset
    when it takes the sample.  A sample reads the raw words of its stream
    as Generator.integers and Generator.uniform would: its degree from
    word 0 (no word when degree_min == degree_max), then one word per zero
    (complex-disk: the n radii, then the n angles), the second multiset
    after the first.  Word w gives u = (w >> 11) 2**-53, and the zero
    lo + (hi - lo) u; log-uniform takes exp of that on (log lo, log hi).
    Each map is one numpy pass over the block.
    """
    kind, params = _parse_distribution(config.distribution)
    skip, per_zero, width = _layout(config)
    streams = _SampleStreams(config.seed)
    words = streams.words(start, stop, width)
    degrees = [config.degree_min] * len(words)
    if skip:
        low, span = config.degree_min, config.degree_max - config.degree_min + 1
        drawn, used = _degrees(words[:, :1], low, span)
        degrees = drawn.tolist()
        for row in np.flatnonzero(used < 0).tolist():  # both halves of word 0 rejected
            extra = 2
            while True:  # the degree from the first extra words, the zeros after it
                longer = streams.words(start + row, start + row + 1, extra + width - 1)
                drawn, used = _degrees(longer[:, :extra], low, span)
                if used[0] > 0:
                    degrees[row] = int(drawn[0])
                    words[row, 1:] = longer[0, used[0]:used[0] + width - 1]
                    break
                extra *= 2
    u = (words[:, skip:] >> 11).astype(np.float64)
    u *= 2.0**-53
    if kind == "complex-disk":
        radii = (params[0] * np.sqrt(u)).tolist()
        angles = (u * (2.0 * math.pi)).tolist()

        def zeros(row, n, at):
            return [complex(a * math.cos(t), a * math.sin(t))
                    for a, t in zip(radii[row][at:at + n], angles[row][at + n:at + 2 * n])]
    else:
        lo, hi = (math.log(b) for b in params) if kind == "log-uniform" else params
        u *= hi - lo
        u += lo
        values = (np.exp(u) if kind == "log-uniform" else u).tolist()

        def zeros(row, n, at):
            return values[row][at:at + n]
    firsts = [zeros(row, n, 0) for row, n in enumerate(degrees)]
    if not _paired(config.claim_id):
        return firsts, [None] * len(firsts)
    return firsts, [zeros(row, n, per_zero * n) for row, n in enumerate(degrees)]


def _resolve_eps(policy: tuple[str, float], roots: RootMultiset, claim: ClaimId) -> float:
    kind, value = policy
    if kind == "fixed":
        return value
    if _paired(claim):  # eps and delta bound each zero set's whole measure
        return value * measure(roots)
    return value * _rest_measure(roots.roots, roots.min_modulus_index())


def _empty_counts() -> dict:
    counts = {c.value: 0 for c in Classification}
    counts[SOLVER_FAILURE] = 0
    return counts


def _lowest(records, cap: int) -> list:
    """The cap records of lowest instance hash, ties in their given order.

    heapq.nsmallest is sorted(...)[:cap], holding only cap records at a time.
    """
    return heapq.nsmallest(cap, records, key=lambda r: r.instance_hash)


def _capped(config, counts, histograms, records, overflow) -> SearchReport:
    # Keep the cap lowest instance hashes and count the rest as overflow.  Sweeps
    # and merges both end here, so shard-then-merge equals single-shot.
    kept = _lowest(records, config.counterexample_cap)
    return SearchReport(
        config=config,
        counts=counts,
        counterexamples=kept,
        overflow=overflow + len(records) - len(kept),
        margin_histograms=histograms,
    )


def run_search(config: SearchConfig, start: int = 0, count: int | None = None) -> SearchReport:
    """Run one sweep, or one shard of it.

    start/count select a contiguous range of sample indices; the full
    sweep is the merge of any partition into shards, in any order.
    """
    if not 0 <= start <= config.samples:
        raise ValueError("shard start out of range")
    end = config.samples if count is None else start + count
    if not start <= end <= config.samples:
        raise ValueError("shard count must be nonnegative and end within the configured samples")

    counts = _empty_counts()
    histograms: dict[int, list[int]] = {}
    # Counterexamples beyond twice the cap are cut back to the cap as they
    # come, so a sweep's memory is bounded by its cap, not by its samples.
    found: list[CounterexampleRecord] = []
    cap, dropped = config.counterexample_cap, 0
    policy = _parse_policy(config.epsilon_policy)
    takes_eps = "eps" in CLAIMS[config.claim_id].takes
    rows = max(1, min(_KEY_BLOCK, _BLOCK_WORDS // _layout(config)[2]))
    # Samples are drawn a block at a time, and each is validated as it is taken.
    samples = (
        (RootMultiset(first), second and RootMultiset(second))
        for block in range(start, end, rows)
        for first, second in zip(*generate_roots(config, block, min(block + rows, end)))
    )

    for index, (roots, second) in enumerate(samples, start):
        eps = _resolve_eps(policy, roots, config.claim_id) if takes_eps else None
        delta = config.delta if second is None else _resolve_eps(policy, second, config.claim_id)
        try:
            verdict = run_claim(
                config.claim_id,
                roots,
                eps=eps,
                delta=delta,
                second_roots=second,
                index_band=config.index_band,
            )
        except (ConvergenceError, OverflowError):
            counts[SOLVER_FAILURE] += 1
            continue
        counts[verdict.classification.value] += 1
        bucket = bisect.bisect_right(MARGIN_BIN_EDGES, verdict.conclusion.margin)
        histograms.setdefault(roots.n, [0] * (len(MARGIN_BIN_EDGES) + 1))[bucket] += 1
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
            if len(found) > 2 * cap:
                dropped += len(found) - cap
                found = _lowest(found, cap)

    return _capped(config, counts, histograms, found, dropped)


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
    for r in reports:
        for key, value in r.counts.items():
            counts[key] = counts.get(key, 0) + value
        for degree, buckets in r.margin_histograms.items():
            acc = histograms.setdefault(degree, [0] * len(buckets))
            for i, b in enumerate(buckets):
                acc[i] += b
        pooled.extend(r.counterexamples)
        overflow_seen += r.overflow
    return _capped(config, counts, histograms, pooled, overflow_seen)


def report_to_jsonable(report: SearchReport) -> dict:
    """Canonical form of a report."""
    payload = to_jsonable(report)
    payload.update(
        rng_algorithm=RNG_ALGORITHM,
        config_hash=config_hash(report.config),
        margin_bin_edges=list(MARGIN_BIN_EDGES),
    )
    return payload


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
    return RootMultiset(RootMultiset(complex_roots).moduli())


@dataclass(frozen=True)
class PullbackRecord:
    """Diagnostic comparison of a complex instance with its modulus projection.

    Distances are measured from the smallest-modulus root; nothing here
    is asserted, only measured.
    """

    true_critical_points: tuple[complex, ...]
    projected_roots: tuple[complex, ...]
    projected_critical_points: tuple[complex, ...]
    min_distance_true: float  # from the least root to its nearest true critical point
    projected_distances: tuple[float, ...]  # from |least root| to projected criticals


def complex_pullback_check(complex_roots: RootsLike, crit: CriticalSet) -> PullbackRecord:
    """Project to moduli, solve the projection, report zero-to-critical distances.

    crit is the critical set of the zeros themselves, as for
    sendov_distances: a caller that reports it has solved it already.
    """
    rs = RootMultiset(complex_roots)
    if rs.n < 2:
        raise ValueError("needs at least two roots")
    if len(crit.points) != rs.n - 1:
        raise ValueError(f"{rs.n} zeros have {rs.n - 1} critical points, not {len(crit.points)}")
    projected = modulus_projection(rs)
    projected_crit = critical_points(from_roots(projected))
    least = rs.roots[rs.min_modulus_index()]
    return PullbackRecord(
        true_critical_points=crit.points,
        projected_roots=projected.roots,
        projected_critical_points=projected_crit.points,
        min_distance_true=min(abs(least - b) for b in crit.points),
        projected_distances=tuple(abs(abs(least) - c.real) for c in projected_crit.points),
    )
