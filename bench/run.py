"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload sweep-cheap --seed 1 --seconds 30 --trace 0

Run from the root of a limpoly checkout: limpoly is imported from its
src/ directory, never from an installed copy.  --trace 0 prints the
end-to-end metrics of an untraced run; --trace 1 prints the per-layer
metrics of a traced run.  The last line of stdout is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Times are reported at a fixed host pace (see pace.py); the raw times
are printed above the result line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Each run is one thread: numpy's BLAS pool would start a thread per core
# at import, though limpoly makes no BLAS call.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import pace  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

WORKLOAD_NAMES = ("sweep-cheap", "squeeze-tower", "analyze-complex")

# Every time the benchmark measures is CPU time of its own process: on a
# host shared with other work, wall time also counts the time the
# scheduler gives to others.  The measured code is single-threaded and
# does no I/O, so on an idle host its CPU time equals its wall time.
# The times it reports are then scaled to a fixed host pace (pace.py).
CLOCK = time.process_time

# Cold set-ups measured in fresh interpreters, besides the run's own one:
# half before the timed phase and half after it.
SETUP_PROBES = 6

# The tail percentile needs ten calls beyond it, so a run makes at least this many.
MIN_CALLS = 40

END_TO_END = (
    ("samples_per_s", "1/s"),
    ("call_p50_ms", "ms"),
    ("call_tail_ms", "ms"),
    ("digits_min", "digits"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Per-layer metrics: counts per sample come from the first traced round,
# self times per sample from every traced round.
CALL_COUNTS = (
    "search.generate_roots", "claims.run_claim", "critical.critical_points",
    "critical.higher_derivative_zeros", "polynomials.RootMultiset", "polynomials.from_roots",
    "polynomials.derivative", "expansion.local_expansion_min", "measure.measure",
    "verdicts.build_verdict", "serialize.canonical_dumps",
)
SELF_TIMES = (
    "search.run_search", "search.generate_roots", "search.complex_pullback_check",
    "claims.run_claim", "claims.check_squeeze", "critical.higher_derivative_zeros",
    "critical.interlace", "critical.simultaneous", "critical.sendov_distances",
    "polynomials.RootMultiset", "polynomials.from_roots", "polynomials.derivative",
    "polynomials.derivative_at_order", "polynomials.permutation_sum_derivative",
    "expansion.local_expansion_min", "expansion.index_bound_check", "measure.measure",
    "measure.check_product_proposition", "verdicts.build_verdict",
    "serialize.canonical_dumps", "cli.main", "cli.parse_roots",
)
PER_LAYER = (
    [(f"{n}.calls", "count") for n in CALL_COUNTS]
    + [(f"{n}.self_us", "us") for n in SELF_TIMES]
    + [("serialize.canonical_dumps.bytes", "bytes"), ("trace.overhead_pct", "%")]
)


def set_up(workload: str, seed: int):
    """Import limpoly from this checkout, draw the inputs and warm up.

    Returns the workload state and the set-up time, raw and scaled to the
    reference pace of two passes before the set-up and one after it.
    """
    refs = [pace.reference_pass(), pace.reference_pass()]
    began = CLOCK()
    sys.path.insert(0, str(ROOT / "src"))
    import limpoly

    if Path(limpoly.__file__).resolve().parent != ROOT / "src" / "limpoly":
        raise ImportError(f"limpoly was imported from {limpoly.__file__}, not from {ROOT / 'src'}")
    import workloads

    state = workloads.WORKLOADS[workload](seed)
    state.warm_up()
    raw = CLOCK() - began
    refs.append(pace.reference_pass())
    return state, raw, raw * pace.block_scale(refs, 0)


def probe_set_up(workload: str, seed: int) -> float:
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    raw, scaled = done.stdout.split()[-2:]
    return float(raw), float(scaled)


def _run_call(state, call):
    """One timed call; an exception counts every sample of the call as failed."""
    began = CLOCK()
    try:
        out = state.run(call)
    except Exception as exc:  # the loop must go on; the failure is counted and shown
        elapsed = CLOCK() - began
        print(f"FAILED: {call} raised {type(exc).__name__}: {exc}", file=sys.stderr)
        return None, elapsed, call.count
    elapsed = CLOCK() - began
    return out, elapsed, state.failed(call, out)


def timed_loop(state, seconds: float):
    """Closed loop of whole rounds until the time is up and MIN_CALLS calls are made.

    A reference pass runs before the first call and after every
    pace.BLOCK_S seconds of calls; durations are (seconds, block) pairs.
    """
    durations, rounds, problems = [], [], []
    refs = [pace.reference_pass()]
    since = 0.0
    samples = failed = 0
    began = time.perf_counter()
    r = 0
    while (r < state.checked_rounds or len(durations) < MIN_CALLS
           or time.perf_counter() - began < seconds):
        outputs = []
        for call in state.calls(r):
            out, elapsed, bad = _run_call(state, call)
            durations.append((elapsed, len(refs) - 1))
            since += elapsed
            if since >= pace.BLOCK_S:
                refs.append(pace.reference_pass())
                since = 0.0
            samples += call.count
            failed += bad
            if out is not None:
                problems += state.light_check(call, out)
                outputs.append((call, out))
        if r < state.checked_rounds:
            rounds.append(outputs)
        r += 1
    refs.append(pace.reference_pass())
    return durations, refs, samples, failed, rounds, problems


def traced_loop(state, seconds: float, tracer):
    """Each round twice on the same inputs, untraced and traced, in alternating order."""
    rounds, problems = [], []
    plain_s = traced_s = 0.0
    samples = failed = traced_samples = 0
    first_calls = first_samples = 0
    began = time.perf_counter()
    r = 0
    while r < state.checked_rounds or time.perf_counter() - began < seconds:
        calls = state.calls(r)
        digests = {}
        for traced in ((False, True) if r % 2 == 0 else (True, False)):
            outputs = []
            if traced:
                tracer.install()
            try:
                for call in calls:
                    if traced:
                        tracer.call += 1
                    out, elapsed, bad = _run_call(state, call)
                    samples += call.count
                    failed += bad
                    if traced:
                        traced_s += elapsed
                        traced_samples += call.count
                    else:
                        plain_s += elapsed
                    outputs.append((call, out))
            finally:
                if traced:
                    tracer.uninstall()
            digests[traced] = [None if out is None else state.digest(out) for _, out in outputs]
            if not traced and r < state.checked_rounds:
                rounds.append([(c, out) for c, out in outputs if out is not None])
        if digests[True] != digests[False]:
            problems.append(f"round {r}: traced and untraced outputs differ")
        if r == 0:
            first_calls, first_samples = tracer.call + 1, sum(c.count for c in calls)
        r += 1
    timing = {"plain_s": plain_s, "traced_s": traced_s, "traced_samples": traced_samples,
              "first_calls": first_calls, "first_samples": first_samples}
    return samples, failed, rounds, problems, timing


def layer_metrics(workload: str, tracer, timing: dict, problems: list) -> dict:
    import workloads

    every = tracer.totals()
    first = tracer.totals(calls_below=timing["first_calls"])
    for label, found in tracer.bindings.items():
        if found == 0:
            problems.append(f"no binding of {label} was found to wrap")
    for label in workloads.EXPECTED_LAYERS[workload]:
        if every.get(label, {}).get("calls", 0) == 0:
            problems.append(f"the {label} wrapper never fired")

    def total(table, label, key):
        # critical_points spans carry the name of the solver path that ran
        if label == "critical.critical_points":
            labels = ("critical.critical_points", "critical.interlace", "critical.simultaneous")
        else:
            labels = (label,)
        return sum(table.get(n, {}).get(key, 0) for n in labels)

    values = {}
    for label in CALL_COUNTS:
        values[f"{label}.calls"] = total(first, label, "calls") / timing["first_samples"]
    for label in SELF_TIMES:
        values[f"{label}.self_us"] = (
            total(every, label, "self_ns") / timing["traced_samples"] / 1000.0
        )
    values["serialize.canonical_dumps.bytes"] = (
        total(first, "serialize.canonical_dumps", "bytes") / timing["first_samples"]
    )
    values["trace.overhead_pct"] = 100.0 * (timing["traced_s"] / timing["plain_s"] - 1.0)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up once, print the seconds taken, and exit")
    args = parser.parse_args(argv)

    state, setup_raw, setup_scaled = set_up(args.workload, args.seed)
    if args.setup_probe:
        print(repr(setup_raw), repr(setup_scaled))
        return 0

    if args.trace:
        from tracer import Tracer

        tracer = Tracer(callers=[sys.modules["workloads"]])
        samples, failed, rounds, problems, timing = traced_loop(state, args.seconds, tracer)
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"{args.workload}-seed{args.seed}-spans.npz")
    else:
        setups = [(setup_raw, setup_scaled)] + [probe_set_up(args.workload, args.seed)
                                                for _ in range(SETUP_PROBES // 2)]
        measured, refs, samples, failed, rounds, problems = timed_loop(state, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setups += [probe_set_up(args.workload, args.seed)
                   for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]

    # mpmath and the oracles load only now, after the peak memory was read.
    import checks

    check_failures, found_digits, notes = state.check(checks, rounds)
    problems += check_failures + checks.digit_failures(args.workload, found_digits)
    digits_min = min(found_digits, default=0.0)

    if args.trace:
        metrics = layer_metrics(args.workload, tracer, timing, problems)
        units = dict(PER_LAYER)
        print(f"traced {timing['traced_samples']} samples; tracing overhead "
              f"{metrics['trace.overhead_pct']:.1f} %")
    else:
        def timings(durations, setup_times):
            tail = sorted(durations)[checks.tail_index(len(durations))]
            return {
                "samples_per_s": (samples - failed) / sum(durations),
                "call_p50_ms": 1000.0 * statistics.median(durations),
                "call_tail_ms": 1000.0 * tail,
                "setup_s": statistics.median(setup_times),
            }

        raw = timings([t for t, _ in measured], [t for t, _ in setups])
        metrics = timings(pace.scaled(measured, refs), [t for _, t in setups])
        metrics["digits_min"] = digits_min
        metrics["peak_rss_mb"] = peak_rss_mb
        metrics = {name: metrics[name] for name, _ in END_TO_END}
        units = dict(END_TO_END)
        rank = 100.0 * (checks.tail_index(len(measured)) + 1) / len(measured)
        print(f"{len(measured)} calls; call_tail_ms is p{rank:.1f}; "
              f"{len(found_digits)} values checked for digits")
        print(f"host pace: reference pass median {1000 * statistics.median(refs):.3f} ms "
              f"over {len(refs)} passes (reported times assume {pace.REFERENCE_MS} ms)")
        for name, value in raw.items():
            print(f"raw {name} = {value:.6g} {units[name]}")

    for note in notes:
        print(f"note: {note}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"operations: {samples} attempted, {failed} failed")
    print(json.dumps({
        "correct": not problems,
        "attempted": samples,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
