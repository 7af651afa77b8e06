"""Host pace: a fixed pure-Python reference pass, timed between calls.

The benchmark runs on virtual cores of a shared host whose speed drifts
by 20-40 % within minutes, in CPU time as well as wall time, and the
drift slows every pure-Python loop alike.  So a fixed reference pass is
timed between blocks of calls, and each call's time is scaled to the
pace at which one reference pass takes REFERENCE_MS:

    reported = measured * REFERENCE_MS / (reference pass time near the call)

The reference code belongs to the benchmark and imports nothing from
limpoly, so a change to the program cannot move it, and a program that
does the same work faster reads faster at any host speed.
"""

from __future__ import annotations

import math
import statistics
import time

# Nominal time of one reference pass; the reported times are at this pace.
# It is a fixed constant, so runs of two commits stay comparable; it is
# about the pass's median time on the reference machine of the README.
REFERENCE_MS = 7.5

# A reference pass follows every BLOCK_S seconds of calls: about 5 % of
# the run goes to the reference, and the pace is read within 0.2 s of a call.
BLOCK_S = 0.15

_DEGREE = 12
_PASSES = 150
_COEFFS = tuple(1.0 / (k + 1.5) for k in range(_DEGREE + 1))
_POINTS = tuple(
    0.9 * complex(math.cos(0.3 * k), math.sin(0.7 * k)) for k in range(_DEGREE)
)


def _newton_step(z: complex) -> complex:
    value = slope = 0j
    for c in reversed(_COEFFS):
        slope = slope * z + value
        value = value * z + c
    return value / slope if slope else 0j


def reference_pass() -> float:
    """Run the fixed reference work once; return its CPU time in seconds.

    Complex Horner evaluation and pairwise reciprocal sums, the kind of
    interpreter work the program's solvers do, always on the same points.
    """
    began = time.process_time()
    total = 0j
    for _ in range(_PASSES):
        for z in _POINTS:
            inv_sum = 0j
            for w in _POINTS:
                if w != z:
                    inv_sum += 1.0 / (z - w)
            total += _newton_step(z) + inv_sum
    elapsed = time.process_time() - began
    if total == 0:  # keeps the work from being skipped; never true
        raise AssertionError("reference pass computed nothing")
    return elapsed


def block_scale(refs: list[float], block: int) -> float:
    """Scale factor for the calls of one block.

    Block b lies between reference passes b and b + 1; its pace is the
    median of the passes b - 1 to b + 2 (those that exist), which damps
    the jitter of a single pass.
    """
    near = refs[max(0, block - 1): block + 3]
    return REFERENCE_MS / (1000.0 * statistics.median(near))


def scaled(measured: list[tuple[float, int]], refs: list[float]) -> list[float]:
    """Times of (seconds, block) pairs, scaled to the reference pace."""
    return [seconds * block_scale(refs, block) for seconds, block in measured]
