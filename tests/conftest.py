"""Test-wide set-up: each Hypothesis property test checks one fixed set of examples.

The profile below derandomizes any property test that carries no @seed,
and keeps no example database, so no run replays an older run's draws.
A @seed takes precedence over derandomize, and fixes the test's random
draws by itself.

Hypothesis also mixes into its draws the literals of every local module
loaded when a test runs, so a seeded test would check other examples when
run alone than in the full suite.  Every local module that any test loads
is loaded here first: the whole limpoly package, and the bench modules
that test_bench_layers.py imports as bench_workloads and bench_tracer.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

from hypothesis import settings

import limpoly.cli  # noqa: F401  (imports every limpoly module)

settings.register_profile("fixed-examples", derandomize=True)
settings.load_profile("fixed-examples")

BENCH = Path(__file__).resolve().parent.parent / "bench"

for _name in ("workloads", "tracer"):
    _spec = importlib.util.spec_from_file_location(f"bench_{_name}", BENCH / f"{_name}.py")
    _module = importlib.util.module_from_spec(_spec)
    sys.modules[_spec.name] = _module  # dataclasses look their module up here
    _spec.loader.exec_module(_module)
