"""The benchmark's traced layers still match the code.

Each workload in bench/ names the wrapped functions its traced run must
fire (workloads.EXPECTED_LAYERS); a library change that stops one of
them from being called, or removes a binding the tracer wraps, makes
the traced benchmark report it missing.  This runs round 0 of every
workload under the tracer, with sweep shards cut to 20 samples, so such
a change shows up here first.  The bench modules are only imported;
conftest.py loads them from bench/ as bench_workloads and bench_tracer.
"""

from __future__ import annotations

import bench_tracer as tracer
import bench_workloads as workloads
import pytest


@pytest.mark.parametrize("name", sorted(workloads.EXPECTED_LAYERS))
def test_traced_round_fires_every_expected_layer(name):
    state = workloads.WORKLOADS[name](seed=1)
    if hasattr(state, "shard"):
        state.shard = min(state.shard, 20)
    traced = tracer.Tracer(callers=[workloads])
    traced.install()
    try:
        for call in state.calls(0):
            traced.call += 1
            assert state.failed(call, state.run(call)) == 0
    finally:
        traced.uninstall()
    assert all(traced.bindings.values()), traced.bindings
    fired = traced.totals()
    missing = [
        label for label in workloads.EXPECTED_LAYERS[name]
        if fired.get(label, {}).get("calls", 0) == 0
    ]
    assert not missing
