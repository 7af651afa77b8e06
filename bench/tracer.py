"""Spans around the calls into limpoly's public functions, from outside the package.

A Tracer replaces every binding of each traced function in every loaded
limpoly module (several modules import functions by name, so patching
the defining module alone would miss calls), and restores them all on
uninstall.  RootMultiset is traced through its class __init__, so
isinstance checks keep working.

Each call records one span: id, name, start and end (ns), parent span id,
the enclosing benchmark call, and the length of a returned string (for
canonical_dumps).  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter_ns

import numpy as np

# (module, public name) of every traced function.
TARGETS = (
    ("search", "run_search"),
    ("search", "generate_roots"),
    ("search", "complex_pullback_check"),
    ("claims", "run_claim"),
    ("claims", "check_squeeze"),
    ("critical", "critical_points"),
    ("critical", "higher_derivative_zeros"),
    ("critical", "sendov_distances"),
    ("polynomials", "RootMultiset"),
    ("polynomials", "from_roots"),
    ("polynomials", "derivative"),
    ("polynomials", "derivative_at_order"),
    ("polynomials", "permutation_sum_derivative"),
    ("expansion", "local_expansion_min"),
    ("expansion", "index_bound_check"),
    ("measure", "measure"),
    ("measure", "check_product_proposition"),
    ("verdicts", "build_verdict"),
    ("serialize", "canonical_dumps"),
    ("cli", "main"),
    ("cli", "parse_roots"),
)

# critical_points spans are named after the solver path their result reports.
_CRITICAL_BY_METHOD = {
    "interlace-bisection": "critical.interlace",
    "simultaneous-iteration": "critical.simultaneous",
}

FIELDS = ("id", "name", "start_ns", "end_ns", "parent", "call", "bytes")


class Tracer:
    def __init__(self, callers=()):
        """Wrap TARGETS in every loaded limpoly module and in the caller modules."""
        self.names: list[str] = []
        self.spans = array("q")
        self.call = -1  # id of the enclosing benchmark call, set by the caller
        self._next_id = 0
        self._stack: list[int] = []
        self._patches = []  # (owner, attribute, original, wrapper)
        self.bindings: dict[str, int] = {}
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "limpoly" or k.startswith("limpoly."))]
        modules += list(callers)
        for module_name, attr in TARGETS:
            home = sys.modules[f"limpoly.{module_name}"]
            original = getattr(home, attr)
            label = f"{module_name}.{attr}"
            if isinstance(original, type):
                init = original.__init__
                self._patches.append((original, "__init__", init, self._wrap(label, init)))
                self.bindings[label] = 1
                continue
            relabel = label == "critical.critical_points"
            wrapper = self._wrap(label, original, relabel=relabel,
                                 sized=label == "serialize.canonical_dumps")
            found = 0
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original, wrapper))
                        found += 1
            self.bindings[label] = found

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _wrap(self, label: str, fn, relabel: bool = False, sized: bool = False):
        default = self._name_id(label)
        by_method = {m: self._name_id(n) for m, n in _CRITICAL_BY_METHOD.items()}
        stack = self._stack
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._next_id
            self._next_id = span + 1
            parent = stack[-1] if stack else -1
            stack.append(span)
            result = None
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter_ns()
                stack.pop()
                name = default
                if relabel and result is not None:
                    name = by_method.get(result.method, default)
                size = len(result) if sized and isinstance(result, str) else 0
                spans.extend((span, name, start, end, parent, self.call, size))

        return wrapper

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def table(self) -> np.ndarray:
        return np.frombuffer(self.spans, dtype=np.int64).reshape(-1, len(FIELDS)).copy()

    def totals(self, calls_below: int | None = None) -> dict[str, dict[str, float]]:
        """Per span name: calls, self time (ns) and returned bytes.

        Self time is a span's duration minus the durations of its direct
        children.  calls_below restricts the sums to spans of benchmark
        calls with a smaller id.
        """
        t = self.table()
        ids, names, start, end, parent, call, size = t.T
        duration = end - start
        child = np.zeros(self._next_id, dtype=np.int64)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], duration[has_parent])
        own = duration - child[ids]
        keep = np.ones(len(t), dtype=bool) if calls_below is None else call < calls_below
        width = len(self.names)
        calls = np.bincount(names[keep], minlength=width)
        self_ns = np.bincount(names[keep], weights=own[keep], minlength=width)
        sizes = np.bincount(names[keep], weights=size[keep], minlength=width)
        return {
            n: {"calls": int(calls[i]), "self_ns": float(self_ns[i]), "bytes": float(sizes[i])}
            for i, n in enumerate(self.names)
        }

    def save(self, path) -> None:
        np.savez_compressed(path, spans=self.table(), names=np.array(self.names),
                            fields=np.array(FIELDS))
