"""Canonical JSON for reports and logs.

One serialization convention everywhere: sorted keys, compact
separators, complex numbers as [re, im] pairs, floats in Python's
shortest round-trip form.  Parsing a canonical document and dumping it
again reproduces the same bytes, which is what the determinism checks
rely on.
"""

from __future__ import annotations

import dataclasses
import json
from enum import Enum

__all__ = ["canonical_dumps", "to_jsonable"]


# exact types only: a str Enum such as ClaimId, or a numpy float, takes its own branch below
_PLAIN = frozenset({float, int, bool, str, type(None)})

_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False)


def to_jsonable(obj):
    if type(obj) in _PLAIN:
        return obj
    if isinstance(obj, complex):  # numpy.complex128 too
        return [obj.real, obj.imag]
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, Enum):
        return obj.value
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: to_jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)
        }
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (int, float, str)):  # subclasses, such as numpy.float64
        return obj
    if hasattr(obj, "item"):  # numpy scalars
        return to_jsonable(obj.item())
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def canonical_dumps(obj) -> str:
    return _ENCODER.encode(to_jsonable(obj))
