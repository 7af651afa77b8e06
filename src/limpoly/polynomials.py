"""Monic polynomials given by their zeros.

Everything downstream works on two small value types: a RootMultiset
(the ordered multiset of zeros a_1..a_n) and the MonicPolynomial it
generates.  Arithmetic is double-precision complex throughout; all
types are immutable and every operation is a pure function, so the
whole module is safe to call concurrently.
"""

from __future__ import annotations

import cmath
import functools
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

__all__ = [
    "MonicPolynomial",
    "RootDomainError",
    "RootMultiset",
    "derivative",
    "derivative_at_order",
    "from_roots",
    "permutation_sum_derivative",
]


class RootDomainError(ValueError):
    """A root violates the domain the requested operation needs."""

    def __init__(self, index: int, root: complex, requirement: str) -> None:
        super().__init__(f"root #{index} = {root!r} is not {requirement}")
        self.index = index
        self.root = root
        self.requirement = requirement


RootsLike = Union["RootMultiset", Iterable[complex]]


@dataclass(frozen=True)
class RootMultiset:
    """Ordered multiset of finite zeros; duplicates allowed, order preserved."""

    roots: tuple[complex, ...]

    def __post_init__(self) -> None:
        if isinstance(self.roots, RootMultiset):  # already coerced and checked
            object.__setattr__(self, "roots", self.roots.roots)
            return
        coerced = tuple(map(complex, self.roots))
        if not coerced:
            raise ValueError("a root multiset needs at least one root")
        if not all(map(cmath.isfinite, coerced)):
            i = next(i for i, r in enumerate(coerced) if not cmath.isfinite(r))
            raise RootDomainError(i, coerced[i], "finite")
        object.__setattr__(self, "roots", coerced)

    @property
    def n(self) -> int:
        return len(self.roots)

    def __len__(self) -> int:
        return len(self.roots)

    def __iter__(self):
        return iter(self.roots)

    def moduli(self) -> tuple[float, ...]:
        return tuple(map(abs, self.roots))

    def is_real(self) -> bool:
        return all(r.imag == 0.0 for r in self.roots)

    def is_positive_real(self) -> bool:
        return all(r.imag == 0.0 and r.real > 0.0 for r in self.roots)

    def reals(self) -> tuple[float, ...]:
        """Real values of the roots; rejects any root off the real axis."""
        for i, r in enumerate(self.roots):
            if r.imag != 0.0:
                raise RootDomainError(i, r, "real")
        return tuple(r.real for r in self.roots)

    def positive_reals(self) -> tuple[float, ...]:
        """The positive-real view; rejects any root off the open positive axis.

        Checked once per multiset: later calls return the first view.
        """
        return self._positive_reals

    @functools.cached_property
    def _positive_reals(self) -> tuple[float, ...]:
        for i, r in enumerate(self.roots):
            if r.imag != 0.0 or r.real <= 0.0:
                raise RootDomainError(i, r, "a positive real")
        return tuple(r.real for r in self.roots)

    def min_modulus_index(self) -> int:
        """Index of the smallest-modulus root (ties: smallest index)."""
        moduli = self.moduli()
        return moduli.index(min(moduli))


@dataclass(frozen=True)
class MonicPolynomial:
    """Coefficients c_0..c_n in ascending order with c_n exactly 1.

    Optionally remembers the zeros it was built from; the critical-point
    solver works on them and rejects a polynomial without them.
    """

    coeffs: tuple[complex, ...]
    roots: RootMultiset | None = None

    def __post_init__(self) -> None:
        coerced = tuple(map(complex, self.coeffs))
        if len(coerced) < 2:
            raise ValueError("degree must be at least 1")
        if coerced[-1] != 1:
            raise ValueError(f"leading coefficient must be exactly 1, got {coerced[-1]!r}")
        object.__setattr__(self, "coeffs", coerced)
        if self.roots is not None and not isinstance(self.roots, RootMultiset):
            object.__setattr__(self, "roots", RootMultiset(self.roots))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


def _horner(coeffs: Sequence[complex], z: complex) -> complex:
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * z + c
    return acc


def _derive(coeffs: Sequence[complex]) -> tuple[complex, ...]:
    return tuple(map(operator.mul, range(1, len(coeffs)), coeffs[1:]))


def _product_coeffs(roots: tuple[complex, ...]) -> tuple[complex, ...]:
    """Ascending coefficients of prod(x - a) over complex a, factors multiplied in order."""
    coeffs = [1 + 0j]
    for a in roots:
        nxt = [-a * coeffs[0]]
        for k in range(1, len(coeffs)):
            nxt.append(coeffs[k - 1] - a * coeffs[k])
        nxt.append(coeffs[-1])
        coeffs = nxt
    return tuple(coeffs)


def from_roots(roots: RootsLike) -> MonicPolynomial:
    """Expand prod(x - a_i), multiplying the factors in the given order."""
    rs = RootMultiset(roots)
    return MonicPolynomial(_product_coeffs(rs.roots), roots=rs)


def derivative(p: MonicPolynomial) -> tuple[complex, ...]:
    """Coefficient vector of P': one degree lower, leading coefficient n (not monic)."""
    return _derive(p.coeffs)


def derivative_at_order(p: MonicPolynomial, s: int, z: complex) -> complex:
    """Value of the s-th derivative at z, by s-fold differentiation then Horner.

    s = 0 evaluates P itself; any s beyond the degree returns exact 0.
    """
    if s < 0:
        raise ValueError("derivative order must be nonnegative")
    cs = p.coeffs
    if s >= len(cs):
        return 0j
    for _ in range(s):
        cs = _derive(cs)
    return _horner(cs, complex(z))


def permutation_sum_derivative(roots: RootsLike, z: complex) -> complex:
    """P'(z) assembled by the product rule: sum_i prod_{k != i} (z - a_k).

    At z equal to a root a_j every term with i != j carries the factor
    (z - a_j) = 0, so the sum collapses to prod_{i != j} (a_j - a_i).
    """
    rs = RootMultiset(roots)
    if rs.n < 2:
        raise ValueError("needs at least two roots")
    zz = complex(z)
    diffs = [zz - a for a in rs.roots]
    n = len(diffs)
    prefix = [1 + 0j] * (n + 1)
    for i, d in enumerate(diffs):
        prefix[i + 1] = prefix[i] * d
    suffix = [1 + 0j] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] * diffs[i]
    total = 0j
    for i in range(n):
        total += prefix[i] * suffix[i + 1]
    return total

