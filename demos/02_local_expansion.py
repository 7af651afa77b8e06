"""Local expansion about an extremal zero.

A monic polynomial with positive real zeros can be rewritten as a sum
of powers of y = x - a_j about its least zero a_j (the constant term
vanishes because the center is itself a zero).  The plus form does the
same for prod(x + a_i) about the largest a_i.
"""

import math

from limpoly import (
    index_bound_check,
    local_expansion_max_plus,
    local_expansion_min,
)

roots = (1, 2, 3)
exp = local_expansion_min(roots)
print(f"zeros {roots}: center {exp.center}, gaps {exp.residuals}")
print(f"coefficients of y, y^2, y^3: {exp.coeffs}")

# reconstruct P at a probe point from the expansion
x = 4.7
y = x - exp.center
series = sum(c * y**k for k, c in enumerate(exp.coeffs, start=1))
print(f"P({x}) directly = {math.prod(x - a for a in roots):.12f}")
print(f"P({x}) from expansion = {series:.12f}")

print()
print("== plus form about the largest value ==")
plus = local_expansion_max_plus((1, 4))
print(f"values (1, 4): center {plus.center}, coefficients {plus.coeffs}")

print()
print("== the coefficient bound is a checkable claim, not a theorem ==")
for candidate in [(1, 2, 3), (0.1, 0.2, 0.3)]:
    report = index_bound_check(local_expansion_min(candidate), candidate)
    print(f"zeros {candidate}: bound {report.bound}")
    for entry in report.entries:
        verdict = "ok" if entry.holds else "VIOLATED"
        print(f"  order {entry.order}: |coefficient| = {entry.magnitude:.4f}  {verdict}")
print("the small-zero family beats the stated bound at order 2.")
