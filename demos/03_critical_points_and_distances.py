"""Critical points and zero-to-critical-point distances.

The solver works on the zeros, so every polynomial here comes from
from_roots.  Repeated zeros are their own critical points.  For real
zero sets it brackets one derivative zero between each pair of
neighbouring distinct zeros; for complex zero sets it runs Aberth
sweeps on the secular form sum m_i / (z - v_i) of the distinct zeros,
and finishes a multiple critical point by Newton on a higher derivative.
"""

import math

from limpoly import (
    critical_points,
    from_roots,
    higher_derivative_zeros,
    sendov_distances,
)

p = from_roots([1, 2, 3])
crit = critical_points(p)
print("zeros (1, 2, 3):")
print(f"  critical points ({crit.method}): {[round(z.real, 6) for z in crit.points]}")
print(f"  exact values: 2 -/+ 1/sqrt(3) = {2 - 1/math.sqrt(3):.6f}, {2 + 1/math.sqrt(3):.6f}")

table = sendov_distances([1, 2, 3], crit)
print(f"  per-zero nearest critical distance: {[round(d, 6) for d in table.per_zero_min]}")
print(f"  every zero within unit distance: {table.all_within_unit}")
print(f"  worst distance from the least zero: {table.max_from_min_zero:.6f}")

print()
print("== a wildly skewed instance ==")
skew = from_roots([0.001, 0.001, 500])
crit = critical_points(skew)
print(f"zeros (0.001, 0.001, 500) -> criticals {[round(z.real, 6) for z in crit.points]}")
print("the double zero is its own critical point; the other sits near 1000.001/3")

print()
print("== higher derivatives ==")
for k in (1, 2):
    zeros = higher_derivative_zeros(p, k)
    print(f"zeros of derivative order {k}: {[round(z.real, 6) for z in zeros.points]}")
print("the last derivative always vanishes at the centroid of the zeros (here 2).")

print()
print("== complex zeros use the secular Aberth path ==")
quartic = from_roots([1, 1j, -1, -1j])  # x^4 - 1
crit = critical_points(quartic)
print(f"zeros at the fourth roots of unity -> criticals {[complex(round(z.real, 9), round(z.imag, 9)) for z in crit.points]}")
print("the derivative 4x^3 has a triple zero at the origin, unit distance from every zero.")
