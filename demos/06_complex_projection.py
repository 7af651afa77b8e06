"""Complex-to-real modulus projection.

Replacing every zero by its modulus produces a positive-real-zero
polynomial with the same measure.  The pullback check compares the
critical points of the projected polynomial with the true critical
points of the complex one; it measures distances, it asserts nothing.
It takes the true critical set as computed (the one `limpoly analyze`
reports), so only the projected side is solved.
"""

from limpoly import (
    complex_pullback_check,
    critical_points,
    from_roots,
    measure,
    modulus_projection,
    sendov_distances,
)


def pullback(zeros, slack=0.0):
    return complex_pullback_check(zeros, critical_points(from_roots(zeros)), slack)


roots = (3 + 4j, 1j, -0.5)
projected = modulus_projection(roots)
print(f"zeros {roots}")
print(f"moduli {projected.roots}")
print(f"measure before {measure(roots)}  after {measure(projected)}  (preserved exactly)")

print()
print("== symmetric pair ==")
record = pullback([0.5, 0.5j])
print("zeros (0.5, 0.5i): the only critical point is the centroid",
      record.true_critical_points[0])
print(f"distance from the least-modulus zero: {record.min_distance_true:.6f}"
      f"  (within 1 + slack: {record.within_bound})")

print()
print("== fourth roots of unity: an exact boundary ==")
quartic = [1, 1j, -1, -1j]
crit = critical_points(from_roots(quartic))
record = complex_pullback_check(quartic, crit)
print("true critical points (triple zero of 4x^3):",
      [complex(round(z.real, 12), round(z.imag, 12)) for z in record.true_critical_points])
print("distance from every zero (sendov_distances, on the same critical set):",
      [round(d, 9) for d in sendov_distances(quartic, crit).per_zero_min])
print("projected side: every modulus is 1, so the projected polynomial is")
print(f"(x-1)^4 with critical points {[round(z.real, 6) for z in record.projected_critical_points]}"
      f" and distances {[round(d, 6) for d in record.projected_distances]}")
print("the true distance sits exactly at 1: a slack of any size settles the comparison,")
print(f"e.g. slack 0.01 -> within: {pullback([1, 1j, -1, -1j], slack=0.01).within_bound}")
