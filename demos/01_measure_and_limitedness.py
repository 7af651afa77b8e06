"""Measure of a monic polynomial and eps-limitedness.

The measure is the plain product of the moduli of the zeros.  A
polynomial is eps-limited when its measure is strictly below eps.
"""

from limpoly import (
    check_product_proposition,
    conjugate_roots,
    is_epsilon_limited,
    measure,
    rescale_roots,
)

print("== the measure is a product of moduli ==")
for roots in [(1, 2), (1j, -1j), (0.001, 0.001, 500)]:
    print(f"measure{roots} = {measure(roots)}")

print()
print("== limitedness is a strict comparison ==")
print("(0.5, 0.5) against eps=1:", is_epsilon_limited([0.5, 0.5], 1))
print("(1, 2)     against eps=2:", is_epsilon_limited([1, 2], 2))
print("note the second case: measure 2 is not strictly below eps 2")

print()
print("== closure laws ==")
roots = (1 + 1j, 0.25, 3)
print("conjugating every zero keeps the measure:")
print("  before:", measure(roots), " after:", measure(conjugate_roots(roots)))

scales = (2, 2, 2)
rescaled = rescale_roots(roots, scales)
print("dividing zeros by scale factors divides the measure by their moduli:")
print("  before:", measure(roots), " after:", measure(rescaled), " (factor 8)")

print()
print("== product closure as a claim check ==")
verdict = check_product_proposition([0.5], [0.25, 0.9], eps=1, delta=0.5)
print("classification:", verdict.classification.value)
for h in verdict.hypotheses:
    print(f"  hypothesis {h.name}: met={h.met} margin={h.margin:+.6f}")
print(f"  conclusion margin: {verdict.conclusion.margin:+.6f}")
details = verdict.details
print(f"  M(PQ) = {details['product_measure']}, M(P) M(Q) = "
      f"{details['first_measure'] * details['second_measure']}")
