"""Every built-in claim checker on instructive instances.

Each checker computes both sides of its inequality, reports signed
margins, and classifies the instance: HYPOTHESES_NOT_MET, CONFIRMED, or
COUNTEREXAMPLE (only when all hypotheses clear the noise boundary and
the conclusion fails beyond it).
"""

from limpoly import (
    check_basic_inequality,
    check_deriv_sum_bound,
    check_index_bound,
    check_perm_sum_bound,
    check_real_case,
    check_squeeze,
    stirling_bound_compare,
)


def show(verdict, note=""):
    print(f"{verdict.claim_id.value}: {verdict.classification.value}  {note}")
    for h in verdict.hypotheses:
        print(f"  hypothesis {h.name:24s} met={str(h.met):5s} margin={h.margin:+.4e}")
    c = verdict.conclusion
    print(f"  conclusion holds={str(c.holds):5s} margin={c.margin:+.4e}")


show(check_real_case([0.001, 0.001, 500]),
     "(limitedness holds, index pattern does not)")
distances = check_real_case([0.001, 0.001, 500]).details["critical_distances"]
print(f"  reported worst distance: {max(distances):.4f}")
print()

show(check_basic_inequality([1, 2, 3], eps=7))
details = check_basic_inequality([1, 2, 3], eps=7).details
print(f"  derivative sum {details['derivative_sum']} = weighted coefficient sum "
      f"{details['weighted_coeff_sum']} (proof identity)")
print()

show(check_squeeze([0.001, 0.001, 500], eps=1, delta=1),
     "(a genuine counterexample at delta = 1)")
print()

show(check_perm_sum_bound([0.1, 0.2, 0.3], eps=1))
print()

show(check_deriv_sum_bound([1, 2, 3], eps=10))
print()

show(check_index_bound([0.1, 0.2, 0.3]), "(the known coefficient-bound violation)")
print()

print("== the factorial sum versus its exponential form ==")
for n in (1, 2, 5, 20, 120):
    cmp = stirling_bound_compare(n)
    print(f"n={n:3d}: factorial sum {cmp.factorial_sum:.6e}  "
          f"exponential form {cmp.stirling_sum:.6e}  below={cmp.stirling_below_factorial}")
print("the exponential form underestimates every factorial, so replacing the")
print("factorial sum by it tightens the bound; both are reported, neither assumed.")
