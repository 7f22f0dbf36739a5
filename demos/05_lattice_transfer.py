"""Integer middle-homology data: isometries, transfers, orientation classes."""

from conjtop import (
    characteristic_class,
    conj_form_mod2,
    invariant_sublattices,
    is_even,
    model_library,
    order_obstruction,
    orientation_class_check,
    transfer_audit,
)
from conjtop.gf2 import bits_of
from conjtop.lattices import alpha_chi_cross_check

lib = model_library()

print("== The quadric lattice ==")
L = lib.lattices["quadric_lattice"]
print(f"rank {L.rank}, Gram {L.gram}, conjugation swaps the two line classes")
plus, minus = invariant_sublattices(L)
print(f"invariant sublattice: span{plus}")
print(f"anti-invariant:       span{minus}")
B = conj_form_mod2(L)
print(f"mod-2 twisted form: {B.gram}, even={is_even(B)}, "
      f"characteristic class={bits_of(characteristic_class(B), 2)}")

report = transfer_audit(L)
print()
print("transfer audit along the quotient projection:")
for key, val in report.items():
    print(f"  {key}: {val}")

print()
print("which classes are twice a pulled-back class (the orientation classes)?")
for alpha in ((1, 1), (2, 2), (-2, -2), (2, 0)):
    print(f"  alpha={alpha}: {orientation_class_check(L, alpha)}")
verdict = order_obstruction(L, 2, (1, 1))
print(f"order 2, witnessed by the hyperplane class (1, 1): obstructed={verdict.obstructed} "
      f"({verdict.reason})")

print()
print("== The abelian-surface lattice ==")
T4 = lib.lattices["t4_lattice"]
B4 = conj_form_mod2(T4)
print(f"rank {T4.rank}; twisted form even={is_even(B4)}, characteristic class="
      f"{bits_of(characteristic_class(B4), 6)}")
cross = alpha_chi_cross_check(T4)
print(f"marked orientation class self-pairing {cross['self_pairing']} matches "
      f"-chi of the real part ({-cross['chi']})")
