"""Mod-2 homology, cup products, and the duality audit on bundled models."""

from conjtop import betti_numbers, cup_pairing, duality_audit, model_library
from conjtop.duality import duality_data, intersection_form_matrix

lib = model_library()

print("== Betti tables of the bundled complexes ==")
for name in ("sphere_tetra", "torus7", "rp2_6vertex", "klein_bottle",
             "quadric", "genus2_dividing_surface", "nonorientable_genus3"):
    K = lib.complexes[name]
    print(f"{name:28s} chi={K.euler_characteristic():3d}  betti={betti_numbers(K)}")

print()
print("== Cup products on the 7-vertex torus ==")
t7 = lib.complexes["torus7"]
dd = duality_data(t7, 1)
a, b = dd.coh.cycles
print(f"<a u b, [T^2]> = {cup_pairing(t7, 1, a, b)}   (the two generators link)")
print(f"<a u a, [T^2]> = {cup_pairing(t7, 1, a, a)}   (orientable: even form)")
print(f"intersection form on H_1: {intersection_form_matrix(dd)}")

print()
print("== Poincare duality audit ==")
for name in ("sphere_tetra", "torus7", "rp2_6vertex", "klein_bottle", "quadric"):
    duality_audit(lib.complexes[name])
    print(f"{name:28s} cup pairing nondegenerate in every degree")
