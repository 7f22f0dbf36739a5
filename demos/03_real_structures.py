"""A real structure under the microscope: the quadric sphere.

The product of two spheres with the factor swap models the complex points
of the real quadric surface with its conjugation.  The demo walks through
every invariant the involution analysis extracts.
"""

from conjtop import (
    SimplicialMap,
    betti_numbers,
    characteristic_class,
    check_m_variety_even_form,
    classify_type,
    fixed_subcomplex,
    harnack_audit,
    involution_form,
    is_even,
    kharlamov_congruence,
    model_library,
    quotient_by_involution,
    regularize,
    smith_kernel_bound,
    verify_fixed_class_is_characteristic,
)
from conjtop.gf2 import bits_of
from conjtop.models import sphere_octa

lib = model_library()
K = lib.complexes["quadric"]
_, _, tau = lib.maps["quadric"]
marks = lib.cycles["quadric"]
basis = []
for i in (0, 1):
    cyc = 0
    for s in marks[f"basis{i}"]:
        cyc |= 1 << K.index_of(tuple(s))
    basis.append(cyc)

print(f"ambient: {K}")
print(f"betti: 1,0,2,0,1; the two middle classes are the two line families")
print()

data = fixed_subcomplex(K, tau, basis_cycles=basis)
print("fixed point set: one component of dimension",
      data.components[0].dimension, "(the diagonal sphere = real points)")
print("its middle class in the line basis:", bits_of(data.mid_class, 2))

B = involution_form(K, tau, basis_cycles=basis)
print()
print("mod-2 form of the involution (x, y) -> x . conj(y):", B.gram)
print("even:", is_even(B))
chi_cls = characteristic_class(B)
print("characteristic class:", bits_of(chi_cls, 2))
rep = verify_fixed_class_is_characteristic(K, tau, basis_cycles=basis)
print("fixed set realizes the characteristic class:", rep["holds"])

print()
verdict = classify_type(K, tau, h=0b11, basis_cycles=basis)
print("type against the hyperplane class h = (1,1):", verdict.kind)

audit = harnack_audit(K, tau)
print()
print(f"Betti bound: {audit.fixed_total_betti} <= {audit.space_total_betti}",
      "(M-surface)" if audit.is_m else "(not an M-surface)")

sm = smith_kernel_bound(K, tau)
print()
print("Smith sequence: kernel of H_2(fix) -> H_2(ambient) has dimension",
      sm.kernel_dimension, "<= 1")
print("relative ranks of (quotient, fixed set):", sm.quotient_table)

print()
print("congruence check for a bounding surface with chi = 8:")
trace = kharlamov_congruence(8, "I_abs", True)
print(f"  self-intersection downstairs: {trace.self_intersection_ambient}")
print(f"  doubled in the quotient:      {trace.self_intersection_quotient}")
print(f"  divisible by 16:              {trace.divisible_by_16}  -> passes")

print()
print("an M-object with an even intersection form has a bounding fixed set:")
src, _, reflection = lib.maps["torus_reflection"]
for name, rep in (("quadric", check_m_variety_even_form(K, tau, basis_cycles=basis)),
                  ("torus_reflection", check_m_variety_even_form(lib.complexes[src], reflection))):
    print(f"  {name}: M-object {rep['is_m']}, even form {rep['even_intersection_form']}, "
          f"vacuous {rep['vacuous']}")

print()
print("the antipodal map of the octahedron has no simplicial quotient until regularized:")
octa = sphere_octa()
K2, antipodal = regularize(octa, SimplicialMap(octa, octa, [5, 4, 3, 2, 1, 0]))
Q, _ = quotient_by_involution(K2, antipodal)
print(f"  regularized: {K2}")
print(f"  quotient: chi {Q.euler_characteristic()}, betti {betti_numbers(Q)} (RP^2)")
