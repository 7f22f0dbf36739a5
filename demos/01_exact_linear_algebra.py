"""Exact linear algebra tour: GF(2) elimination and Smith normal form.

Everything downstream (homology, forms, transfers) reduces to these two
engines, so this demo shows them off directly.
"""

from conjtop import Gf2Matrix, IntMatrix, gf2_kernel_basis, gf2_rank, gf2_solve
from conjtop.gf2 import bits_of
from conjtop.intmat import det, smith_normal_form

print("== GF(2): bit-packed elimination ==")
M = Gf2Matrix.from_rows(
    [
        [1, 0, 1, 1, 0],
        [0, 1, 1, 0, 1],
        [1, 1, 0, 1, 1],
        [0, 0, 0, 1, 1],
    ]
)
print(f"matrix: {M}")
print(f"rank over GF(2): {gf2_rank(M)}")
print(f"kernel dimension: {len(gf2_kernel_basis(M))} (rank-nullity: {M.ncols})")

b = M.mul_vec(0b10110)
x, kernel = gf2_solve(M, b)
print(f"solve Mx = b: x = {bits_of(x, 5)}, kernel basis size {len(kernel)}")
assert M.mul_vec(x) == b

print()
print("== Integers: Smith normal form with transforms ==")
A = IntMatrix([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
D, U, V = smith_normal_form(A, with_u=True)
print(f"A = {A}")
print(f"D = diag{D.diagonal_entries()}")
print(f"U*A*V == D: {U * A * V == D}")
print(f"det U = {det(U)}, det V = {det(V)} (unimodular)")
print("divisibility chain d1 | d2 | d3:",
      all(D.diagonal_entries()[i + 1] % d == 0
          for i, d in enumerate(D.diagonal_entries()[:-1]) if d))
