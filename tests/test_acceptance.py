"""Acceptance criteria, one test per criterion.

Each test performs the full check at its stated exactness, measures wall
time against the stated budget, and prints one pass line.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
import time

import pytest

from conjtop.coverings import (
    branched_double_cover,
    curve_complex_semiorientation,
    dividing_test,
    double_cover_unbranched,
    orient_surface,
    orientation_cover,
    pushforward_semiorientation,
)
from conjtop.errors import ModelIntegrityError
from conjtop.gf2 import BilinearFormGF2, Gf2Matrix, characteristic_class, gf2_rank, is_even
from conjtop.homology import betti_numbers, cohomology, duality_data
from conjtop.intmat import IntMatrix, invariant_factors
from conjtop.involutions import (
    classify_type,
    fixed_subcomplex,
    smith_kernel_bound,
    verify_fixed_class_is_characteristic,
)
from conjtop.lattices import kharlamov_congruence, orientation_class_check, transfer_audit
from conjtop.models import coned_grid_klein, coned_grid_torus, model_library
from conjtop.qforms import (
    LoopData,
    QForm2,
    QForm4,
    arf,
    brown,
    evaluate_q2,
    evaluate_q4,
    pin_value_from_loops,
    spin_value_from_loops,
)
from conftest import (
    block_sum_z2,
    block_sum_z4,
    induced_edge_direction,
    involution_model,
    m_double,
    signed_boundary_2,
    top_adjacency,
)


def _report(name, elapsed, budget):
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.2f}s < {budget:.0f}s)")
    assert elapsed < budget, f"{name} exceeded its {budget}s budget ({elapsed:.2f}s)"


def test_acceptance_homology_oracle():
    t0 = time.perf_counter()
    lib = model_library()
    expected = {
        "sphere_tetra": (1, 0, 1),
        "torus7": (1, 2, 1),
        "rp2_6vertex": (1, 1, 1),
        "klein_bottle": (1, 2, 1),
        "quadric": (1, 0, 2, 0, 1),
    }
    for name, betti in expected.items():
        assert betti_numbers(lib.complexes[name]) == betti, name
    _report("homology-oracle", time.perf_counter() - t0, 1.0)


def test_acceptance_fixed_class_is_characteristic_suite():
    t0 = time.perf_counter()
    lib = model_library()
    names = (
        "torus_reflection",
        "torus_free",
        "torus_diagonal",
        "klein_shift",
        "quadric",
        "genus2_dividing",
        "genus2_nondividing",
    )
    for name in names:
        K, tau, basis = involution_model(lib, name)
        rep = verify_fixed_class_is_characteristic(K, tau, basis_cycles=basis)
        assert rep["holds"], name
        assert rep["fixed_class"] == rep["characteristic_class"], name
    rep = verify_fixed_class_is_characteristic(lib.chains["t4_chain"])
    assert rep["holds"]
    _report("characteristic-class-suite", time.perf_counter() - t0, 5.0)


def test_acceptance_even_iff_zero_characteristic():
    t0 = time.perf_counter()
    r = random.Random(19)
    checked = 0
    while checked < 10_000:
        n = r.randint(1, 10)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = r.randint(0, 1)
        gram = Gf2Matrix.from_rows(rows)
        if gf2_rank(gram) != n:
            continue
        B = BilinearFormGF2(gram)
        assert is_even(B) == (characteristic_class(B) == 0)
        checked += 1
    _report("even-iff-zero-characteristic", time.perf_counter() - t0, 5.0)


def test_acceptance_type_verdicts():
    t0 = time.perf_counter()
    lib = model_library()
    K, tau, basis = involution_model(lib, "quadric")
    assert classify_type(K, tau, h=0b11, basis_cycles=basis).kind == "I_rel"
    K, tau, _ = involution_model(lib, "torus_reflection")
    verdict = dividing_test(K, tau)
    assert verdict.dividing and len(verdict.halves) == 2
    K, tau, _ = involution_model(lib, "torus_diagonal")
    assert not dividing_test(K, tau).dividing
    _report("type-verdicts", time.perf_counter() - t0, 1.0)


def test_acceptance_type_and_characteristic_class_at_genus_32():
    """The mod-2 middle form at genus scale: the M-double's g + 1 ovals
    bound a disk, so the verdict is I_abs, and they realise the
    characteristic class of the 64 x 64 involution form."""
    t0 = time.perf_counter()
    K, tau = m_double(32)
    dd = duality_data(K, 1)
    assert dd.coh.betti == dd.hom.betti == 64
    assert classify_type(K, tau).kind == "I_abs"
    assert verify_fixed_class_is_characteristic(K, tau)["holds"]
    _report("type-and-characteristic-at-genus-32", time.perf_counter() - t0, 1.0)


def test_acceptance_curve_complex_orientations():
    t0 = time.perf_counter()
    lib = model_library()
    for name in ("torus_reflection", "genus2_dividing"):
        K, tau, _ = involution_model(lib, name)
        verdict = dividing_test(K, tau)
        assert verdict.dividing, name
        semi = curve_complex_semiorientation(K, tau)  # asserts opposition inside
        # independent check: whole-surface orientation induces opposite
        # directions on every fixed edge from the two sides
        signs = orient_surface(K)
        tops = K.simplices(2)
        data = fixed_subcomplex(K, tau)
        fixed_edges = set(data.subcomplex.simplices(1))
        half0, half1 = verdict.halves
        for face, a, b in top_adjacency(K):
            if face not in fixed_edges:
                continue
            da = induced_edge_direction(tops[a], signs[a], face)
            db = induced_edge_direction(tops[b], signs[b], face)
            assert da != db, (name, face)
            assert (a in half0) != (b in half0), (name, face)
    _report("curve-complex-orientations", time.perf_counter() - t0, 1.0)


def test_acceptance_covering_chi_law():
    t0 = time.perf_counter()
    lib = model_library()
    covers = 0

    sub = lib.complexes["sphere_octa_sub"]
    marks = lib.cycles["sphere_octa_sub"]

    def chain(mark):
        return [tuple(s) for s in marks[mark]]

    c2 = branched_double_cover(sub, chain("arc1"))
    assert c2.total.euler_characteristic() == 2
    assert betti_numbers(c2.total) == (1, 0, 1)
    covers += 1
    c4 = branched_double_cover(sub, chain("arcs_both"))
    assert c4.total.euler_characteristic() == 0
    assert betti_numbers(c4.total) == (1, 2, 1)
    covers += 1
    c0 = branched_double_cover(sub, chain("arc2"))
    assert c0.total.euler_characteristic() == 2
    covers += 1

    rp2 = lib.complexes["rp2_6vertex"]
    Y = [tuple(s) for s in lib.cycles["rp2_6vertex"]["generator"]]
    cov, semi = orientation_cover(rp2, Y)
    assert betti_numbers(cov.total) == (1, 0, 1)
    assert cov.total.euler_characteristic() == 2 * rp2.euler_characteristic()
    pushed = pushforward_semiorientation(cov.deck, semi)
    assert pushed == tuple(-s for s in semi.signs)
    covers += 1

    for name in ("torus7", "rp2_6vertex", "klein_bottle", "torus_grid",
                 "hexagon_circle", "square_circle"):
        K = lib.complexes[name]
        coh = cohomology(K, 1)
        reps = [0]
        for i in range(min(coh.betti, 2)):
            reps.append(coh.cycles[i])
        if coh.betti >= 2:
            reps.append(coh.cycles[0] ^ coh.cycles[1])
        for w in reps:
            cover = double_cover_unbranched(K, w)
            assert (
                cover.total.euler_characteristic() == 2 * K.euler_characteristic()
            ), name
            covers += 1
    assert covers >= 20, covers
    _report(f"covering-chi-law ({covers} covers)", time.perf_counter() - t0, 2.0)


def test_acceptance_kharlamov_arithmetic():
    t0 = time.perf_counter()
    for chi in (-16, -8, 0, 8, 16):
        trace = kharlamov_congruence(chi, "I_abs", True)
        assert trace.passes
        assert trace.self_intersection_quotient == 2 * (-chi)
        assert trace.self_intersection_quotient % 16 == 0
    for chi in (2, 4, 6):
        with pytest.raises(ModelIntegrityError):
            kharlamov_congruence(chi, "I_abs", True)
    _report("kharlamov-arithmetic", time.perf_counter() - t0, 1.0)


def test_acceptance_unit_pivot_invariant_factors():
    """Integer torsion of the coned torus and Klein bottle at n = 16 from
    their signed boundaries d2 (1536 x 1024): Z/2 only for the Klein bottle."""
    t0 = time.perf_counter()
    for build, torsion in ((coned_grid_torus, ()), (coned_grid_klein, (2,))):
        M = IntMatrix(signed_boundary_2(build(16)[0]))
        assert (M.nrows, M.ncols) == (1536, 1024)
        assert invariant_factors(M) == (1,) * 1023 + torsion
    _report("unit-pivot-invariant-factors", time.perf_counter() - t0, 2.0)


def test_acceptance_smith_kernel_bound():
    t0 = time.perf_counter()
    lib = model_library()
    K, tau, _ = involution_model(lib, "quadric")
    rep = smith_kernel_bound(K, tau)
    assert rep.kernel_dimension == 0
    assert rep.kernel_dimension <= 1
    assert rep.asserted
    _report("smith-kernel-bound", time.perf_counter() - t0, 5.0)


def test_acceptance_transfer_identities():
    t0 = time.perf_counter()
    lib = model_library()
    L = lib.lattices["quadric_lattice"]
    report = transfer_audit(L)
    assert report["composition_is_doubling"]
    assert report["pull_injective"]
    accepted = {
        alpha: orientation_class_check(L, None, alpha)
        for alpha in ((1, 1), (2, 2), (-2, -2), (2, 0))
    }
    assert accepted == {
        (1, 1): False,
        (2, 2): True,
        (-2, -2): True,
        (2, 0): False,
    }
    _report("transfer-identities", time.perf_counter() - t0, 1.0)


def test_acceptance_quadratic_form_suite():
    t0 = time.perf_counter()
    r = random.Random(2718)

    def random_even(n):
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = r.randint(0, 1)
        return Gf2Matrix.from_rows(rows)

    def random_symmetric(n):
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = r.randint(0, 1)
        return Gf2Matrix.from_rows(rows)

    # quadratic laws, exhaustive over all pairs, dimensions 1..8
    for n in range(1, 9):
        gram2 = random_even(n)
        q2 = QForm2(gram2, [r.randint(0, 1) for _ in range(n)])
        vals2 = [evaluate_q2(q2, x) for x in range(1 << n)]
        gram4 = random_symmetric(n)
        q4 = QForm4(gram4, [2 * r.randint(0, 1) + gram4[i, i] for i in range(n)])
        vals4 = [evaluate_q4(q4, x) for x in range(1 << n)]
        b2, b4 = BilinearFormGF2(q2.gram).value, BilinearFormGF2(q4.gram).value
        for x in range(1 << n):
            for y in range(1 << n):
                assert vals2[x ^ y] == (vals2[x] + vals2[y] + b2(x, y)) % 2
                assert vals4[x ^ y] == (vals4[x] + vals4[y] + 2 * b4(x, y)) % 4

    hyp = Gf2Matrix.from_rows([[0, 1], [1, 0]])
    assert arf(QForm2(hyp, [0, 0])) == 0
    assert arf(QForm2(hyp, [1, 1])) == 1
    one = Gf2Matrix.from_rows([[1]])
    assert brown(QForm4(one, [1])) == 1
    assert brown(QForm4(one, [3])) == 7

    # Brown additivity against the exact Gauss sums
    done = 0
    while done < 1000:
        n1, n2 = r.randint(1, 3), r.randint(1, 3)

        def nondeg(n):
            while True:
                g = random_symmetric(n)
                if gf2_rank(g) == n:
                    return g

        g1, g2 = nondeg(n1), nondeg(n2)
        q1 = QForm4(g1, [2 * r.randint(0, 1) + g1[i, i] for i in range(n1)])
        q2_ = QForm4(g2, [2 * r.randint(0, 1) + g2[i, i] for i in range(n2)])
        rows = []
        for i in range(n1):
            rows.append([g1[i, j] for j in range(n1)] + [0] * n2)
        for i in range(n2):
            rows.append([0] * n1 + [g2[i, j] for j in range(n2)])
        qq = QForm4(Gf2Matrix.from_rows(rows), list(q1.values) + list(q2_.values))
        assert brown(qq) == (brown(q1) + brown(q2_)) % 8
        done += 1
    _report("quadratic-form-suite", time.perf_counter() - t0, 10.0)


def test_acceptance_quadratic_invariants_at_dimension_256():
    """Brown and Arf of seeded block sums in random bases; the budget
    holds only for a polynomial splitting, never for a walk over 2^256
    classes."""
    t0 = time.perf_counter()
    r = random.Random(256)
    for _ in range(3):
        q4, b = block_sum_z4(256, r)
        assert brown(q4) == b
        q2, a = block_sum_z2(256, r)
        assert arf(q2) == a
    _report("quadratic-invariants-256", time.perf_counter() - t0, 2.0)


# hand-computed spin/pin tables for small loop counts
SPIN_TABLE = {
    (0, ()): 0,
    (1, (0,)): 1,
    (1, (1,)): 0,
    (2, (0, 0)): 0,
    (2, (0, 1)): 1,
    (2, (1, 0)): 1,
    (2, (1, 1)): 0,
}

PIN_TABLE_K01 = {
    # (k, lambdas) -> values for rc = 0..7
    (0, ()): (0, 1, 2, 3, 0, 1, 2, 3),
    (1, (0,)): (2, 3, 0, 1, 2, 3, 0, 1),
    (1, (1,)): (0, 1, 2, 3, 0, 1, 2, 3),
    (2, (0, 0)): (0, 1, 2, 3, 0, 1, 2, 3),
    (2, (0, 1)): (2, 3, 0, 1, 2, 3, 0, 1),
    (2, (1, 0)): (2, 3, 0, 1, 2, 3, 0, 1),
    (2, (1, 1)): (0, 1, 2, 3, 0, 1, 2, 3),
}


def test_acceptance_loop_formulas():
    t0 = time.perf_counter()
    from itertools import product

    for (k, lam), expected in SPIN_TABLE.items():
        assert spin_value_from_loops(LoopData(k, lam)) == expected
    for (k, lam), row in PIN_TABLE_K01.items():
        for rc in range(8):
            assert pin_value_from_loops(LoopData(k, lam, rc)) == row[rc]
    # full sweep k <= 3, every lambda pattern, rc <= 7, against independent
    # parity arithmetic
    for k in range(4):
        for lam in product((0, 1), repeat=k):
            spin_expected = (k % 2) ^ (sum(lam) % 2)
            assert spin_value_from_loops(LoopData(k, lam)) == spin_expected
            for rc in range(8):
                pin_expected = (2 * ((k + sum(lam)) % 2) + rc) % 4
                assert pin_value_from_loops(LoopData(k, lam, rc)) == pin_expected
    _report("loop-formulas", time.perf_counter() - t0, 1.0)
