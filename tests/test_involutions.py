import pytest

from conjtop.complexes import fundamental_class, identity_map
from conjtop.errors import InputError, ModelIntegrityError
from conjtop.gf2 import BilinearFormGF2, Gf2Matrix, characteristic_class, is_even
from conjtop.homology import homology
from conjtop.involutions import (
    _smith_verdict,
    check_m_variety_even_form,
    classify_type,
    fixed_subcomplex,
    harnack_audit,
    intersection_form,
    involution_form,
    parity_obstruction,
    smith_kernel_bound,
    verify_fixed_class_is_characteristic,
)
from conjtop.models import factor_swap, product_complex, sphere_tetra
from conftest import (
    cochain_pullback,
    cup_eval,
    involution_model,
    marked_basis,
    poincare_dual_cocycle,
)

HYPERBOLIC = Gf2Matrix.from_rows([[0, 1], [1, 0]])
IDENTITY2 = Gf2Matrix.identity(2)


# --- forms ----------------------------------------------------------------


def test_characteristic_class_hyperbolic_is_zero():
    assert characteristic_class(BilinearFormGF2(HYPERBOLIC)) == 0


def test_characteristic_class_identity():
    assert characteristic_class(BilinearFormGF2(IDENTITY2)) == 0b11


def test_characteristic_class_degenerate_rejected():
    degenerate = Gf2Matrix.zeros(2, 2)
    with pytest.raises(InputError, match="degenerate"):
        characteristic_class(BilinearFormGF2(degenerate))


def test_is_even_cases():
    assert is_even(BilinearFormGF2(HYPERBOLIC))
    assert not is_even(BilinearFormGF2(IDENTITY2))
    direct_sum = Gf2Matrix.from_rows(
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    )
    assert not is_even(BilinearFormGF2(direct_sum))


def test_even_iff_zero_characteristic_randomized():
    import random

    r = random.Random(11)
    from conjtop.gf2 import gf2_rank

    checked = 0
    while checked < 300:
        n = r.randint(1, 8)
        entries = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                entries[i][j] = entries[j][i] = r.randint(0, 1)
        gram = Gf2Matrix.from_rows(entries)
        if gf2_rank(gram) != n:
            continue
        checked += 1
        B = BilinearFormGF2(gram)
        assert is_even(B) == (characteristic_class(B) == 0)


# --- fixed sets and the characteristic-class statement ----------------------


def test_quadric_fixed_set_is_diagonal_sphere(library):
    K, tau, basis = involution_model(library, "quadric")
    data = fixed_subcomplex(K, tau, basis_cycles=basis)
    assert [c.dimension for c in data.components] == [2]
    assert data.mid_class == 0b11  # diagonal = sum of the two line classes


def test_quadric_involution_form(library):
    K, tau, basis = involution_model(library, "quadric")
    B = involution_form(K, tau, basis_cycles=basis)
    assert B.gram == IDENTITY2
    assert characteristic_class(B) == 0b11
    assert not is_even(B)


def test_quadric_identity_form_is_intersection_form(library):
    K, tau, basis = involution_model(library, "quadric")
    B = involution_form(K, identity_map(K), basis_cycles=basis)
    assert B.gram == HYPERBOLIC
    assert is_even(B)


def test_torus_reflection_form_and_fixed_class(library):
    K, tau, _ = involution_model(library, "torus_reflection")
    data = fixed_subcomplex(K, tau)
    assert sorted(c.dimension for c in data.components) == [1, 1]
    assert data.mid_class == 0
    B = involution_form(K, tau)
    assert is_even(B)
    assert characteristic_class(B) == 0


def test_torus_diagonal_fixed_class_nonzero(library):
    K, tau, _ = involution_model(library, "torus_diagonal")
    data = fixed_subcomplex(K, tau)
    assert [c.dimension for c in data.components] == [1]
    assert data.mid_class != 0
    assert characteristic_class(involution_form(K, tau)) == data.mid_class


def test_fixed_class_realizes_characteristic_on_models(library):
    for name in (
        "quadric",
        "torus_reflection",
        "torus_diagonal",
        "torus_free",
        "genus2_dividing",
        "genus2_nondividing",
    ):
        K, tau, basis = involution_model(library, name)
        report = verify_fixed_class_is_characteristic(K, tau, basis_cycles=basis)
        assert report["holds"], name


def test_fixed_class_realizes_characteristic_chain_path(library):
    report = verify_fixed_class_is_characteristic(library.chains["t4_chain"])
    assert report["holds"]
    assert report["characteristic_class"] == 0


def test_identity_involution_rejected_for_lemma(library):
    K, _, _ = involution_model(library, "quadric")
    with pytest.raises(InputError, match="dimension"):
        verify_fixed_class_is_characteristic(K, identity_map(K))


def test_irregular_involution_rejected(library):
    from conjtop.complexes import SimplicialComplex, SimplicialMap

    tri = SimplicialComplex.from_simplices(3, [(0, 1, 2)])
    swap = SimplicialMap(tri, tri, [1, 0, 2])
    with pytest.raises(InputError, match="not regular"):
        fixed_subcomplex(tri, swap)


def test_fixed_set_is_computed_once_per_map(library, monkeypatch):
    from conjtop import complexes, involutions
    from conjtop.complexes import SimplicialMap
    from conjtop.coverings import curve_complex_semiorientation, dividing_test

    K, shared, _ = involution_model(library, "torus_reflection")
    tau = SimplicialMap(K, K, shared.images)  # fresh map, nothing cached yet
    data = fixed_subcomplex(K, tau)
    assert fixed_subcomplex(K, tau).subcomplex is data.subcomplex

    def recomputed(*args):
        raise AssertionError("fixed set recomputed")

    monkeypatch.setattr(involutions, "_fixed_set", recomputed)
    monkeypatch.setattr(complexes, "regularity_offender", recomputed)
    assert dividing_test(K, tau).dividing
    assert harnack_audit(K, tau).is_m
    assert curve_complex_semiorientation(K, tau).carrier is data.subcomplex


def test_cached_fixed_set_follows_basis_on_every_call(library):
    from conjtop.complexes import SimplicialMap

    K, shared, marked = involution_model(library, "quadric")
    sheared = [marked[0], marked[0] ^ marked[1]]
    tau = SimplicialMap(K, K, shared.images)
    classes = []
    for basis in (marked, None, sheared, marked):
        fresh = SimplicialMap(K, K, shared.images)
        expected = fixed_subcomplex(K, fresh, basis_cycles=basis).mid_class
        classes.append(fixed_subcomplex(K, tau, basis_cycles=basis).mid_class)
        assert classes[-1] == expected
    assert classes == [0b11, 0b11, 0b10, 0b11]


def test_open_middle_component_names_ambient_vertices():
    from conjtop.complexes import SimplicialComplex, SimplicialMap

    # cone over the square 0-1-2-3 with apex 4, reflected across the arc 1-4-3
    disk = SimplicialComplex.from_simplices(5, [(0, 1, 4), (1, 2, 4), (2, 3, 4), (0, 3, 4)])
    reflection = SimplicialMap(disk, disk, [2, 1, 0, 3, 4])
    with pytest.raises(InputError, match=r"face \(1,\) has 1 top cofaces, expected 2"):
        fixed_subcomplex(disk, reflection)


# --- classification ----------------------------------------------------------


def test_classify_quadric_rel(library):
    K, tau, basis = involution_model(library, "quadric")
    verdict = classify_type(K, tau, h=0b11, basis_cycles=basis)
    assert verdict.kind == "I_rel"
    assert verdict.witness == 0b11


def test_classify_torus_reflection_abs(library):
    K, tau, _ = involution_model(library, "torus_reflection")
    assert classify_type(K, tau).kind == "I_abs"


def test_classify_torus_diagonal_II(library):
    K, tau, _ = involution_model(library, "torus_diagonal")
    assert classify_type(K, tau).kind == "II"
    # even with an h that differs from the witness
    data = fixed_subcomplex(K, tau)
    other = data.mid_class ^ 0b01 or 0b01
    assert classify_type(K, tau, h=other).kind in ("II", "I_rel")


def test_classify_invariant_under_subdivision(library):
    from conjtop.complexes import barycentric_subdivide

    for name in ("torus_reflection", "torus_diagonal"):
        K, tau, _ = involution_model(library, name)
        before = classify_type(K, tau).kind
        K2, tau2 = barycentric_subdivide(K, tau)
        assert classify_type(K2, tau2).kind == before


# --- Harnack audit ------------------------------------------------------------


def test_harnack_torus_reflection_is_m(library):
    K, tau, _ = involution_model(library, "torus_reflection")
    rep = harnack_audit(K, tau)
    assert (rep.fixed_total_betti, rep.space_total_betti, rep.is_m) == (4, 4, True)


def test_harnack_quadric_not_m(library):
    K, tau, _ = involution_model(library, "quadric")
    rep = harnack_audit(K, tau)
    assert (rep.fixed_total_betti, rep.space_total_betti, rep.is_m) == (2, 4, False)


def test_harnack_free_torus(library):
    K, tau, _ = involution_model(library, "torus_free")
    rep = harnack_audit(K, tau)
    assert (rep.fixed_total_betti, rep.is_m) == (0, False)


def test_harnack_chain_data(library):
    rep = harnack_audit(library.chains["t4_chain"])
    assert rep.is_m and rep.fixed_total_betti == 16


# --- Smith kernel bound --------------------------------------------------------


def test_smith_kernel_quadric(library):
    K, tau, _ = involution_model(library, "quadric")
    rep = smith_kernel_bound(K, tau)
    assert rep.kernel_dimension == 0
    assert rep.h1_trivial and rep.asserted
    assert rep.quotient_table == {4: 1, 3: 1, 2: 1}


def test_smith_verdict_semantics():
    assert _smith_verdict(0, True) is True
    assert _smith_verdict(2, False) is False  # reported, not asserted
    with pytest.raises(ModelIntegrityError):
        _smith_verdict(2, True)


def test_smith_requires_dimension_four(library):
    K, tau, _ = involution_model(library, "torus_reflection")
    with pytest.raises(InputError, match="4-dimensional"):
        smith_kernel_bound(K, tau)


# --- parity obstruction ----------------------------------------------------------


def test_parity_obstruction_odd_degree(library):
    K, tau, basis = involution_model(library, "quadric")
    B = involution_form(K, tau, basis_cycles=basis)
    verdict = parity_obstruction(3, B, 0b01)
    assert verdict.obstructed and verdict.witness == 0b01


def test_parity_obstruction_even_degree(library):
    K, tau, basis = involution_model(library, "quadric")
    B = involution_form(K, tau, basis_cycles=basis)
    assert not parity_obstruction(2, B, 0b11).obstructed


def test_parity_obstruction_bad_witness(library):
    K, tau, basis = involution_model(library, "quadric")
    B = involution_form(K, tau, basis_cycles=basis)
    with pytest.raises(InputError, match="witness"):
        parity_obstruction(3, B, 0b11)


# --- M-variety with even form bounds ------------------------------------------------


def test_m_variety_check_torus_reflection(library):
    K, tau, _ = involution_model(library, "torus_reflection")
    rep = check_m_variety_even_form(K, tau)
    assert rep["is_m"] and rep["even_intersection_form"]
    assert rep["fixed_class"] == 0
    assert rep["trivial_action_checked"]


def test_m_variety_check_quadric_vacuous(library):
    K, tau, basis = involution_model(library, "quadric")
    rep = check_m_variety_even_form(K, tau, basis_cycles=basis)
    assert rep["vacuous"] and not rep["is_m"]


def test_m_variety_check_t4(library):
    rep = check_m_variety_even_form(library.chains["t4_chain"])
    assert rep["is_m"] and rep["even_intersection_form"] and not rep["vacuous"]
    assert rep["trivial_action_checked"]


def test_intersection_form_helper(library):
    K, tau, basis = involution_model(library, "quadric")
    assert intersection_form(K, basis_cycles=basis).gram == HYPERBOLIC
    assert intersection_form(library.chains["t4_chain"]).gram.is_symmetric()


def test_characteristic_class_second_solver_oracle(library):
    """Re-solve the defining system with an independent elimination."""
    import random

    def naive_solve_unique(gram_lists, rhs):
        n = len(gram_lists)
        aug = [row[:] + [rhs[i]] for i, row in enumerate(gram_lists)]
        for c in range(n):
            piv = next((i for i in range(c, n) if aug[i][c]), None)
            assert piv is not None
            aug[c], aug[piv] = aug[piv], aug[c]
            for i in range(n):
                if i != c and aug[i][c]:
                    aug[i] = [(a + b) % 2 for a, b in zip(aug[i], aug[c])]
        return [aug[i][n] for i in range(n)]

    r = random.Random(77)
    from conjtop.gf2 import gf2_rank

    checked = 0
    while checked < 100:
        n = r.randint(1, 7)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = r.randint(0, 1)
        gram = Gf2Matrix.from_rows(rows)
        if gf2_rank(gram) != n:
            continue
        checked += 1
        B = BilinearFormGF2(gram)
        chi = characteristic_class(B)
        expected = naive_solve_unique(
            [list((gram.rows[i] >> j) & 1 for j in range(n)) for i in range(n)],
            [gram[i, i] for i in range(n)],
        )
        assert [(chi >> i) & 1 for i in range(n)] == expected


def _cup_pullback_gram(K, tau, cycles):
    """Gram of x . t(y) on the given cycles by the cohomology route: cup the
    Poincare dual of x with the pullback of the dual of y on [K]."""
    mid = K.dimension // 2
    hom, fc = homology(K, mid), fundamental_class(K)
    duals = [poincare_dual_cocycle(K, mid, hom.coordinates_of(z)) for z in cycles]
    pulled = [cochain_pullback(tau, mid, d) for d in duals]
    rows = (sum(cup_eval(K, mid, a, b, fc) << j for j, b in enumerate(pulled)) for a in duals)
    return Gf2Matrix(len(duals), len(duals), rows)


def test_involution_form_against_cup_pullback_route(library):
    """Independent second route: pull cocycles back and cup them, instead of
    pairing the intersection form with the homology-level induced map.
    Dropping the action (the pairing alone) fails on genus2_dividing."""
    cases = [
        (name, library.complexes[src], tau, marked_basis(library, src))
        for name, (src, _, tau) in sorted(library.maps.items())
        if library.complexes[src].dimension % 2 == 0
    ]
    S = sphere_tetra()
    P = product_complex(S, S)
    cases.append(("tetra2", P, factor_swap(P, S.vertex_count), None))
    assert len(cases) == 8 and sum(marked is not None for *_, marked in cases) == 1
    for name, K, tau, marked in cases:
        for basis in [None] + ([marked] if marked else []):
            cycles = basis or homology(K, K.dimension // 2).cycles
            B = involution_form(K, tau, basis_cycles=basis)
            assert B.gram == _cup_pullback_gram(K, tau, cycles), (name, basis)


def _forged_surface_data(fixed_betti, fixed_class, involution_swap=False):
    """Chain data shaped like a closed surface, with adjustable fixed-set
    numbers: the path for exercising the enforcement branches."""
    from conjtop.homology import ChainComplexData

    ranks = (1, 2, 1)
    boundaries = [Gf2Matrix.zeros(1, 2), Gf2Matrix.zeros(2, 1)]
    swap = Gf2Matrix.from_rows([[0, 1], [1, 0]])
    involution = [
        Gf2Matrix.identity(1),
        swap if involution_swap else Gf2Matrix.identity(2),
        Gf2Matrix.identity(1),
    ]
    pairing = Gf2Matrix.from_rows([[0, 1], [1, 0]])
    return ChainComplexData(
        ranks,
        boundaries,
        involution=involution,
        pairing=pairing,
        fixed_class=fixed_class,
        fixed_betti_total=fixed_betti,
    )


def test_harnack_violation_flagged():
    data = _forged_surface_data(fixed_betti=6, fixed_class=0)
    with pytest.raises(ModelIntegrityError, match="not realizable"):
        harnack_audit(data)


def test_m_variety_violation_nonzero_fixed_class():
    data = _forged_surface_data(fixed_betti=4, fixed_class=0b01)
    with pytest.raises(ModelIntegrityError, match="does not bound"):
        check_m_variety_even_form(data)


def test_m_variety_violation_nontrivial_action():
    data = _forged_surface_data(fixed_betti=4, fixed_class=0, involution_swap=True)
    with pytest.raises(ModelIntegrityError, match="nontrivially"):
        check_m_variety_even_form(data)
