import random

import pytest

from conjtop.complexes import SimplicialComplex, SimplicialMap, barycentric_subdivide, identity_map
from conjtop.errors import InputError
from conjtop.gf2 import Gf2Matrix
from conjtop.homology import (
    ChainComplexData,
    betti_numbers,
    cohomology,
    cup_eval,
    cup_pairing,
    duality_audit,
    duality_data,
    homology,
    induced_map,
    intersection_form_matrix,
)
from conjtop.intmat import IntMatrix
from conjtop.models import (
    coned_grid_klein,
    rp2_6vertex,
    sphere_octa,
    sphere_tetra,
    torus7,
    torus_reflection,
)
from conftest import cochain_intersection_form


def naive_betti(K, k):
    """Independent elimination oracle on plain lists."""

    def rank(M):
        rows = [[M[i, j] for j in range(M.ncols)] for i in range(M.nrows)]
        r = 0
        for c in range(M.ncols):
            piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
            if piv is None:
                continue
            rows[r], rows[piv] = rows[piv], rows[r]
            for i in range(len(rows)):
                if i != r and rows[i][c]:
                    rows[i] = [(a + b) % 2 for a, b in zip(rows[i], rows[r])]
            r += 1
        return r

    n_k = K.n_simplices(k)
    return n_k - rank(K.boundary_matrix(k)) - rank(K.boundary_matrix(k + 1))


def test_textbook_betti_numbers():
    assert betti_numbers(sphere_tetra()) == (1, 0, 1)
    assert betti_numbers(torus7()) == (1, 2, 1)
    assert betti_numbers(rp2_6vertex()) == (1, 1, 1)


def test_seven_vertex_torus_h1_against_brute_force():
    K = torus7()
    assert homology(K, 1).betti == naive_betti(K, 1) == 2


def test_betti_against_oracle_on_models():
    for K in (sphere_octa(), rp2_6vertex(), coned_grid_klein()[0]):
        for k in range(K.dimension + 1):
            assert homology(K, k).betti == naive_betti(K, k)


def test_homology_basis_cycles_are_cycles():
    K = torus7()
    h1 = homology(K, 1)
    for z in h1.cycles:
        assert K.boundary_matrix(1).mul_vec(z) == 0
    # coordinates of the basis cycles are the unit vectors
    for i, z in enumerate(h1.cycles):
        assert h1.coordinates_of(z) == 1 << i


def test_coordinates_reject_non_cycthan():
    K = torus7()
    h1 = homology(K, 1)
    edge_chain = 1  # a single edge is not a cycle
    with pytest.raises(InputError):
        h1.coordinates_of(edge_chain)


def test_relative_homology_disk_boundary():
    disk = SimplicialComplex.from_simplices(3, [(0, 1, 2)])
    boundary = disk.subcomplex([(0, 1), (1, 2), (0, 2)])
    assert homology(disk, 2, rel=boundary).betti == 1
    assert homology(disk, 1, rel=boundary).betti == 0
    assert homology(disk, 0, rel=boundary).betti == 0


def test_relative_homology_validates_subcomplex():
    K = torus7()
    with pytest.raises(InputError):
        homology(K, 1, rel=[(0, 1)])  # not closed under faces (missing vertices)


def test_induced_identity():
    K = torus7()
    assert induced_map(identity_map(K), 1) == Gf2Matrix.identity(2)


def test_induced_reflection_on_torus_h1_is_identity_mod2():
    K, tau, _ = torus_reflection()
    assert induced_map(tau, 1) == Gf2Matrix.identity(2)


def test_induced_composition_functorial():
    K, tau, _ = torus_reflection()
    m = induced_map(tau, 1)
    assert m * m == Gf2Matrix.identity(2)
    comp = tau.compose(tau)
    assert induced_map(comp, 1) == Gf2Matrix.identity(2)


def test_cup_pairing_torus():
    K = torus7()
    dd = duality_data(K, 1)
    # canonical H^1 basis pairs hyperbolically: zero diagonal, nondegenerate
    assert dd.cup == Gf2Matrix.from_rows([[0, 1], [1, 0]])
    a, b = dd.coh.cycles
    assert cup_pairing(K, 1, a, b) == 1
    assert cup_pairing(K, 1, a, a) == 0


def test_cup_pairing_product_spheres():
    from conjtop.models import quadric_complex

    P, _, _ = quadric_complex()
    dd = duality_data(P, 2)
    assert dd.cup == Gf2Matrix.from_rows([[0, 1], [1, 0]])


def test_cup_against_coboundary_is_zero():
    K = torus7()
    dd = duality_data(K, 1)
    r = random.Random(3)
    cb = K.boundary_matrix(1).transpose()
    for _ in range(20):
        u = r.getrandbits(K.n_simplices(0))
        co = cb.mul_vec(u)
        for c in dd.coh.cycles:
            assert cup_eval(K, 1, c, co) == 0
            assert cup_eval(K, 1, co, c) == 0


def test_cup_pairing_rejects_non_cocycle():
    K = torus7()
    with pytest.raises(InputError):
        cup_pairing(K, 1, 1 << 3, 0)  # a single edge cochain is not a cocycle here


def test_duality_audit_on_closed_models():
    for K in (sphere_tetra(), torus7(), rp2_6vertex(), sphere_octa()):
        assert duality_audit(K)


def test_intersection_forms():
    dd = duality_data(torus7(), 1)
    assert intersection_form_matrix(dd) == Gf2Matrix.from_rows([[0, 1], [1, 0]])
    dd_rp2 = duality_data(rp2_6vertex(), 1)
    assert intersection_form_matrix(dd_rp2) == Gf2Matrix.from_rows([[1]])
    KB, _, _ = coned_grid_klein()
    dd_kb = duality_data(KB, 1)
    imat = intersection_form_matrix(dd_kb)
    # Klein bottle: odd (non-orientable) nondegenerate rank-2 form
    assert imat.is_symmetric()
    assert imat.diagonal_vector() != 0
    from conjtop.gf2 import gf2_rank

    assert gf2_rank(imat) == 2


def test_chain_complex_data_validation():
    good = ChainComplexData((1, 2), [Gf2Matrix.zeros(1, 2)])
    assert betti_numbers(good) == (1, 2)
    with pytest.raises(InputError):
        ChainComplexData((1, 2, 1), [Gf2Matrix.zeros(1, 2)])  # missing boundary
    with pytest.raises(InputError):
        ChainComplexData(
            (1, 1, 1),
            [Gf2Matrix.from_rows([[1]]), Gf2Matrix.from_rows([[1]])],
        )  # boundary squared nonzero
    with pytest.raises(InputError):
        ChainComplexData(
            (2, 2),
            [Gf2Matrix.zeros(2, 2)],
            int_boundaries=[IntMatrix([[1, 0], [0, 1]])],
        )  # integer boundary does not reduce mod 2


def test_chain_complex_involution_validation():
    T_bad = Gf2Matrix.from_rows([[1, 1], [0, 1]])
    with pytest.raises(InputError, match="square"):
        ChainComplexData(
            (2,), [], involution=[T_bad * Gf2Matrix.from_rows([[1, 0], [1, 1]])]
        )


def test_cohomology_matches_homology_dimensions():
    for K in (torus7(), rp2_6vertex(), sphere_octa()):
        for k in range(K.dimension + 1):
            assert cohomology(K, k).betti == homology(K, k).betti


def test_induced_map_functorial_on_bundled_pairs():
    from conjtop.models import model_library

    lib = model_library()
    K = lib.complexes["torus_grid"]
    maps = [
        lib.maps["torus_reflection"][2],
        identity_map(K),
    ]
    _, _, free = lib.maps["torus_free"]
    # the free shift lives on its own copy of the grid; rebuild it on K
    from conjtop.complexes import SimplicialMap

    maps.append(SimplicialMap(K, K, free.images))
    for f in maps:
        for g in maps:
            comp = f.compose(g)
            for k in range(3):
                assert induced_map(comp, k) == induced_map(f, k) * induced_map(g, k)


def test_boundary_squared_zero_on_all_models():
    from conjtop.models import model_library

    lib = model_library()
    for name, K in lib.complexes.items():
        for k in range(2, K.dimension + 1):
            prod = K.boundary_matrix(k - 1) * K.boundary_matrix(k)
            assert prod.is_zero(), (name, k)


def test_antipodal_composed_is_identity_on_homology():
    from conjtop.complexes import SimplicialMap, quotient_by_involution
    from conjtop.models import hexagon_circle

    hexa = hexagon_circle()
    anti = SimplicialMap(hexa, hexa, [(v + 3) % 6 for v in range(6)])
    assert induced_map(anti.compose(anti), 1) == Gf2Matrix.identity(1)
    # the degree-2 projection doubles the generator, hence vanishes mod 2
    _, proj = quotient_by_involution(hexa, anti)
    assert induced_map(proj, 1) == Gf2Matrix.zeros(1, 1)


def test_rp2_marked_generator_is_the_generator():
    from conjtop.models import RP2_GENERATOR_CYCLE, rp2_6vertex

    K = rp2_6vertex()
    h1 = homology(K, 1)
    chain = 0
    for s in RP2_GENERATOR_CYCLE:
        chain |= 1 << K.index_of(tuple(s))
    assert h1.coordinates_of(chain) == 1  # nonzero: the generator


def test_intersection_form_matrix_against_cochain_route(library):
    """C^-1 E transposed times E equals the Gram of the Poincare duals cupped
    on [K], on every even-dimensional library complex and one subdivision."""
    cases = {name: K for name, K in library.complexes.items() if K.dimension % 2 == 0}
    cases["sd genus2"] = barycentric_subdivide(library.complexes["genus2_dividing_surface"])[0]
    for name, K in sorted(cases.items()):
        dd = duality_data(K, K.dimension // 2)
        assert intersection_form_matrix(dd) == cochain_intersection_form(K), name
