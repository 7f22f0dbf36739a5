import random

import pytest

from conjtop.chains import ChainComplexData
from conjtop.complexes import SimplicialComplex, SimplicialMap, barycentric_subdivide
from conjtop.coverings import double_cover_unbranched, orientation_cover, stiefel_whitney_cocycle
from conjtop.duality import (
    _cup_matrix,
    cup_pairing,
    duality_audit,
    duality_data,
    induced_map,
    intersection_form_matrix,
)
from conjtop.errors import InputError
from conjtop.gf2 import Gf2Matrix
from conjtop.homology import betti_numbers, cohomology, homology
from conjtop.intmat import IntMatrix
from conjtop.models import (
    coned_grid_klein,
    rp2_6vertex,
    sphere_octa,
    sphere_tetra,
    torus7,
    torus_reflection,
    torus_with_hole,
)
from conftest import cochain_intersection_form, cup_eval, cup_eval_matrix, identity_map, m_double


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
    outside = SimplicialComplex.from_simplices(K.vertex_count + 1, [(0, K.vertex_count)])
    # a list of simplices, even a closed one, is no subcomplex; nor is a complex K lacks
    for rel in ([(0, 1)], [(0,), (1,), (0, 1)], outside):
        with pytest.raises(InputError, match="rel must be a subcomplex"):
            homology(K, 1, rel=rel)


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
            assert cup_pairing(K, 1, c, co) == cup_eval(K, 1, c, co) == 0
            assert cup_pairing(K, 1, co, c) == cup_eval(K, 1, co, c) == 0


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
    from conjtop.complexes import SimplicialMap
    from conjtop.models import hexagon_circle
    from conjtop.smith import quotient_by_involution

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


def _cup_cases(library):
    """(name, complex) for the cup-matrix oracle: every library complex (all
    are closed), the orientation covers of the bundled nonorientable
    surfaces (the unbranched cover by w1 of all three, and the cut-and-glue
    cover of the two with a marked w1-dual curve), one subdivision and
    M-doubles of genus 2 to 16."""
    cases = sorted(library.complexes.items())
    w1_dual = {"rp2_6vertex": "generator", "klein_bottle": "w1dual"}
    for name in ("klein_bottle", "nonorientable_genus3", "rp2_6vertex"):
        K = library.complexes[name]
        w1 = stiefel_whitney_cocycle(K)
        cases.append((name + " w1 cover", double_cover_unbranched(K, w1).total))
        if name in w1_dual:
            curve = [tuple(s) for s in library.cycles[name][w1_dual[name]]]
            cases.append((name + " orientation cover", orientation_cover(K, curve)[0].total))
    cases.append(("torus7 subdivided", barycentric_subdivide(torus7())[0]))
    cases += [(f"mdouble g{g}", m_double(g)[0]) for g in (2, 4, 8, 16)]
    return cases


def test_cup_matrix_matches_per_pair_oracle(library):
    """duality_data's one pass over the tops gives the matrix that per-pair
    ``cup_eval`` gives, bit for bit, in every degree of every case."""
    library_degrees = 0
    for name, K in _cup_cases(library):
        n = K.dimension
        for k in range(n + 1):
            dd = duality_data(K, k)
            expected = cup_eval_matrix(K, k, dd.coh.cycles, cohomology(K, n - k).cycles)
            assert list(dd.cup.rows) == expected, (name, k)
            library_degrees += name in library.complexes
    assert library_degrees == 45


def test_cup_matrix_on_unequal_cochain_lists():
    """The pass takes any cochains, cocycles or not, and lists of different
    lengths: row i is left[i], column j is right[j], never the transpose."""
    rng = random.Random(11)
    K = m_double(2)[0]
    for k in range(3):
        for n_left, n_right in ((3, 5), (5, 2), (1, 4)):
            left = [rng.getrandbits(K.n_simplices(k)) for _ in range(n_left)]
            right = [rng.getrandbits(K.n_simplices(2 - k)) for _ in range(n_right)]
            rows = _cup_matrix(K, k, left, right)
            assert rows == cup_eval_matrix(K, k, left, right), k


def test_cup_pairing_against_oracle_on_seeded_cocycles(library):
    """Seeded cocycles (a class plus a coboundary) in degrees 0, 1 and n."""
    rng = random.Random(5)
    names = ("torus7", "klein_bottle", "rp2_6vertex", "genus2_nondividing_surface", "quadric")
    for name in names:
        K = library.complexes[name]
        n = K.dimension
        for k in sorted({0, 1, n}):
            for _ in range(6):
                a, b = (_seeded_cocycle(K, d, rng) for d in (k, n - k))
                assert cup_pairing(K, k, a, b) == cup_eval(K, k, a, b), (name, k)


def _seeded_cocycle(K, k, rng):
    """A random sum of the H^k basis cocycles plus a random coboundary."""
    c = 0
    for z in cohomology(K, k).cycles:
        c ^= z if rng.getrandbits(1) else 0
    if k:
        c ^= K.boundary_matrix(k).transpose().mul_vec(rng.getrandbits(K.n_simplices(k - 1)))
    return c


def test_duality_refuses_open_and_impure_complexes():
    """An open surface and two impure ones raise the pseudomanifold check's
    message from every entry point; cup_pairing checks its arguments first."""
    T = torus7()
    v = T.vertex_count
    cases = [
        (torus_with_hole()[0], "face (0, 1) has 1 top cofaces, expected 2"),
        (SimplicialComplex.from_simplices(v + 1, [*T.simplices(2), (v,)]),
         "simplex (7,) is not a face of any top simplex"),
        (SimplicialComplex.from_simplices(v + 2, [*T.simplices(2), (v, v + 1)]),
         "face (7, 8) has 0 top cofaces, expected 2"),
    ]
    for K, message in cases:
        calls = [lambda: duality_data(K, 0), lambda: duality_data(K, 1), lambda: duality_audit(K),
                 lambda: cup_pairing(K, 0, 0, 0), lambda: cup_pairing(K, 1, 0, 0),
                 lambda: cup_pairing(K, 1, cohomology(K, 1).cycles[0], 0)]
        for call in calls:
            with pytest.raises(InputError) as err:
                call()
            assert str(err.value) == message
    H = torus_with_hole()[0]
    for args, message in (((3, 0, 0), "degree 3 out of range for a 2-complex"),
                          ((1, 1 << H.n_simplices(1), 0),
                           "cochain width does not match the simplex count"),
                          ((1, 1 << 3, 0), "first argument is not a cocycle"),
                          ((1, 0, 1 << 3), "second argument is not a cocycle")):
        with pytest.raises(InputError) as err:
            cup_pairing(H, *args)
        assert str(err.value) == message
