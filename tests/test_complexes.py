from itertools import combinations

import pytest

from conjtop import complexes
from conjtop.chains import ChainComplexData
from conjtop.complexes import (
    SimplicialComplex,
    SimplicialMap,
    barycentric_subdivide,
    check_involution,
    fundamental_class,
    pseudomanifold_check,
)
from conjtop.errors import InputError
from conjtop.gf2 import Gf2Matrix
from conjtop.homology import betti_numbers
from conjtop.models import (
    coned_grid_klein,
    double_along_boundary,
    hexagon_circle,
    product_complex,
    rp2_6vertex,
    sphere_octa,
    sphere_tetra,
    square_circle,
    torus7,
)
from conjtop.orientations import SemiOrientation
from conjtop.smith import orbit_chain_boundaries, quotient_by_involution, regularize
from conftest import identity_map


def test_from_simplices_is_the_one_way_in():
    # the open triangle is closed, not refused; the class itself takes no simplices
    assert SimplicialComplex.from_simplices(3, [(0, 1, 2)]).n_simplices(1) == 3
    with pytest.raises(TypeError):
        SimplicialComplex(3, [])


def test_validation_rejects_bad_vertex():
    with pytest.raises(InputError):
        SimplicialComplex.from_simplices(2, [(0, 5)])


TRIANGLE = SimplicialComplex.from_simplices(3, [(0, 1, 2)])
# constructor -> (what it builds with one entry x, what it built from x = 1 before)
ENTRY_BUILDS = {
    "simplex": (lambda x: SimplicialComplex.from_simplices(3, [(0, x, 2)]).all_simplices(),
                ((0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2))),
    "vertex image": (lambda x: SimplicialMap(TRIANGLE, TRIANGLE, [0, x, 2]).images, (0, 1, 2)),
    "chain rank": (lambda x: ChainComplexData([1, x], [Gf2Matrix.zeros(1, 1)]).ranks, (1, 1)),
    "vertex count": (lambda x: (SimplicialComplex.from_simplices(x, [(0,)]).vertex_count,), (1,)),
    "sign": (lambda x: SemiOrientation(sphere_tetra(), [x, -1, 1, -1]).signs, (1, -1, 1, -1)),
}


@pytest.mark.parametrize("constructor", sorted(ENTRY_BUILDS))
def test_checked_constructors_read_entries_by_operator_index(constructor):
    """A float or a string is refused, even with an integer value, and a bool
    reads as the int it is (the repr tells True from 1): 1.5 used to be
    truncated to 1, and "1" to be parsed."""
    build, built = ENTRY_BUILDS[constructor]
    for entry in (1.5, "1"):
        with pytest.raises(InputError):
            build(entry)
    for entry in (True, 1):
        assert repr(tuple(build(entry))) == repr(built)


def test_euler_characteristics():
    assert sphere_tetra().euler_characteristic() == 2
    assert torus7().euler_characteristic() == 0
    assert rp2_6vertex().euler_characteristic() == 1


def test_euler_agrees_with_betti():
    for K in (sphere_tetra(), torus7(), rp2_6vertex(), sphere_octa()):
        betti = betti_numbers(K)
        alt = sum((-1) ** k * b for k, b in enumerate(betti))
        assert K.euler_characteristic() == alt


def test_subdivision_triangle_boundary_is_hexagon():
    tri = SimplicialComplex.from_simplices(3, [(0, 1), (1, 2), (0, 2)])
    sub, _ = barycentric_subdivide(tri)
    assert sub.vertex_count == 6
    assert sub.n_simplices(1) == 6
    assert sub.euler_characteristic() == 0


def test_subdivision_preserves_betti():
    for K in (sphere_tetra(), torus7(), rp2_6vertex()):
        sub, _ = barycentric_subdivide(K)
        assert betti_numbers(sub) == betti_numbers(K)
        assert sub.euler_characteristic() == K.euler_characteristic()


def test_subdivided_involution_still_involution():
    sq = square_circle()
    refl = SimplicialMap(sq, sq, [0, 3, 2, 1])
    sub, refl_sub = barycentric_subdivide(sq, refl)
    assert refl_sub.is_involution()
    composed = refl_sub.compose(refl_sub)
    assert composed.images == tuple(range(sub.vertex_count))


def test_quotient_square_reflection_gives_arc():
    sq = square_circle()
    refl = SimplicialMap(sq, sq, [0, 3, 2, 1])
    Q, proj = quotient_by_involution(sq, refl)
    assert Q.n_simplices(1) == 2
    assert Q.euler_characteristic() == 1
    assert proj.source == sq and proj.target == Q


def test_quotient_free_antipodal_hexagon():
    hexa = hexagon_circle()
    anti = SimplicialMap(hexa, hexa, [(v + 3) % 6 for v in range(6)])
    Q, _ = quotient_by_involution(hexa, anti)
    assert Q.vertex_count == 3
    assert Q.n_simplices(1) == 3


def test_quotient_identity_is_isomorphic():
    K = torus7()
    Q, _ = quotient_by_involution(K, identity_map(K))
    assert betti_numbers(Q) == betti_numbers(K)
    assert Q.euler_characteristic() == K.euler_characteristic()


def test_quotient_rejects_irregular():
    tri = SimplicialComplex.from_simplices(3, [(0, 1, 2)])
    swap = SimplicialMap(tri, tri, [1, 0, 2])
    with pytest.raises(InputError, match="not regular"):
        quotient_by_involution(tri, swap)


def test_quotient_rejects_collision_and_regularize_repairs():
    octa = sphere_octa()
    anti = SimplicialMap(octa, octa, [5, 4, 3, 2, 1, 0])
    with pytest.raises(InputError) as refused:
        quotient_by_involution(octa, anti)
    assert str(refused.value) == ("quotient collision: simplices (0, 2) and (0, 3) share an "
                                  "orbit image; subdivide first")
    K2, t2 = regularize(octa, anti)
    Q, _ = quotient_by_involution(K2, t2)
    assert Q.euler_characteristic() == 1
    assert betti_numbers(Q) == (1, 1, 1)  # projective plane


def test_fundamental_class_sphere():
    K = sphere_tetra()
    assert fundamental_class(K) == (1 << 4) - 1


def test_fundamental_class_disk_rejected():
    disk = SimplicialComplex.from_simplices(3, [(0, 1, 2)])
    with pytest.raises(InputError, match="cofaces"):
        fundamental_class(disk)


def test_fundamental_class_product_sphere():
    P = product_complex(sphere_tetra(), sphere_tetra())
    assert P.n_simplices(4) == 96
    assert P.vertex_count == 16
    fc = fundamental_class(P)
    assert fc == (1 << 96) - 1
    assert P.boundary_matrix(4).mul_vec(fc) == 0


def test_pseudomanifold_check_reports_disconnection():
    two = SimplicialComplex.from_simplices(
        8, list(combinations(range(4), 3)) + [tuple(v + 4 for v in s) for s in combinations(range(4), 3)]
    )
    for _ in range(2):  # a failure is never remembered
        with pytest.raises(InputError, match="strongly connected"):
            pseudomanifold_check(two)


def test_pseudomanifold_check_runs_once_per_complex(monkeypatch):
    K = torus7()
    assert pseudomanifold_check(K) == 2

    def rescan(_):
        raise AssertionError("a complex that passed was scanned again")

    monkeypatch.setattr(complexes, "impure_simplex", rescan)
    assert pseudomanifold_check(K) == 2
    with pytest.raises(AssertionError):
        pseudomanifold_check(torus7())


def test_orbit_chain_matches_quotient_when_simplicial():
    sq = square_circle()
    refl = SimplicialMap(sq, sq, [0, 3, 2, 1])
    boundaries, fixed = orbit_chain_boundaries(sq, refl)
    # quotient is an arc: 3 orbit vertices, 2 orbit edges
    assert boundaries[0].nrows == 3 and boundaries[0].ncols == 2
    assert fixed[0] != 0  # the two fixed vertices appear


def test_components():
    K = SimplicialComplex.from_simplices(5, [(0, 1), (1, 2), (3, 4)])
    comps = K.components()
    assert sorted(len(c) for c in comps) == [2, 3]


@pytest.mark.parametrize("n", [4, 6, 8])
def test_coned_klein_half_turn_is_free(n):
    K, _, shift = coned_grid_klein(n)
    check_involution(K, shift)
    assert pseudomanifold_check(K) == 2
    assert all(shift(v) != v for v in range(K.vertex_count))
    assert betti_numbers(K) == (1, 2, 1)


def test_coned_klein_refuses_odd_side():
    with pytest.raises(InputError):
        coned_grid_klein(5)


def test_double_refuses_diagonal_between_boundary_vertices():
    square = SimplicialComplex.from_simplices(4, [(0, 1, 2), (0, 2, 3)])
    with pytest.raises(InputError):
        double_along_boundary(square, (0, 1, 2, 3))
