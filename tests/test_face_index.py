"""The face-index pass against the generic definitions it replaced.

Boundary columns, boundary rows, cofaces and the orbit boundaries are all
read from ``face_indices``.  Each is compared here with its former
definition, a ``combinations`` walk over the simplices, on every library
complex and on a few edge cases.  The reduction order and the trusted
matrix constructor are checked in the same file.
"""

from itertools import combinations

import pytest

from conjtop import models
from conjtop.chains import ChainComplexData
from conjtop.complexes import SimplicialComplex, SimplicialMap, barycentric_subdivide
from conjtop.coverings import branched_double_cover, double_cover_unbranched, orientation_cover
from conjtop.errors import InputError
from conjtop.gf2 import Gf2Matrix
from conjtop.homology import cohomology, homology
from conjtop.smith import orbit_chain_boundaries, quotient_by_involution, regularize

from conftest import (
    boundary_data, chain_bits, generic_orbit_boundaries, per_simplex_face_indices,
    per_simplex_index_images,
)


def generic_faces(K, k):
    if k <= 0:
        return tuple(() for _ in K.simplices(k))
    return tuple(tuple(K.index_of(f) for f in combinations(s, k)) for s in K.simplices(k))


def generic_columns(K, k):
    return tuple(
        sum(1 << K.index_of(f) for f in combinations(s, k)) if k else 0 for s in K.simplices(k)
    )


def generic_cofaces(K, k):
    out = [[] for _ in range(K.n_simplices(k))]
    for j, s in enumerate(K.simplices(k + 1)):
        for f in combinations(s, k + 1):
            out[K.index_of(f)].append(j)
    return tuple(tuple(c) for c in out)


def oracle_complexes(library):
    subdivided, _ = barycentric_subdivide(library.complexes["torus7"])
    three = models.product_complex(models.sphere_octa(), models.square_circle())
    four = models.product_complex(models.sphere_octa(), models.rp2_6vertex())
    points = SimplicialComplex.from_simplices(5, [(0,), (2,), (4,)])
    empty = SimplicialComplex.from_simplices(3, [])
    return list(library.complexes.values()) + [subdivided, three, four, points, empty]


def test_face_pass_matches_generic_definitions(library):
    complexes = oracle_complexes(library)
    assert {K.dimension for K in complexes} >= {-1, 0, 1, 2, 3, 4}
    for K in complexes:
        for k in range(-1, K.dimension + 3):
            assert K.face_indices(k) == generic_faces(K, k), (K, k)
            cols = generic_columns(K, k)
            assert K.boundary_columns(k) == cols, (K, k)
            M = K.boundary_matrix(k)
            ref = Gf2Matrix(K.n_simplices(k), K.n_simplices(k - 1), cols).transpose()
            assert (M.nrows, M.ncols, M.rows) == (ref.nrows, ref.ncols, ref.rows), (K, k)
            if k >= 0:
                assert K.cofaces(k) == generic_cofaces(K, k), (K, k)
        for k in range(K.dimension + 2):
            assert (K.boundary_matrix(k) * K.boundary_matrix(k + 1)).is_zero(), (K, k)


def test_face_columns_match_per_simplex_route(library):
    complexes = oracle_complexes(library) + [models.coned_grid_torus(10)[0]]
    for K in complexes:
        for k in range(-1, K.dimension + 3):
            assert K.face_indices(k) == per_simplex_face_indices(K, k), (K, k)


def index_of_images(f, k):
    """Target index of each k-simplex's image, -1 where it drops dimension."""
    out = []
    for s in f.source.simplices(k):
        img = f.map_simplex(s)
        out.append(f.target.index_of(img) if len(img) == len(s) else -1)
    return tuple(out)


def oracle_maps(library):
    """Every library map, the subdivided maps and quotient projections of
    the surfaces and circles, three cover projections, and two collapses
    that drop dimension."""
    maps = []
    for name in sorted(library.maps):
        src, _, tau = library.maps[name]
        K = library.complexes[src]
        maps.append(tau)
        if K.dimension <= 2:
            maps.append(barycentric_subdivide(K, tau)[1])
            maps.append(quotient_by_involution(*regularize(K, tau))[1])
    rp2, octa = library.complexes["rp2_6vertex"], library.complexes["sphere_octa_sub"]
    w1 = chain_bits(rp2, library.cycles["rp2_6vertex"]["w1_cocycle"])
    arcs = [tuple(s) for s in library.cycles["sphere_octa_sub"]["arcs_both"]]
    w1dual = [tuple(s) for s in library.cycles["klein_bottle"]["w1dual"]]
    maps.append(double_cover_unbranched(rp2, w1).projection)
    maps.append(branched_double_cover(octa, arcs).projection)
    maps.append(orientation_cover(library.complexes["klein_bottle"], w1dual)[0].projection)
    K = library.complexes["torus7"]
    triangle = SimplicialComplex.from_simplices(3, [(0, 1, 2)])
    maps.append(SimplicialMap(K, triangle, [v % 3 for v in range(K.vertex_count)]))
    maps.append(SimplicialMap(K, SimplicialComplex.from_simplices(1, [(0,)]), [0] * K.vertex_count))
    return maps


def test_index_images_match_index_of_map_simplex(library):
    dropped = 0
    for f in oracle_maps(library):
        for k in range(-1, f.source.dimension + 2):
            images = f.index_images(k)
            assert images == index_of_images(f, k), (f.source, k)
            assert images == per_simplex_index_images(f, k), (f.source, k)
            dropped += images.count(-1)
    assert dropped > 0


def test_face_pass_shapes_at_the_ends(library):
    K = library.complexes["torus7"]
    n0, n2 = K.n_simplices(0), K.n_simplices(2)
    bottom, top = K.boundary_matrix(0), K.boundary_matrix(3)
    assert (bottom.nrows, bottom.ncols, bottom.rows) == (0, n0, ())
    assert (top.nrows, top.ncols, top.rows) == (n2, 0, (0,) * n2)
    assert K.boundary_columns(0) == (0,) * n0 and K.face_indices(0) == ((),) * n0


def test_orbit_boundaries_match_generic_definition(library):
    for name, (src, _, tau) in sorted(library.maps.items()):
        K = library.complexes[src]
        cases = [(K, tau)] + ([barycentric_subdivide(K, tau)] if K.dimension <= 2 else [])
        for K, t in cases:
            assert orbit_chain_boundaries(K, t) == generic_orbit_boundaries(K, t), name


EXPORTED = ("rp2_6vertex", "torus7", "quadric")


def chain_data(library):
    """The library's chain data, and chain data carrying complexes' boundaries."""
    return [*library.chains.values(), *(boundary_data(library.complexes[n]) for n in EXPORTED)]


def test_chain_data_columns_are_complex_columns_and_transposed_rows(library):
    """Homology reads both carriers' boundary columns: chain data exported from
    a complex has the complex's columns, and the library's own chain data has
    the rows of its transposed boundaries, entry by entry."""
    for name in EXPORTED:
        K = library.complexes[name]
        D = boundary_data(K)
        for k in range(K.dimension + 2):
            assert D.boundary_columns(k) == K.boundary_columns(k), (name, k)
    assert library.chains
    for D in library.chains.values():
        for k in range(D.dimension + 2):
            M = D.boundary_matrix(k)
            assert D.boundary_columns(k) == M.transpose().rows, k
            assert D.boundary_columns(k) == tuple(map(M.column, range(M.ncols))), k


# --- reduction order -----------------------------------------------------------------


def fresh_spaces(library):
    """Pairs of identical carriers with empty caches."""
    for name, K in sorted(library.complexes.items()):
        yield (SimplicialComplex.from_simplices(K.vertex_count, K.all_simplices()),
               SimplicialComplex.from_simplices(K.vertex_count, K.all_simplices()))
    for D in chain_data(library):
        yield tuple(ChainComplexData(D.ranks, D.boundaries) for _ in range(2))


@pytest.mark.parametrize("compute", [homology, cohomology])
def test_degree_order_does_not_change_bases(library, compute):
    for up, down in fresh_spaces(library):
        n = up.dimension
        ascending = [compute(up, k) for k in range(n + 1)]
        descending = [compute(down, k) for k in range(n, -1, -1)][::-1]
        for a, d in zip(ascending, descending):
            assert (a.cycles, a._h_pivots, a.betti) == (d.cycles, d._h_pivots, d.betti)
            assert a._b_pivots == d._b_pivots


def test_lowest_degree_first_still_clears(library):
    K = library.complexes["torus7"]
    K = SimplicialComplex.from_simplices(K.vertex_count, K.all_simplices())
    homology(K, 0)
    cycles_1 = K._memo["reduction", False, 1, ()][1]
    boundary_pivots = K._memo["reduction", False, 2, ()][0]
    # every pivot of the boundary into dimension 1 was skipped, not reduced
    assert boundary_pivots and not set(boundary_pivots) & set(cycles_1)
    cohomology(K, 2)
    co_0, co_1 = (K._memo["reduction", True, k, ()] for k in (0, 1))
    assert not set(co_0[0]) & set(co_1[1])


# --- trusted matrices ----------------------------------------------------------------


def test_public_matrix_constructor_still_checks():
    with pytest.raises(InputError):
        Gf2Matrix(2, 3, (0b001,))
    with pytest.raises(InputError):
        Gf2Matrix(1, 3, (0b1000,))


def test_trusted_products_equal_checked_ones(library):
    K = library.complexes["rp2_6vertex"]
    d1, d2 = K.boundary_matrix(1), K.boundary_matrix(2)
    for M in (d1.transpose(), d1 * d2, d2 + d2, d1):
        assert M == Gf2Matrix(M.nrows, M.ncols, M.rows)
        assert type(M.rows) is tuple
