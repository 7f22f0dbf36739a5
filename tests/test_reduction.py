"""The sparse column reduction against the dense elimination it replaced.

``DenseBasis`` is the former implementation of canonical homology:
row-echelonize the boundary image, reduce a kernel basis against it and
echelonize the residues.  Every sparse basis must match it bit for bit,
in its cycles and in the coordinates it assigns.
"""

import importlib
import random
from itertools import combinations
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conjtop.chains import ChainComplexData
from conjtop.complexes import SimplicialComplex, barycentric_subdivide
from conjtop.errors import InputError
from conjtop.gf2 import Gf2Matrix, gf2_kernel_basis, reduce_columns
from conjtop.homology import _rel_masks, _reduction, betti_numbers, cohomology, homology
from conjtop.involutions import fixed_subcomplex, is_regular
from conjtop.models import factor_swap, model_library, product_complex, sphere_octa, sphere_tetra
from conjtop.smith import orbit_chain_boundaries
from conftest import boundary_data, rref


def reduce_against(v, basis_rows, pivots):
    for row, p in zip(basis_rows, pivots):
        if (v >> p) & 1:
            v ^= row
    return v


class DenseBasis:
    """Canonical Z/B basis by dense row elimination, with coordinates."""

    def __init__(self, n_chains, cycle_matrix, image_matrix):
        self.n_chains = n_chains
        cols = [image_matrix.column(j) for j in range(image_matrix.ncols)]
        self.b_rows, self.b_pivots = rref(cols, n_chains)
        reduced = []
        for z in gf2_kernel_basis(cycle_matrix):
            r = reduce_against(z, self.b_rows, self.b_pivots)
            if r:
                reduced.append(r)
        self.cycles, self.h_pivots = rref(reduced, n_chains)
        self.boundaries = cols

    def coordinates_of(self, chain):
        v = reduce_against(chain, self.b_rows, self.b_pivots)
        coords = 0
        for i, (row, p) in enumerate(zip(self.cycles, self.h_pivots)):
            if (v >> p) & 1:
                coords |= 1 << i
                v ^= row
        if v:
            raise InputError("not a cycle")
        return coords


def restricted_matrix(M, keep_rows, keep_cols):
    """Dense submatrix on the kept rows and columns, in their order."""
    return Gf2Matrix(
        len(keep_rows),
        len(keep_cols),
        (sum(M[i, j] << c for c, j in enumerate(keep_cols)) for i in keep_rows),
    )


def assert_matches(sparse, dense, rng, probes=6, cells=None, rel_mask=0):
    """The dense chains are over ``cells`` of the sparse basis's space,
    renumbered in order (over all cells when None); the sparse basis must
    ignore random bits on the cells of ``rel_mask``."""

    def ambient(v):
        return v if cells is None else sum(1 << c for i, c in enumerate(cells) if (v >> i) & 1)

    assert sparse.cycles == tuple(map(ambient, dense.cycles))
    n = dense.n_chains
    for _ in range(probes):
        chain = 0
        for z in dense.cycles + dense.boundaries:
            if rng.random() < 0.5:
                chain ^= z
        noise = rng.getrandbits(sparse.n_chains) & rel_mask if rel_mask else 0
        assert sparse.coordinates_of(ambient(chain) ^ noise) == dense.coordinates_of(chain)
        if n:
            stray = chain ^ (1 << rng.randrange(n))
            try:
                want = dense.coordinates_of(stray)
            except InputError:
                with pytest.raises(InputError):
                    sparse.coordinates_of(ambient(stray) ^ noise)
            else:
                assert sparse.coordinates_of(ambient(stray) ^ noise) == want


def check_all_degrees(space, seed=0):
    rng = random.Random(seed)
    for k in range(space.dimension + 1):
        d_out, d_in = space.boundary_matrix(k), space.boundary_matrix(k + 1)
        dense = DenseBasis(space.n_simplices(k), d_out, d_in)
        assert_matches(homology(space, k), dense, rng)
        codense = DenseBasis(space.n_simplices(k), d_in.transpose(), d_out.transpose())
        assert_matches(cohomology(space, k), codense, rng)


TRIANGLES = list(combinations(range(8), 3))
EDGES = list(combinations(range(8), 2))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.sampled_from(TRIANGLES), max_size=14),
    st.lists(st.sampled_from(EDGES), max_size=6),
    st.integers(0, 2**16),
)
def test_random_two_complexes_match_dense(triangles, edges, seed):
    K = SimplicialComplex.from_simplices(8, triangles + edges)
    check_all_degrees(K, seed)


def test_bundled_complexes_match_dense(library):
    for name, K in sorted(library.complexes.items()):
        check_all_degrees(K, seed=len(name))


def test_bundled_chain_data_match_dense(library):
    assert library.chains
    for D in library.chains.values():
        check_all_degrees(D)


def check_relative(space, rel, masks, rng):
    """homology(space, k, rel=rel) against dense elimination of the cells
    outside ``masks``, embedded by cell index; returns the bases for
    comparison across carriers."""
    bases = []
    for k in range(space.dimension + 1):
        km1, kk, kp1 = (
            [j for j in range(space.n_simplices(d)) if not (masks[d] >> j) & 1]
            for d in (k - 1, k, k + 1)
        )
        dense = DenseBasis(
            len(kk),
            restricted_matrix(space.boundary_matrix(k), km1, kk),
            restricted_matrix(space.boundary_matrix(k + 1), kk, kp1),
        )
        sparse = homology(space, k, rel=rel)
        assert sparse.n_chains == space.n_simplices(k)
        assert_matches(sparse, dense, rng, cells=kk, rel_mask=masks[k])
        bases.append(sparse)
    return bases


def test_relative_homology_of_fixed_sets_matches_dense(library):
    """Relative to the fixed set on the complex, on chain data built from its
    boundaries with the fixed cells as masks, and on the orbit complex
    relative to its fixed flags: one relative path for every carrier."""
    rng = random.Random(7)
    for name, (src, _, tau) in sorted(library.maps.items()):
        K = library.complexes[src]
        F = fixed_subcomplex(K, tau).subcomplex
        n = K.dimension
        masks = [sum(1 << K.index_of(s) for s in F.simplices(k)) for k in range(n + 1)]
        on_complex = check_relative(K, F, masks, rng)

        on_data = check_relative(boundary_data(K), masks, masks, rng)
        assert [b.cycles for b in on_data] == [b.cycles for b in on_complex], name

        boundaries, fixed_flags = orbit_chain_boundaries(K, tau)
        orbits = ChainComplexData([boundaries[0].nrows] + [b.ncols for b in boundaries],
                                  boundaries)
        check_relative(orbits, fixed_flags, fixed_flags, rng)


def test_relative_masks_are_validated():
    data = ChainComplexData((1, 2, 1), [Gf2Matrix.from_rows([[1, 1]]),
                                        Gf2Matrix.from_rows([[1], [1]])])
    assert homology(data, 1, rel=[1, 0b11, 0]).betti == 0
    assert homology(data, 2, rel=[1, 0b11, 0]).betti == 1
    for bad in ([1, 0b11], [1, 0b111, 0], [0, 0b01, 0], [1, 0, 1], [1, -1, 0], 5):
        with pytest.raises(InputError):
            homology(data, 1, rel=bad)


def test_relative_homology_remembers_each_reduction(library, monkeypatch):
    """Every degree of the quadric and of torus_diagonal relative to the fixed
    set, on a fresh complex: at most n + 2 column reductions (each degree
    used to reduce both of its masked boundaries, 2(n + 1) in all), none on a
    second pass, and the bases of a fresh complex asked top degree first."""
    calls, module = [], importlib.import_module("conjtop.homology")
    counted = module.reduce_columns

    def counting(*args):
        calls.append(len(args[0]))
        return counted(*args)

    for name in ("quadric", "torus_diagonal"):
        src, _, tau = library.maps[name]
        K = library.complexes[src]
        F = fixed_subcomplex(K, tau).subcomplex
        fresh, again = (SimplicialComplex.from_simplices(K.vertex_count, K.all_simplices())
                        for _ in range(2))
        n = K.dimension
        with monkeypatch.context() as patch:
            patch.setattr(module, "reduce_columns", counting)
            bases = [homology(fresh, k, rel=F) for k in range(n + 1)]
            assert 0 < len(calls) <= n + 2, name
            calls.clear()
            assert all(homology(fresh, k, rel=F) is b for k, b in enumerate(bases))
            assert not calls, name
        keys, v = set(fresh._memo), K.vertex_count
        with pytest.raises(InputError):  # a refusal stores nothing
            homology(fresh, 1, rel=SimplicialComplex.from_simplices(v + 1, [(v,)]))
        assert set(fresh._memo) == keys
        want = [homology(again, k, rel=F) for k in range(n, -1, -1)][::-1]
        assert [(b.cycles, b._h_pivots, b._b_pivots) for b in bases] \
            == [(b.cycles, b._h_pivots, b._b_pivots) for b in want], name


def relative_bettis_agree(space, rel):
    """The kernel counts of the relative coboundary reductions, which the Smith
    table reads, against the ranks of the bases."""
    degrees = range(space.dimension + 1)
    want = tuple(homology(space, k, rel=rel).betti for k in degrees)
    masks = _rel_masks(space, rel)
    assert tuple(len(_reduction(space, k, True, masks)[1]) for k in degrees) == want
    return want


def test_relative_betti_matches_bases_on_orbit_complexes_and_fixed_sets(library):
    """On the orbit complex of every regular library map and of the S^2 x S^2
    swaps relative to their fixed flags, and on every library map's complex
    relative to its fixed subcomplex."""
    swaps = []
    for S in (sphere_tetra(), sphere_octa()):
        P = product_complex(S, S)
        swaps.append((P, factor_swap(P, S.vertex_count)))
    maps = [(library.complexes[src], tau) for src, _, tau in library.maps.values()]
    assert len(maps) == 9 and all(is_regular(K, tau) for K, tau in maps)
    tables = []
    for K, tau in maps + swaps:
        boundaries, fixed_flags = orbit_chain_boundaries(K, tau)
        orbits = ChainComplexData._trusted([boundaries[0].nrows] + [b.ncols for b in boundaries],
                                           boundaries)
        tables.append(relative_bettis_agree(orbits, fixed_flags))
    for K, tau in maps:
        relative_bettis_agree(K, fixed_subcomplex(K, tau).subcomplex)
    # (CP^2, conic) for the quadric and both swaps: the Smith table's groups
    assert [t[2:] for t in tables if len(t) == 5] == [(1, 1, 1)] * 3


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_relative_betti_matches_bases_on_random_subcomplexes(library, data):
    """Relative to the closure of at most 12 random simplices of a library
    complex; below dimension 4, the bases on the complex and on its chain
    export also match the dense oracle."""
    name = data.draw(st.sampled_from(sorted(library.complexes)))
    K = library.complexes[name]
    simplices = list(K.all_simplices())
    picks = data.draw(st.lists(st.integers(0, len(simplices) - 1), max_size=12))
    L = K.subcomplex(simplices[i] for i in picks)
    relative_bettis_agree(K, L)
    if K.dimension < 4:
        rng = random.Random(len(picks))
        masks = [sum(1 << K.index_of(s) for s in L.simplices(k)) for k in range(K.dimension + 1)]
        on_complex = check_relative(K, L, masks, rng)
        on_data = check_relative(boundary_data(K), masks, masks, rng)
        assert [b.cycles for b in on_data] == [b.cycles for b in on_complex], name


def test_relative_to_nothing_is_absolute(library):
    """Relative to an empty subspace, every library carrier's basis is the
    absolute one: its cycles, its chain count and the coordinates it gives."""
    rng = random.Random(3)
    spaces = [(K, K.subcomplex(())) for K in library.complexes.values()]
    spaces += [(D, [0] * (D.dimension + 1)) for D in library.chains.values()]
    for X, empty in spaces:
        for k in range(X.dimension + 1):
            absolute = homology(X, k)
            oracle = SimpleNamespace(cycles=list(absolute.cycles), n_chains=absolute.n_chains,
                                     boundaries=list(X.boundary_columns(k + 1)),
                                     coordinates_of=absolute.coordinates_of)
            relative = homology(X, k, rel=empty)
            assert relative.n_chains == absolute.n_chains
            assert_matches(relative, oracle, rng)


def test_betti_numbers_are_the_ranks_of_the_bases():
    """Pivot counts against basis sizes on fresh library carriers, before the
    bases are cached and after."""
    fresh = model_library()
    spaces = [*fresh.complexes.values(), *fresh.chains.values()]
    assert len(spaces) == 16
    for X in spaces:
        before = betti_numbers(X)
        assert before == tuple(homology(X, k).betti for k in range(X.dimension + 1))
        assert betti_numbers(X) == before


def test_betti_numbers_survive_subdivision(library):
    # the quadric is left out: its subdivision has 73 012 simplices
    for name, K in sorted(library.complexes.items()):
        if K.dimension <= 2:
            assert betti_numbers(barycentric_subdivide(K)[0]) == betti_numbers(K), name


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(0, 2**9 - 1), max_size=10), st.integers(0, 2**10))
def test_reduce_columns_pivots_and_kernel(cols, seed):
    pivots, kernel = reduce_columns(cols)
    _, dense_pivots = rref(cols, 9)
    assert sorted(pivots) == dense_pivots
    assert all((c & -c).bit_length() - 1 == p for p, c in pivots.items())
    assert len(pivots) + len(kernel) == len(cols)
    zero_columns = sum(1 << j for j in kernel)
    for j, v in kernel.items():
        assert (v & -v).bit_length() - 1 == j
        # besides its own column, a kernel vector uses only pivot columns
        assert v & zero_columns == 1 << j
        acc = 0
        for i in range(len(cols)):
            if (v >> i) & 1:
                acc ^= cols[i]
        assert acc == 0
    # skipping columns known to reduce to zero changes nothing else
    clear = set(random.Random(seed).sample(sorted(kernel), len(kernel) // 2))
    cleared_pivots, cleared_kernel = reduce_columns(cols, clear)
    assert cleared_pivots == pivots
    assert cleared_kernel == {j: v for j, v in kernel.items() if j not in clear}
