"""The sparse column reduction against the dense elimination it replaced.

``DenseBasis`` is the former implementation of canonical homology:
row-echelonize the boundary image, reduce a kernel basis against it and
echelonize the residues.  Every sparse basis must match it bit for bit,
in its cycles and in the coordinates it assigns.
"""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conjtop.complexes import SimplicialComplex, barycentric_subdivide, orbit_chain_boundaries
from conjtop.errors import InputError
from conjtop.gf2 import Gf2Matrix, gf2_kernel_basis, reduce_columns
from conjtop.homology import ChainComplexData, betti_numbers, cohomology, homology
from conjtop.involutions import fixed_subcomplex
from conftest import rref


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


def assert_matches(sparse, dense, rng, probes=6):
    assert sparse.cycles == tuple(dense.cycles)
    n = dense.n_chains
    for _ in range(probes):
        chain = 0
        for z in dense.cycles + dense.boundaries:
            if rng.random() < 0.5:
                chain ^= z
        assert sparse.coordinates_of(chain) == dense.coordinates_of(chain)
        if n:
            stray = chain ^ (1 << rng.randrange(n))
            try:
                want = dense.coordinates_of(stray)
            except InputError:
                with pytest.raises(InputError):
                    sparse.coordinates_of(stray)
            else:
                assert sparse.coordinates_of(stray) == want


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
    outside ``masks``; returns the bases for comparison across carriers."""
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
        assert sparse.chart == tuple(kk)
        assert_matches(sparse, dense, rng)
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

        data = ChainComplexData(
            [K.n_simplices(k) for k in range(n + 1)],
            [K.boundary_matrix(k) for k in range(1, n + 1)],
        )
        on_data = check_relative(data, masks, masks, rng)
        assert [(b.cycles, b.chart) for b in on_data] == [
            (b.cycles, b.chart) for b in on_complex
        ], name

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
