"""The column passes of complexes.py against the per-simplex loops they replaced.

``SimplicialMap``'s image check reads the image index it caches, ``_roots``
ends in pointer jumping, the generic branch of ``boundary_columns`` ORs one
face position at a time, ``is_involution`` is one map comparison and
``pseudomanifold_check`` counts cofaces with one ``len`` pass.  Each is
compared here with its former definition in ``conftest``: on library complexes
and maps, and on Hypothesis draws that reach refusals, first offenders and
degenerate maps.  The readers of the filled image cache (the fixed set and the
orbit chains), and the regularity edge rule that guards them, are checked
against pointwise definitions on regular and irregular involutions.
"""

import functools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from conjtop import models
from conjtop.complexes import (
    SimplicialComplex,
    SimplicialMap,
    _roots,
    barycentric_subdivide,
    pseudomanifold_check,
)
from conjtop.errors import InputError
from conjtop.involutions import fixed_subcomplex, regularity_offender
from conjtop.smith import orbit_chain_boundaries

from conftest import (
    generic_orbit_boundaries,
    m_double,
    per_face_coface_check,
    per_facet_map_check,
    per_pair_roots,
    per_simplex_boundary_columns,
    per_simplex_index_images,
    per_vertex_is_involution,
    relabelled,
    skeleton_involution,
)


def outcome(call, *args):
    """The InputError text of a call, or None when it returns."""
    try:
        call(*args)
    except InputError as exc:
        return str(exc)
    return None


def fresh(K):
    """An equal complex with empty caches."""
    return SimplicialComplex.from_simplices(K.vertex_count, K.all_simplices())


@functools.cache
def map_complexes():
    """The library complexes, a 4-fold, an M-double (its vertex range has
    gaps: the mirror's boundary copies are no vertices), points and the empty
    complex."""
    library = models.model_library()
    four = models.product_complex(models.sphere_octa(), models.rp2_6vertex())
    points = SimplicialComplex.from_simplices(5, [(0,), (2,), (4,)])
    empty = SimplicialComplex.from_simplices(3, [])
    return [library.complexes[name] for name in sorted(library.complexes)] \
        + [four, m_double(2)[0], points, empty]


# --- the image check of SimplicialMap ------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_map_check_matches_the_per_facet_route(data):
    """Random vertex maps accept, refuse and name the first offender as the
    facet route did; a map into one top simplex folds simplices onto faces and
    is always accepted."""
    spaces = map_complexes()
    source = data.draw(st.sampled_from(spaces))
    target = data.draw(st.sampled_from([s for s in spaces if s.dimension >= 0]))
    kind = data.draw(st.sampled_from(["random", "fold", "move"]))
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    n = source.vertex_count
    if kind == "random":
        images = [rng.randrange(target.vertex_count) for _ in range(n)]
    elif kind == "fold":
        top = rng.choice(target.simplices(target.dimension))
        images = [rng.choice(top) for _ in range(n)]
    else:  # a few vertices of the identity moved, so offenders sit anywhere
        target, images = source, list(range(n))
        for _ in range(rng.randint(1, 3)):
            images[rng.randrange(n)] = rng.randrange(n)
    expected = outcome(per_facet_map_check, source, target, images)
    assert outcome(SimplicialMap, source, target, images) == expected
    if kind == "fold":
        assert expected is None
    if expected is None:  # the check leaves the image cache full for every later reader
        f = SimplicialMap(source, target, images)
        assert sorted(f._memo) == list(range(source.dimension + 1))
        for k in range(source.dimension + 1):
            assert f.index_images(k) == per_simplex_index_images(f, k)


def test_map_check_edge_cases(library):
    K = library.complexes["torus7"]
    triangle = SimplicialComplex.from_simplices(3, [(0, 1, 2)])
    edge = SimplicialComplex.from_simplices(3, [(0, 1), (2,)])
    cases = [
        (K, triangle, [v % 3 for v in range(K.vertex_count)]),  # folds every top onto the triangle
        (K, edge, [v % 3 for v in range(K.vertex_count)]),  # the first edge onto 2 spans nothing
        (K, edge, [0] * K.vertex_count),  # every simplex onto a vertex
        (triangle, edge, [0, 1, 2]),  # the vertices pass, the edge (0, 2) does not
        (SimplicialComplex.from_simplices(3, []), edge, [0, 0, 0]),
    ]
    seen = set()
    for source, target, images in cases:
        got = outcome(SimplicialMap, source, target, images)
        assert got == outcome(per_facet_map_check, source, target, images)
        seen.add(got)
    assert seen >= {None, "image of simplex (0, 2) spans no simplex: (0, 2)"}


# --- regularity and the readers of the image cache: the fixed set, the orbit chains --


def check_involution_readers(K, tau):
    """``is_involution`` against its former loop; the regularity offender, and
    for a regular involution the fixed simplices and the orbit chain complex,
    against pointwise definitions.  False when the involution is not regular, or
    when a middle-dimensional fixed component is no pseudomanifold."""
    assert tau.is_involution() == per_vertex_is_involution(tau)
    moved = [s for s in K.all_simplices() if any(tau(v) != v for v in s)]
    bad = regularity_offender(K, tau)
    assert bad == next((s for s in moved if tau.map_simplex(s) == s), None)
    if bad is not None:
        return False
    assert orbit_chain_boundaries(K, tau) == generic_orbit_boundaries(K, tau)
    try:
        F = fixed_subcomplex(K, SimplicialMap(K, K, tau.images)).subcomplex
    except InputError:
        return False
    assert set(F.all_simplices()) == set(K.all_simplices()).difference(moved)
    return True


def library_involutions(library):
    """Every library map, each surface or circle map subdivided once, and three
    relabelled ones."""
    rng = random.Random(61)
    for name in sorted(library.maps):
        src, _, tau = library.maps[name]
        K = library.complexes[src]
        yield fresh(K), SimplicialMap(fresh(K), fresh(K), tau.images)
        if K.dimension <= 2:
            yield barycentric_subdivide(K, tau)
            yield relabelled(K, tau, rng)


def test_image_cache_readers_on_library_maps(library):
    assert all(check_involution_readers(K, tau) for K, tau in library_involutions(library))
    K, tau = m_double(3)
    assert check_involution_readers(K, tau)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 6), st.integers(0, 3), st.integers(0, 3), st.integers(0, 2**32 - 1),
       st.booleans())
def test_image_cache_readers_on_skeleta_of_a_simplex(m, d, swaps, seed, subdivide):
    """Any vertex involution of the d-skeleton of a simplex is an automorphism.
    One that swaps an edge's ends maps that edge onto itself, so it is regular
    only after one subdivision, which reaches the fixed set and orbit chains."""
    K, tau = skeleton_involution(m, d, swaps, seed)
    if subdivide:
        K, tau = barycentric_subdivide(K, tau)
    check_involution_readers(K, tau)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 6).flatmap(lambda m: st.lists(st.integers(0, m - 1), min_size=m, max_size=m)))
def test_is_involution_matches_the_former_loop(images):
    """Every vertex map of a simplex into itself is simplicial, involution or not."""
    m = len(images)
    K = SimplicialComplex.from_simplices(m, [range(m)])
    f = SimplicialMap(K, K, images)
    assert f.is_involution() == per_vertex_is_involution(f)
    wider = SimplicialComplex.from_simplices(m + 1, [range(m)])
    assert not SimplicialMap(K, wider, images).is_involution()


# --- connectivity and the boundary columns -------------------------------------------


def bfs_labels(n, pairs):
    """Component number of each element, in order of each component's lowest element."""
    adjacent = [[] for _ in range(n)]
    for a, b in pairs:
        adjacent[a].append(b)
        adjacent[b].append(a)
    label, count = [-1] * n, 0
    for start in range(n):
        if label[start] < 0:
            label[start], stack = count, [start]
            while stack:
                for u in adjacent[stack.pop()]:
                    if label[u] < 0:
                        label[u] = count
                        stack.append(u)
            count += 1
    return label


def check_roots(n, pairs):
    roots = _roots(n, pairs)
    assert roots == per_pair_roots(n, pairs)
    labels = bfs_labels(n, pairs)
    assert len(set(zip(roots, labels))) == len(set(roots)) == len(set(labels))
    assert all(roots[r] == r for r in roots)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=60))))
def test_roots_match_bfs_labels_and_the_former_union_find(case):
    check_roots(*case)


def test_roots_on_long_paths_and_the_empty_graph():
    check_roots(0, [])
    for n in (1, 2, 300):
        path = [(i, i + 1) for i in range(n - 1)]
        for pairs in (path, path[::-1], [(b, a) for a, b in path], path[1::2] + path[::2]):
            check_roots(n, pairs)


def test_boundary_columns_match_per_simplex_sums(library):
    four = models.product_complex(models.sphere_octa(), models.rp2_6vertex())
    assert four.dimension == 4
    for K in [*map(fresh, library.complexes.values()), four]:
        for k in range(K.dimension + 2):
            assert K.boundary_columns(k) == per_simplex_boundary_columns(K, k), (K, k)


# --- the coface count of pseudomanifold_check ----------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 7).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.sets(st.integers(0, n - 1), min_size=2, max_size=4), max_size=8))))
def test_coface_count_names_the_first_bad_face(case):
    n, generators = case
    K = SimplicialComplex.from_simplices(n, [sorted(g) for g in generators])
    got = outcome(pseudomanifold_check, K)
    expected = outcome(per_face_coface_check, K)
    if expected is not None:
        assert got == expected
    elif K.dimension >= 1:
        assert got is None or "top cofaces" not in got
