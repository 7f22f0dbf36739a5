"""The construction path: validated public constructors, trusted derivations.

Derived complexes and maps skip validation in production because they are
correct by construction.  The ``audited`` fixture makes every trusted
construction also run the full public validation, so a defect in a
derivation still fails these tests.
"""

import ast
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conjtop import involutions, models, smith
from conjtop.chains import ChainComplexData
from conjtop.complexes import (
    SimplicialComplex,
    SimplicialMap,
    barycentric_subdivide,
    impure_simplex,
)
from conjtop.coverings import (
    branched_double_cover,
    double_cover_unbranched,
    orientation_cover,
    stiefel_whitney_cocycle,
)
from conjtop.errors import InputError
from conjtop.smith import quotient_by_involution, regularize

from conftest import per_generator_from_simplices, per_simplex_closure


@pytest.fixture
def audited(monkeypatch):
    """Trusted constructors that also check their result the public way.

    A complex must be normalised and closed under faces, by conftest's
    ``per_simplex_closure`` (not the column path ``from_simplices`` runs, which
    ends in the patched ``_trusted``), in range, bucketed by dimension in
    sorted order and indexed in that order; a map must pass the
    ``SimplicialMap`` checks; a chain complex must equal
    ``ChainComplexData(ranks, boundaries)``, which checks the shapes and
    that consecutive boundaries compose to zero.  Returns the number of
    trusted constructions of each kind.
    """
    built = {"complexes": 0, "maps": 0, "chains": 0}
    trusted_complex = SimplicialComplex._trusted.__func__
    trusted_map = SimplicialMap._trusted.__func__
    trusted_chain = ChainComplexData._trusted.__func__

    def complex_checked(cls, vertex_count, levels):
        K = trusted_complex(cls, vertex_count, levels)
        simplices = list(K.all_simplices())
        assert per_simplex_closure(simplices) == set(simplices)
        assert all(0 <= s[0] and s[-1] < vertex_count for s in simplices)
        assert all(len(s) == k + 1 for k, group in enumerate(K._by_dim) for s in group)
        assert all(group and list(group) == sorted(set(group)) for group in K._by_dim)
        assert K._index == {s: i for group in K._by_dim for i, s in enumerate(group)}
        built["complexes"] += 1
        return K

    def map_checked(cls, source, target, images):
        f = trusted_map(cls, source, target, images)
        SimplicialMap(f.source, f.target, f.images)
        built["maps"] += 1
        return f

    def chain_checked(cls, ranks, boundaries):
        C = trusted_chain(cls, ranks, boundaries)
        assert C == ChainComplexData(ranks, boundaries)
        built["chains"] += 1
        return C

    monkeypatch.setattr(SimplicialComplex, "_trusted", classmethod(complex_checked))
    monkeypatch.setattr(SimplicialMap, "_trusted", classmethod(map_checked))
    monkeypatch.setattr(ChainComplexData, "_trusted", classmethod(chain_checked))
    return built


def curve(library, name, mark):
    return [tuple(s) for s in library.cycles[name][mark]]


def test_audited_model_builders(audited):
    library = models.model_library()
    models.product_complex(models.sphere_octa(), models.square_circle())
    models.coned_grid_klein(6)
    models.octa_subdivided_with_arcs()
    assert audited["complexes"] > 0 and audited["maps"] > 0
    assert library.complexes["quadric"] == models.quadric_complex()[0]


def test_audited_double_covers(audited, library):
    rp2 = library.complexes["rp2_6vertex"]
    double_cover_unbranched(rp2, stiefel_whitney_cocycle(rp2))
    K, _, _ = library.maps["torus_reflection"]
    double_cover_unbranched(library.complexes[K], 0)
    octa = library.complexes["sphere_octa_sub"]
    branched = branched_double_cover(octa, curve(library, "sphere_octa_sub", "arcs_both"))
    assert branched.branch is not None
    klein = library.complexes["klein_bottle"]
    orientation_cover(klein, curve(library, "klein_bottle", "w1dual"))
    assert audited["complexes"] >= 5 and audited["maps"] >= 10


def test_audited_subdivision_quotient_and_fixed_sets(audited, library):
    for name, (src, _, tau) in library.maps.items():
        K = library.complexes[src]
        Kp, taup = barycentric_subdivide(K, tau)
        assert taup.compose(taup).images == tuple(range(Kp.vertex_count))
        Kr, taur = regularize(K, tau)
        quotient_by_involution(Kr, taur)
        involutions.fixed_subcomplex(K, tau)
        involutions.fixed_subcomplex(Kp, taup)
        K.subcomplex(K.facets()[:2])
    assert audited["complexes"] > 4 * len(library.maps)


def test_audited_orbit_chain_complex(audited, library):
    maps = [(K, tau) for K, _, tau in library.maps.values()
            if library.complexes[K].dimension == 4]
    assert maps
    for K, tau in maps:
        smith.smith_kernel_bound(library.complexes[K], tau)
    assert audited["chains"] == len(maps)


# --- from_simplices against the parent route --------------------------------------


def parent_route(vertex_count, generators):
    """The former ``from_simplices``: every face of every generator, then
    the constructor (now ``from_simplices`` of the closed set)."""
    faces = set()
    for s in generators:
        t = tuple(int(v) for v in s)
        if any(t[i] >= t[i + 1] for i in range(len(t) - 1)):
            raise InputError(f"simplex {t} is not strictly increasing")
        for k in range(1, len(t) + 1):
            faces.update(combinations(t, k))
    return SimplicialComplex.from_simplices(vertex_count, faces)


def outcome(build, vertex_count, generators):
    try:
        K = build(vertex_count, generators)
    except InputError as exc:
        return str(exc)
    return K._by_dim, K._index


generator_lists = st.integers(1, 7).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.lists(st.integers(-1, n), max_size=4), max_size=6),
        st.booleans(),
    )
)


@settings(max_examples=300, deadline=None)
@given(generator_lists)
def test_from_simplices_matches_parent_route(case):
    n, raw, keep_order = case
    # mostly well-formed generators; unsorted ones only when asked
    generators = [tuple(g) if keep_order else tuple(sorted(set(g))) for g in raw]
    new = outcome(SimplicialComplex.from_simplices, n, generators)
    old = outcome(parent_route, n, generators)
    if isinstance(new, str) and "has a vertex outside" in new:
        # the parent named whichever out-of-range face it met first; the
        # new route names an out-of-range generator
        assert isinstance(old, str) and "has a vertex outside" in old
        named = ast.literal_eval(new.split(" has ")[0][len("simplex "):])
        assert named in generators and (named[0] < 0 or named[-1] >= n)
    else:
        assert new == old
    if not isinstance(new, str):
        K = SimplicialComplex.from_simplices(n, generators)
        assert per_simplex_closure(generators) == set(K._index)


@settings(max_examples=300, deadline=None)
@given(generator_lists)
def test_from_simplices_matches_per_generator_route(case):
    n, raw, keep_order = case
    generators = [tuple(g) if keep_order else tuple(sorted(set(g))) for g in raw]
    new = outcome(SimplicialComplex.from_simplices, n, generators)
    assert new == outcome(per_generator_from_simplices, n, generators)


# inputs the strategy never draws: (vertex count, a maker of fresh generators)
PARITY_CASES = {
    "one-shot generator": (5, lambda: (s for s in [(0, 1, 2), (2, 3), (4,)])),
    "one-shot generator, non-increasing": (5, lambda: (s for s in [(0, 1), (3, 2)])),
    "one-shot vertex iterators": (5, lambda: (iter(s) for s in [(0, 1, 2), (1, 3)])),
    "one-shot vertex iterators, non-increasing": (5, lambda: (iter(s) for s in [(0, 1), (2, 1)])),
    "non-increasing before non-integer": (5, lambda: [(0, 1), (2, 1), ("x", 3)]),
    "non-integer before non-increasing": (5, lambda: [(0, None), (2, 1)]),
    "non-iterable behind non-increasing": (5, lambda: [(1, 0), 3]),
    "non-iterable": (5, lambda: [(0, 1), 3]),
    "empty generators": (4, lambda: [(), (0, 1), (), (2,)]),
    "only empty generators": (4, lambda: [(), ()]),
    "duplicates across dimensions": (5, lambda: [(0, 1, 2), (1,), (0, 1), (0, 1, 2), (3,),
                                                 (1, 2), (2, 3, 4), (3,)]),
    "dimension gap": (6, lambda: [(0,), (1, 2, 3, 4)]),
    "out of range behind non-increasing": (5, lambda: [(3, 1), (0, 9)]),
    "non-increasing behind out of range": (5, lambda: [(0, 9), (3, 1)]),
    "several out of range": (5, lambda: [(0, 7), (1, 9), (2, 8), (-1, 3)]),
    "out of range in a lower dimension": (5, lambda: [(0, 1, 2), (7,)]),
    "repeated vertex": (5, lambda: [(0, 1), (2, 2)]),
    "non-increasing before an infinite vertex": (5, lambda: [(2, 1), (0, float("inf"))]),
    "strings and lists": (5, lambda: [("0", "1"), "34", [2, 4]]),
    "bools and floats": (5, lambda: [(True, 2.5), (0.0, 3.9), [False]]),
}


@pytest.mark.parametrize("case", sorted(PARITY_CASES))
def test_from_simplices_error_parity(case):
    n, make = PARITY_CASES[case]

    def result(build):
        try:
            K = build(n, make())
        except Exception as exc:
            return type(exc), str(exc)
        return K._by_dim, K._index

    assert result(SimplicialComplex.from_simplices) == result(per_generator_from_simplices)


def test_first_malformed_generator_in_input_order_is_named():
    for n, generators in ((5, [(0, 1), (2, 1), ("x", 3)]), (5, [(2, 1), (0, 9)]),
                          (5, [(0, 9), (2, 1)]), (5, [(2, 1), 3])):
        with pytest.raises(InputError, match=r"^simplex \(2, 1\) is not strictly increasing$"):
            SimplicialComplex.from_simplices(n, generators)


def test_out_of_range_generator_is_named():
    with pytest.raises(InputError, match=r"simplex \(9,\) has a vertex outside 0\.\.4"):
        parent_route(5, [(0, 1, 9), (2, 3)])
    with pytest.raises(InputError, match=r"simplex \(0, 1, 9\) has a vertex outside 0\.\.4"):
        SimplicialComplex.from_simplices(5, [(0, 1, 9), (2, 3)])


# --- facets and purity --------------------------------------------------------------


def facets_by_pairs(K):
    """The former quadratic definition of ``facets``."""
    out = []
    for k in range(K.dimension, -1, -1):
        for s in K.simplices(k):
            if not any(set(s) < set(t) for t in out):
                out.append(s)
    return sorted(out, key=lambda s: (len(s), s))


def impure_by_covered_set(K):
    covered = set()
    for s in K.simplices(K.dimension):
        for k in range(1, len(s) + 1):
            covered.update(combinations(s, k))
    return next((s for s in K.all_simplices() if s not in covered), None)


def non_pure_complex():
    return SimplicialComplex.from_simplices(8, [(0, 1, 2), (2, 3), (3, 4), (5,), (1, 2, 6, 7)])


def test_facets_against_pairwise_definition(library):
    torus = library.complexes["torus7"]
    subdivided, _ = barycentric_subdivide(torus)
    empty = SimplicialComplex.from_simplices(3, [])
    # every vertex lies in a triangle, so only the edge level is impure
    edge_level_only = SimplicialComplex.from_simplices(5, [(0, 1, 2), (2, 3, 4), (0, 4)])
    stray_vertex = SimplicialComplex.from_simplices(
        torus.vertex_count + 1, list(torus.simplices(2)) + [(torus.vertex_count,)])
    complexes = list(library.complexes.values()) + [
        subdivided, non_pure_complex(), empty, edge_level_only, stray_vertex]
    for K in complexes:
        assert K.facets() == facets_by_pairs(K)
        assert impure_simplex(K) == impure_by_covered_set(K)
    assert non_pure_complex().facets() == [(5,), (2, 3), (3, 4), (0, 1, 2), (1, 2, 6, 7)]
    assert impure_simplex(non_pure_complex()) == (0,)
    assert impure_simplex(edge_level_only) == (0, 4)
    assert impure_simplex(stray_vertex) == (torus.vertex_count,)


# --- a missing involution ----------------------------------------------------------


@pytest.mark.parametrize(
    "call",
    [
        lambda K: smith.harnack_audit(K, None),
        lambda K: involutions.classify_type(K),
        lambda K: involutions.fixed_subcomplex(K, None),
        lambda K: smith.smith_kernel_bound(K, None),
        lambda K: involutions.verify_fixed_class_is_characteristic(K),
        lambda K: smith.check_m_variety_even_form(K),
    ],
    ids=[
        "harnack_audit",
        "classify_type",
        "fixed_subcomplex",
        "smith_kernel_bound",
        "verify_fixed_class_is_characteristic",
        "check_m_variety_even_form",
    ],
)
def test_missing_involution_is_an_input_error(library, call):
    with pytest.raises(InputError, match="a simplicial involution is required"):
        call(library.complexes["quadric"])


def test_non_map_involution_is_an_input_error(library):
    K = library.complexes["torus_grid"]
    with pytest.raises(InputError, match="a simplicial involution is required"):
        smith.harnack_audit(K, list(range(K.vertex_count)))
