"""The cached signed dual graph against the vertex-level rules it replaced.

Walks, coherence, covers, semi-orientations, dividing halves and lifts
read ``SimplicialComplex.dual_graph`` by face index.  Each is compared
here, exactly, with the former construction spelled out by face tuples and
vertex incidences (``conftest.incidence``, ``top_adjacency``,
``face_tuple_dual_walk`` and ``propagated_lift``), on every library map,
both covers of each bundled surface and one barycentric subdivision.  The
mutation tests show that the checks reading the graph and the fixed set
catch a flipped sign and a dropped fixed component.
"""

import random

import pytest

from conjtop.complexes import (
    SimplicialComplex,
    SimplicialMap,
    _roots,
    barycentric_subdivide,
    dual_walk,
    identity_map,
)
from conjtop.coverings import (
    SemiOrientation,
    _perm_parity,
    branched_double_cover,
    curve_complex_semiorientation,
    dividing_test,
    double_cover_unbranched,
    is_coherent,
    lift_involution,
    orientation_cover,
    pushforward_semiorientation,
    stiefel_whitney_cocycle,
)
from conjtop.errors import InputError, ModelIntegrityError
from conjtop.homology import cohomology
from conjtop.involutions import fixed_subcomplex
from conftest import (
    face_tuple_dual_walk,
    incidence,
    involution_model,
    propagated_lift,
    sheet_labels_from_projection,
    top_adjacency,
)

# a closed curve dual to w1 on the surfaces that carry one as a mark
W1_DUAL = {"rp2_6vertex": "generator", "klein_bottle": "w1dual"}


def coherent_by_incidence(semi, excluded=frozenset()):
    """Adjacent tops induce opposite signs on every shared face not excluded."""
    K = semi.carrier
    tops = K.simplices(K.dimension)
    return all(semi.signs[a] * incidence(tops[a], face) != semi.signs[b] * incidence(tops[b], face)
               for face, a, b in top_adjacency(K, excluded))


def glued_by_vertex(K, cut):
    """(total tops, projection, deck, sheet labels) of the cut-and-glue cover,
    with each glued slot found by looking its vertex up in both tops."""
    n = K.dimension
    tops, w = K.simplices(n), n + 1
    glued = []
    for face, a, b in top_adjacency(K):
        flip = 1 if face in cut else 0
        for sheet in (0, 1):
            for v in face:
                glued.append(((2 * a + sheet) * w + tops[a].index(v),
                              (2 * b + (sheet ^ flip)) * w + tops[b].index(v)))
    number = {}
    vertex = [number.setdefault(r, len(number)) for r in _roots(2 * len(tops) * w, glued)]
    label_of = {tuple(sorted(vertex[c * w:(c + 1) * w])): divmod(c, 2) for c in range(2 * len(tops))}
    proj, deck = [0] * len(number), [0] * len(number)
    for x, i in enumerate(vertex):
        copy, pos = divmod(x, w)
        proj[i] = tops[copy // 2][pos]
        deck[i] = vertex[(copy ^ 1) * w + pos]
    return sorted(label_of), tuple(proj), tuple(deck), tuple(label_of[t] for t in sorted(label_of))


def transported_signs(X, cover, signs):
    """Orientation of the cover total: sheet 0 as ``signs``, sheet 1 reversed,
    each moved onto its lift through the projection's vertex order."""
    tops, base_tops = cover.total.simplices(2), X.simplices(2)
    out = []
    for lifted, (bt, sheet) in zip(tops, cover.sheet_labels):
        proj_seq = tuple(cover.projection(v) for v in lifted)
        odd = sheet ^ _perm_parity(tuple(proj_seq.index(v) for v in base_tops[bt]))
        out.append(-signs[bt] if odd else signs[bt])
    return SemiOrientation(cover.total, out)


def halves_by_face_tuples(K, tau):
    """(component count, halves) from the face-tuple walk cut along the fixed
    edges, or None where the dividing test must refuse."""
    data = fixed_subcomplex(K, tau)
    if any(c.dimension != 1 for c in data.components):
        return None
    comp, _ = face_tuple_dual_walk(K, frozenset(data.subcomplex.simplices(1)))
    if max(comp) != 1:
        return (1, None) if max(comp) == 0 else None
    tops = K.simplices(2)
    if any(comp[K.index_of(tau.map_simplex(s))] == comp[t] for t, s in enumerate(tops)):
        return None
    return 2, tuple(frozenset(t for t, c in enumerate(comp) if c == h) for h in (0, 1))


def semiorientation_by_incidence(K, tau, halves):
    """Signs the half-0 side of a global orientation induces on fixed edges."""
    signs = face_tuple_dual_walk(K)[1]
    tops, cofaces = K.simplices(2), K.cofaces(1)
    F = fixed_subcomplex(K, tau).subcomplex
    out = []
    for e in F.simplices(1):
        a, b = cofaces[K.index_of(e)]
        if a not in halves[0]:
            a, b = b, a
        assert signs[a] * incidence(tops[a], e) != signs[b] * incidence(tops[b], e)
        out.append(signs[a] * incidence(tops[a], e))
    return SemiOrientation(F, out)


def relabelled(K, tau, rng):
    """K and tau with their vertices renumbered by a seeded permutation."""
    perm = list(range(K.vertex_count))
    rng.shuffle(perm)
    Kr = SimplicialComplex.from_simplices(
        K.vertex_count, [sorted(perm[v] for v in s) for s in K.facets()])
    images = [0] * K.vertex_count
    for v in range(K.vertex_count):
        images[perm[v]] = perm[tau(v)]
    return Kr, SimplicialMap(Kr, Kr, images)


def surface_cases(library):
    """(name, surface, involutions on it): every bundled surface with its
    library maps and the identity, one subdivided map and three relabelled
    ones (vertex order decides which half holds the lower top of an edge)."""
    maps = {}
    for name, (src, _, tau) in library.maps.items():
        maps.setdefault(src, []).append(tau)
    out = [(n, K, [identity_map(K)] + maps.get(n, []))
           for n, K in library.complexes.items() if K.dimension == 2]
    K, tau, _ = involution_model(library, "genus2_dividing")
    Kp, taup = barycentric_subdivide(K, tau)
    out.append(("genus2_dividing subdivided", Kp, [identity_map(Kp), taup]))
    rng = random.Random(47)
    for name in ("torus_reflection", "genus2_dividing", "torus_diagonal"):
        Kr, taur = relabelled(*involution_model(library, name)[:2], rng)
        out.append((name + " relabelled", Kr, [identity_map(Kr), taur]))
    return out


def covers_of(library, name, K):
    """(kind, cover, cut) for both covers of a surface: the unbranched cover
    by w1, and the cut-and-glue cover along a curve dual to w1 (the
    orientation cover); a surface without such a curve is cut along
    nothing.  The subdivided octahedron adds its cover branched over arcs."""
    w1 = stiefel_whitney_cocycle(K)
    marks = library.cycles.get(name, {})
    covers = [("unbranched", double_cover_unbranched(K, w1), None)]
    if name in W1_DUAL or w1 == 0:
        curve = {tuple(s) for s in marks.get(W1_DUAL.get(name), [])}
        covers.append(("orientation", orientation_cover(K, curve)[0], curve))
    if "arcs_both" in marks or name not in W1_DUAL and w1 != 0:
        arcs = set()
        for s in marks.get("arcs_both", []):
            arcs ^= {tuple(s)}
        covers.append(("branched", branched_double_cover(K, arcs), arcs))
    return covers


def test_walks_match_face_tuple_walk(library):
    rng = random.Random(41)
    cases = [(n, K) for n, K in library.complexes.items()]
    cases += [(n, K) for n, K, _ in surface_cases(library)[-1:]]
    for name, K in cases:
        n = K.dimension
        faces = K.simplices(n - 1)
        assert dual_walk(K) == face_tuple_dual_walk(K), name
        for _ in range(4):
            cut = frozenset(rng.sample(faces, min(len(faces), 3)))
            flip = frozenset(rng.sample(faces, min(len(faces), 2)))
            ids = [set(map(K.index_of, c)) for c in (cut, flip)]
            assert dual_walk(K, *ids) == face_tuple_dual_walk(K, cut, flip), name


def test_coherence_matches_incidence_rule(library):
    rng = random.Random(43)
    for name, K, _ in surface_cases(library):
        m = K.n_simplices(2)
        edges = K.simplices(1)
        signs = dual_walk(K)[1] or tuple(rng.choice((1, -1)) for _ in range(m))
        for trial in range(6):
            if trial:
                signs = tuple(-s if rng.random() < 0.05 else s for s in signs)
            semi = SemiOrientation(K, signs)
            excluded = frozenset(rng.sample(edges, 5)) if trial & 1 else frozenset()
            assert is_coherent(semi, excluded) == coherent_by_incidence(semi, excluded), name


def test_dividing_halves_and_semiorientations_match(library):
    for name, K, maps in surface_cases(library):
        for tau in maps[1:]:
            want = halves_by_face_tuples(K, tau)
            if want is None:
                with pytest.raises(InputError):
                    dividing_test(K, tau)
                continue
            verdict = dividing_test(K, tau)
            assert (verdict.component_count, verdict.halves) == want, name
            if verdict.dividing and face_tuple_dual_walk(K)[1] is not None:
                got = curve_complex_semiorientation(K, tau)
                assert got == semiorientation_by_incidence(K, tau, verdict.halves), name


def test_covers_match_vertex_gluing(library):
    glued = 0
    for name, K, _ in surface_cases(library):
        for kind, cover, cut in covers_of(library, name, K):
            if cut is None:
                continue
            glued += 1
            tops, proj, deck, labels = glued_by_vertex(K, cut)
            assert cover.total.simplices(2) == tuple(tops), (name, kind)
            assert (cover.projection.images, cover.deck.images) == (proj, deck), (name, kind)
            assert cover.sheet_labels == labels, (name, kind)
    assert glued >= 13


def test_unbranched_sheet_labels_match_projection_order(library):
    """The label sheet of each lift is the sheet it was rooted on; the oracle
    ranks the two lifts of each base top by sorting their projections.  The
    w1 cover of every surface, and again from seeded cohomologous cocycles."""
    rng = random.Random(59)
    covered = 0
    for name, K, _ in surface_cases(library):
        w1 = stiefel_whitney_cocycle(K)
        coboundary = K.boundary_matrix(1).transpose()
        for w in [w1] + [w1 ^ coboundary.mul_vec(rng.getrandbits(K.vertex_count))
                         for _ in range(2)]:
            cover = double_cover_unbranched(K, w)
            want = sheet_labels_from_projection(cover.total, K, cover.projection)
            assert cover.sheet_labels == want, name
            covered += 1
    assert covered >= 30


def test_orientation_cover_signs_match_transport(library):
    for name, K, _ in surface_cases(library):
        if name not in W1_DUAL and stiefel_whitney_cocycle(K) != 0:
            continue
        curve = [tuple(s) for s in library.cycles.get(name, {}).get(W1_DUAL.get(name), [])]
        cover, semi = orientation_cover(K, curve)
        flip = frozenset(curve)
        signs = face_tuple_dual_walk(K, flip=flip)[1]
        assert semi == transported_signs(K, cover, signs), name
        assert coherent_by_incidence(semi), name
        assert pushforward_semiorientation(cover.deck, semi) == tuple(-s for s in semi.signs)


def test_lifts_match_propagated_lifts(library):
    """Both covers of each surface, and the w1 cover again from a seeded
    cohomologous cocycle, so that the involution moves the sheet cocycle."""
    rng = random.Random(53)
    lifted = 0
    for name, K, maps in surface_cases(library):
        w1 = stiefel_whitney_cocycle(K) ^ K.boundary_matrix(1).transpose().mul_vec(
            rng.getrandbits(K.vertex_count))
        covers = [cover for _, cover, _ in covers_of(library, name, K)]
        for cover in covers + [double_cover_unbranched(K, w1)]:
            for tau in maps:
                if len(cover.total.simplices(0)) < cover.total.vertex_count:
                    continue  # the oracle needs every vertex id in a top
                try:
                    want = propagated_lift(cover, tau)
                except InputError:
                    with pytest.raises(InputError, match="cover class not invariant"):
                        lift_involution(cover, tau)
                    continue
                got = lift_involution(cover, tau)
                assert [f.images for f in got] == [f.images for f in want], name
                lifted += 1
    assert lifted >= 30


def test_lift_fixes_vertex_ids_outside_the_complex(library):
    """Vertex ids in no simplex keep their place in their fiber; the former
    propagation had no image for them and failed with a KeyError."""
    K, tau, _ = involution_model(library, "genus2_dividing")
    assert K.n_simplices(0) < K.vertex_count
    cover = double_cover_unbranched(K, 0)
    c_plus, c_minus = lift_involution(cover, identity_map(K))
    assert c_plus.images == tuple(range(cover.total.vertex_count))
    assert c_minus.images == cover.deck.images
    for lift in lift_involution(cover, tau):
        assert lift.is_involution()
        assert cover.projection.compose(lift).images == tau.compose(cover.projection).images


def test_lift_refuses_class_the_involution_moves(library):
    K, tau, _ = involution_model(library, "torus_diagonal")
    refused = 0
    for w in cohomology(K, 1).cycles:
        cover = double_cover_unbranched(K, w)
        try:
            want = propagated_lift(cover, tau)
        except InputError:
            with pytest.raises(InputError, match="cover class not invariant"):
                lift_involution(cover, tau)
            refused += 1
            continue
        assert [f.images for f in lift_involution(cover, tau)] == [f.images for f in want]
    assert refused >= 1


# --- seeded mutations -------------------------------------------------------------


def flipped_graph(graph, face):
    """A dual graph with the relative sign across one face negated."""
    pairs, adjacency = graph
    a, ja, b, jb, rel = pairs[face]
    pairs = list(pairs)
    pairs[face] = (a, ja, b, jb, -rel)
    adjacency = [tuple((f, u, -r if f == face else r) for f, u, r in row) for row in adjacency]
    return tuple(pairs), tuple(adjacency)


def test_flipped_sign_breaks_coherence_and_orientation_cover(library, monkeypatch):
    K = library.complexes["torus_grid"]
    fresh = SimplicialComplex.from_simplices(K.vertex_count, K.simplices(2))
    semi = SemiOrientation(fresh, dual_walk(fresh)[1])
    assert is_coherent(semi)
    fresh._dual_cache = flipped_graph(fresh.dual_graph(), 17)
    assert not is_coherent(semi)

    klein = library.complexes["klein_bottle"]
    curve = [tuple(s) for s in library.cycles["klein_bottle"]["w1dual"]]
    original = SimplicialComplex.dual_graph

    def mutated(self):
        graph = original(self)
        return flipped_graph(graph, next(f for f, p in enumerate(graph[0]) if p is not None))

    # every graph mutated: the base walk has no solution
    monkeypatch.setattr(SimplicialComplex, "dual_graph", mutated)
    base = SimplicialComplex.from_simplices(klein.vertex_count, klein.simplices(2))
    with pytest.raises(InputError):
        orientation_cover(base, curve)

    # only the cover total mutated: its coherence audit fails
    monkeypatch.setattr(SimplicialComplex, "dual_graph",
                        lambda self: mutated(self) if self.vertex_count != klein.vertex_count
                        else original(self))
    base = SimplicialComplex.from_simplices(klein.vertex_count, klein.simplices(2))
    with pytest.raises(ModelIntegrityError, match="coherence"):
        orientation_cover(base, curve)


@pytest.mark.parametrize("name", ["torus_reflection", "genus2_dividing"])
def test_dropped_fixed_component_changes_dividing_verdict(library, name):
    src, _, tau = library.maps[name]
    K = library.complexes[src]
    verdict = dividing_test(K, tau)
    F, components, mid, cycle = tau._fixed
    dropped = F.components()[0]
    kept = [s for s in F.all_simplices() if s[0] not in dropped]
    fresh = type(tau)(K, K, tau.images)
    fresh._fixed = (SimplicialComplex.from_simplices(K.vertex_count, kept),
                    components[1:], mid, cycle ^ components[0].cycle)
    try:
        mutated = dividing_test(K, fresh)
    except InputError:
        return
    assert mutated != verdict
