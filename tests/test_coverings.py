import random
from itertools import combinations, permutations

import pytest

from conjtop.complexes import (
    SimplicialComplex,
    SimplicialMap,
    _boundary_support,
    barycentric_subdivide,
    dual_walk,
    fundamental_class,
)
from conjtop.coverings import (
    CoverComplex,
    _check_branch_preimage,
    branched_double_cover,
    double_cover_unbranched,
    orientation_cover,
    stiefel_whitney_cocycle,
)
from conjtop.errors import InputError, ModelIntegrityError
from conjtop.gf2 import Gf2Matrix, gf2_rank, gf2_solve
from conjtop.homology import betti_numbers, cohomology, homology
from conjtop.involutions import fixed_subcomplex
from conjtop.lattices import kharlamov_congruence
from conjtop.models import coned_grid_klein, coned_grid_torus, torus7
from conjtop.orientations import (
    SemiOrientation,
    _as_curve_subcomplex,
    compare_mod_curves,
    complement_semiorientation,
    curve_complex_semiorientation,
    dividing_test,
    extendibility_check,
    flip_semiorientation,
    is_coherent,
    pushforward_semiorientation,
)
from conftest import (
    chain_bits,
    former_boundary_support,
    identity_map,
    incidence,
    induced_edge_direction,
    involution_model,
    m_double,
    stiefel_whitney_by_evaluation,
)


def curve(library, complex_name, mark):
    K = library.complexes[complex_name]
    return [tuple(s) for s in library.cycles[complex_name][mark]]


NONORIENTABLE = {"klein_bottle", "rp2_6vertex", "nonorientable_genus3"}


def two_spheres():
    sphere = list(combinations(range(4), 3))
    return SimplicialComplex.from_simplices(8, sphere + [tuple(v + 4 for v in s) for s in sphere])


def surfaces_and_cover_totals(library):
    """(name, complex) for every bundled surface and three cover totals."""
    out = [(n, K) for n, K in library.complexes.items() if K.dimension == 2]
    rp2 = library.complexes["rp2_6vertex"]
    w1 = chain_bits(rp2, library.cycles["rp2_6vertex"]["w1_cocycle"])
    octa = library.complexes["sphere_octa_sub"]
    klein = library.complexes["klein_bottle"]
    out.append(("rp2 orientation cover", double_cover_unbranched(rp2, w1).total))
    out.append(("octa branched cover", branched_double_cover(
        octa, curve(library, "sphere_octa_sub", "arcs_both")).total))
    out.append(("klein orientation cover", orientation_cover(
        klein, curve(library, "klein_bottle", "w1dual"))[0].total))
    return out


# --- the orientation rule ------------------------------------------------------


def test_incidence_sign_matches_edge_direction_oracle(library):
    for name, K in surfaces_and_cover_totals(library):
        for top in K.simplices(2):
            for face in combinations(top, 2):
                for s in (1, -1):
                    positive = s * incidence(top, face) == 1
                    assert positive == (induced_edge_direction(top, s, face) == face), (
                        name, top, face, s)


def test_dual_walk_components_and_signs(library):
    cases = surfaces_and_cover_totals(library) + [
        ("quadric", library.complexes["quadric"]), ("two spheres", two_spheres())]
    for name, K in cases:
        comp, signs = dual_walk(K)
        component_of = {v: i for i, vs in enumerate(K.components()) for v in vs}
        assert comp == [component_of[t[0]] for t in K.simplices(K.dimension)], name
        if name in NONORIENTABLE:
            assert signs is None, name
        else:
            assert is_coherent(SemiOrientation(K, signs)), name


def test_curve_coherence_cancels_incidence_signs(library):
    K, tau, _ = involution_model(library, "torus_reflection")
    semi = curve_complex_semiorientation(K, tau)
    signs = list(semi.signs)
    signs[1] = -signs[1]
    reversed_edge = SemiOrientation(semi.carrier, signs)
    assert not is_coherent(reversed_edge)
    a, b = semi.carrier.simplices(1)[1]
    assert is_coherent(reversed_edge, frozenset({(a,), (b,)}))


def test_pushforward_refuses_map_off_the_carrier(library):
    K = library.complexes["torus7"]
    semi = SemiOrientation(K, dual_walk(K)[1])
    with pytest.raises(InputError, match="carrier of the semi-orientation"):
        pushforward_semiorientation(identity_map(library.complexes["sphere_tetra"]), semi)


def test_semiorientation_refuses_non_integer_signs(library):
    K = library.complexes["torus7"]
    with pytest.raises(InputError, match=r"signs must be \+1 or -1"):
        SemiOrientation(K, ["x"] * K.n_simplices(2))


# --- unbranched covers -------------------------------------------------------


def test_circle_connected_double_cover(library):
    K = library.complexes["square_circle"]
    w = cohomology(K, 1).cycles[0]
    cover = double_cover_unbranched(K, w)
    assert betti_numbers(cover.total) == (1, 1)
    assert len(cover.total.components()) == 1


def test_trivial_cocycle_gives_two_copies(library):
    K = library.complexes["torus7"]
    cover = double_cover_unbranched(K, 0)
    assert betti_numbers(cover.total) == (2, 4, 2)
    assert len(cover.total.components()) == 2


def test_rp2_orientation_cover_is_sphere(library):
    K = library.complexes["rp2_6vertex"]
    cover = double_cover_unbranched(K, stiefel_whitney_cocycle(K))
    assert betti_numbers(cover.total) == (1, 0, 1)
    assert cover.total.euler_characteristic() == 2


def test_wu_formula_cocycle_matches_evaluation_route(library):
    """w1 from C lambda = diag C is the cocycle the former route solved for
    against the evaluation matrix, bit for bit."""
    closed = []
    for name, K in sorted(library.complexes.items()):
        if K.dimension == 2:
            try:
                fundamental_class(K)
            except InputError:
                continue
            closed.append((name, K))
    assert len(closed) >= 10
    cases = closed + [("klein6", coned_grid_klein(6)[0]), ("klein8", coned_grid_klein(8)[0]),
                      ("torus5", coned_grid_torus(5)[0])]
    cases += [(f"mdouble g{g}", m_double(g)[0]) for g in (2, 4, 8)]
    nonzero = 0
    for name, K in cases:
        w = stiefel_whitney_cocycle(K)
        assert w == stiefel_whitney_by_evaluation(K), name
        nonzero += w != 0
    assert nonzero >= 4


def test_unbranched_connected_iff_class_nonzero(library):
    r = random.Random(23)
    for name in ("torus7", "rp2_6vertex", "klein_bottle", "hexagon_circle"):
        K = library.complexes[name]
        coh = cohomology(K, 1)
        cob = K.boundary_matrix(1).transpose()
        for _ in range(4):
            lam = r.getrandbits(coh.betti)
            w = 0
            ll = lam
            while ll:
                i = (ll & -ll).bit_length() - 1
                ll &= ll - 1
                w ^= coh.cycles[i]
            u = r.getrandbits(K.n_simplices(0))
            w ^= cob.mul_vec(u)  # change the representative
            cover = double_cover_unbranched(K, w)
            trivial = gf2_solve(cob, w) is not None
            assert (len(cover.total.components()) == 1) == (not trivial)
            assert cover.total.euler_characteristic() == 2 * K.euler_characteristic()


def test_non_cocycle_rejected(library):
    K = library.complexes["torus7"]
    with pytest.raises(InputError, match="cocycle"):
        double_cover_unbranched(K, 1)  # a single edge is not a cocycle on the torus


# --- branched covers ----------------------------------------------------------


def test_sphere_branched_over_two_points(library):
    K = library.complexes["sphere_octa_sub"]
    cover = branched_double_cover(K, curve(library, "sphere_octa_sub", "arc1"))
    assert cover.total.euler_characteristic() == 2
    assert betti_numbers(cover.total) == (1, 0, 1)
    assert cover.branch.euler_characteristic() == 2  # two points


def test_sphere_branched_over_four_points_is_torus(library):
    K = library.complexes["sphere_octa_sub"]
    cover = branched_double_cover(K, curve(library, "sphere_octa_sub", "arcs_both"))
    assert cover.total.euler_characteristic() == 0
    assert betti_numbers(cover.total) == (1, 2, 1)


def test_empty_cut_gives_two_spheres(library):
    K = library.complexes["sphere_octa_sub"]
    cover = branched_double_cover(K, [])
    assert betti_numbers(cover.total) == (2, 0, 2)
    assert cover.branch is None


def test_branched_cover_fullness_rejected(library):
    K = library.complexes["sphere_octa"]
    # arc between adjacent vertices: branch points are adjacent, not full
    with pytest.raises(InputError, match="full"):
        branched_double_cover(K, [(0, 1)])


@pytest.mark.parametrize("mark", ["arc1", "arc2", "arcs_both"])
def test_branch_locus_from_boundary_rows_matches_face_count(library, mark):
    """The boundary support is the former per-simplex count in index order,
    and the cover is branched over its closure."""
    K = library.complexes["sphere_octa_sub"]
    cut = curve(library, "sphere_octa_sub", mark)
    support = _boundary_support(cut, 1)
    assert support == sorted(former_boundary_support(K, cut, 1)) and len(support) in (2, 4)
    branch = branched_double_cover(K, cut).branch
    assert branch == SimplicialComplex.from_simplices(K.vertex_count, support)
    assert sorted(branch.simplices(0)) == support


def test_open_cutting_curve_names_the_same_boundary(library):
    K = library.complexes["torus_grid"]
    path = curve(library, "torus_grid", "col0")[:-1]
    ends = sorted(former_boundary_support(K, path, 1))
    assert len(ends) == 2 and _boundary_support(path, 1) == ends
    for build in (orientation_cover, complement_semiorientation, flip_semiorientation):
        with pytest.raises(InputError) as err:
            build(K, path)
        assert str(err.value) == f"cutting curve is not closed: boundary at {ends[:3]}"


def subdivided_chain(K, chain):
    """A chain of K carried onto its barycentric subdivision, whose vertices
    are the simplices of K in (dimension, tuple) order."""
    order = sorted(K.all_simplices(), key=lambda s: (len(s), s))
    rank = {s: i for i, s in enumerate(order)}
    return sorted({tuple(sorted(rank[tuple(sorted(p[:i]))] for i in range(1, len(s) + 1)))
                   for s in chain for p in permutations(s)})


def test_boundary_support_counts_the_chain_alone():
    """On the subdivided 7-vertex torus, the support is the former per-simplex
    count in index order, for closed and open curves and a 2-chain, and
    checking a curve builds no face indices or boundary rows of the surface."""
    K = torus7()
    chains = {"closed": [tuple(sorted((i, (i + 1) % 7))) for i in range(7)],
              "open": [(0, 1), (1, 2), (2, 3)],
              "triangles": [tuple(sorted((i, (i + 1) % 7, (i + 3) % 7))) for i in range(7)]}
    for _ in range(2):
        chains = {name: subdivided_chain(K, chain) for name, chain in chains.items()}
        K = barycentric_subdivide(K)[0]
        for chain in chains.values():
            k = len(chain[0]) - 1
            assert _boundary_support(chain, k) == sorted(former_boundary_support(K, chain, k))
        assert _boundary_support(chains["closed"], 1) == []
        assert len(_boundary_support(chains["open"], 1)) == 2
        assert len(_boundary_support(chains["triangles"], 2)) > 0
        assert not {key[0] for key in K._memo} & {"faces", "boundary"}
        assert _as_curve_subcomplex(K, chains["closed"]).n_simplices(1) == len(chains["closed"])
        with pytest.raises(InputError, match="cutting curve is not closed"):
            _as_curve_subcomplex(K, chains["open"])
        assert not {key[0] for key in K._memo} & {"faces", "boundary"}


def test_branch_preimage_audit_refuses_corrupted_covers(library):
    """A branch simplex with two preimages, and a deck transformation that
    fixes simplices off the branch preimage, are integrity violations."""
    K = library.complexes["sphere_octa_sub"]
    cover = branched_double_cover(K, curve(library, "sphere_octa_sub", "arcs_both"))
    _check_branch_preimage(cover, K)
    off = next(s for s in K.simplices(0) if s not in cover.branch.simplices(0))
    wide = SimplicialComplex.from_simplices(K.vertex_count, cover.branch.simplices(0) + (off,))
    total, proj, labels = cover.total, cover.projection, cover.sheet_labels
    with pytest.raises(ModelIntegrityError, match="has 2 preimages, expected 1") as err:
        _check_branch_preimage(CoverComplex(total, proj, cover.deck, labels, wide), K)
    assert err.value.report == {"simplex": off, "preimages": 2, "expected": 1}
    # the identity fixes all 48 total vertices, the branch preimage is 4 of them
    with pytest.raises(ModelIntegrityError, match="deck-fixed simplices differ") as err:
        fixing = CoverComplex(total, proj, identity_map(total), labels, cover.branch)
        _check_branch_preimage(fixing, K)
    assert err.value.report == {"dimension": 0, "deck_fixed": 48, "branch_preimage": 4,
                                "first_difference": (1,)}


def test_chi_law_on_many_covers(library):
    count = 0
    r = random.Random(9)
    for name in ("torus7", "rp2_6vertex", "klein_bottle", "torus_grid"):
        K = library.complexes[name]
        coh = cohomology(K, 1)
        for lam in range(min(4, 1 << coh.betti)):
            w = 0
            ll = lam
            while ll:
                i = (ll & -ll).bit_length() - 1
                ll &= ll - 1
                w ^= coh.cycles[i]
            cover = double_cover_unbranched(K, w)
            assert cover.total.euler_characteristic() == 2 * K.euler_characteristic()
            count += 1
    sub = library.complexes["sphere_octa_sub"]
    for mark in ("arc1", "arc2", "arcs_both"):
        cover = branched_double_cover(sub, curve(library, "sphere_octa_sub", mark))
        chi_branch = cover.branch.euler_characteristic()
        assert cover.total.euler_characteristic() == 2 * 2 - chi_branch
        count += 1
    assert count >= 15


# --- dividing test -------------------------------------------------------------


def test_torus_reflection_divides(library):
    K, tau, _ = involution_model(library, "torus_reflection")
    verdict = dividing_test(K, tau)
    assert verdict.dividing
    h0, h1 = verdict.halves
    assert len(h0) == len(h1) == 32


def test_torus_diagonal_does_not_divide(library):
    K, tau, _ = involution_model(library, "torus_diagonal")
    verdict = dividing_test(K, tau)
    assert not verdict.dividing and verdict.component_count == 1


def test_free_involution_not_dividing(library):
    K, tau, _ = involution_model(library, "torus_free")
    assert not dividing_test(K, tau).dividing


def test_genus2_dividing_cases(library):
    K, tau, _ = involution_model(library, "genus2_dividing")
    assert dividing_test(K, tau).dividing
    K, tau, _ = involution_model(library, "genus2_nondividing")
    assert not dividing_test(K, tau).dividing


def test_dividing_test_refuses_disconnected_surface():
    K = two_spheres()
    swap = SimplicialMap(K, K, [4, 5, 6, 7, 0, 1, 2, 3])
    with pytest.raises(InputError, match="not strongly connected"):
        dividing_test(K, swap)


def test_dividing_matches_class_for_nonempty_fixed_curves(library):
    for name in ("torus_reflection", "torus_diagonal", "genus2_dividing"):
        K, tau, _ = involution_model(library, name)
        data = fixed_subcomplex(K, tau)
        if data.subcomplex.dimension < 0:
            continue
        assert dividing_test(K, tau).dividing == (data.mid_class == 0), name


# (fixed circles l, rank of their classes in H_1) for each surface map of the library
CIRCLE_RANKS = {"torus_reflection": (2, 1), "genus2_dividing": (1, 0), "torus_diagonal": (1, 1),
                "torus_free": (0, 0), "klein_shift": (0, 0), "genus2_nondividing": (0, 0)}


def circle_rank(K, tau):
    """(l, rank): the fixed circles, and the rank of their classes in H_1(K; Z/2)."""
    h1 = homology(K, 1)
    coords = [h1.coordinates_of(c.cycle) for c in fixed_subcomplex(K, tau).components
              if c.dimension == 1]
    return len(coords), gf2_rank(Gf2Matrix(len(coords), h1.betti, coords))


def test_fixed_circles_relate_exactly_when_the_curve_divides(library):
    """Section 1.3: the classes of the l fixed circles have rank l - 1 when the
    curve divides and l otherwise.  Circles that sum to zero separate the
    surface, and each borders both halves, so the only possible relation is
    the sum of all l, which holds exactly for a dividing curve.  The rank is
    read through homology, apart from the dual-graph cut of ``dividing_test``,
    on every surface map of the library and a genus-3 M-double (4 circles)."""
    cases = {name: involution_model(library, name)[:2] for name, (src, _, _) in
             library.maps.items() if library.complexes[src].dimension == 2}
    assert set(cases) == set(CIRCLE_RANKS)
    for name, (K, tau) in [*cases.items(), ("m_double", m_double(3))]:
        circles, rank = circle_rank(K, tau)
        assert rank == circles - dividing_test(K, tau).dividing, name
        assert (circles, rank) == CIRCLE_RANKS.get(name, (4, 3)), name


# --- complex semi-orientations ---------------------------------------------------


def test_torus_semiorientation_halves_oppose(library):
    K, tau, _ = involution_model(library, "torus_reflection")
    semi = curve_complex_semiorientation(K, tau)
    assert semi.carrier.n_simplices(1) == 8
    assert is_coherent(semi)  # each fixed circle is coherently directed


def test_genus2_semiorientation(library):
    K, tau, _ = involution_model(library, "genus2_dividing")
    semi = curve_complex_semiorientation(K, tau)
    assert semi.carrier.n_simplices(1) == 4
    assert is_coherent(semi)


def test_semiorientation_canonical_representative(library):
    K, tau, _ = involution_model(library, "torus_reflection")
    semi = curve_complex_semiorientation(K, tau)
    flipped = SemiOrientation(semi.carrier, tuple(-s for s in semi.signs))
    assert flipped == semi  # canonicalization identifies the pair


def test_nondividing_semiorientation_rejected(library):
    K, tau, _ = involution_model(library, "torus_diagonal")
    with pytest.raises(InputError):
        curve_complex_semiorientation(K, tau)


# --- orientation covers -----------------------------------------------------------


def test_rp2_orientation_cover_via_cut(library):
    K = library.complexes["rp2_6vertex"]
    cover, semi = orientation_cover(K, curve(library, "rp2_6vertex", "generator"))
    assert betti_numbers(cover.total) == (1, 0, 1)
    pushed = pushforward_semiorientation(cover.deck, semi)
    assert pushed == tuple(-s for s in semi.signs)


def test_klein_orientation_cover_is_torus(library):
    K = library.complexes["klein_bottle"]
    cover, semi = orientation_cover(K, curve(library, "klein_bottle", "w1dual"))
    assert betti_numbers(cover.total) == (1, 2, 1)
    assert cover.total.euler_characteristic() == 0


def test_oriented_surface_empty_cut_two_copies(library):
    K = library.complexes["torus_grid"]
    cover, semi = orientation_cover(K, [])
    assert betti_numbers(cover.total) == (2, 4, 2)


def test_orientation_cover_rejects_extending_curve(library):
    K = library.complexes["torus_grid"]
    with pytest.raises(InputError, match="extends"):
        orientation_cover(K, curve(library, "torus_grid", "col0"))


def test_orientation_cover_rejects_a_non_orientable_complement(library):
    """The Klein bottle cut along nothing: the diagnosis refuses through
    ``complement_semiorientation``, with its message."""
    with pytest.raises(InputError, match="^complement of the curve is not orientable$"):
        orientation_cover(library.complexes["klein_bottle"], [])


def test_orientation_cover_refuses_a_deck_that_keeps_the_orientation(library, monkeypatch,
                                                                      capsys):
    """A pushforward that returns the signs without negating them reaches the
    deck-reversal guard: the exception carries the first top whose pushed
    sign is not reversed, and ``orient-cover`` exits 1 with that trace."""
    from conjtop import orientations
    from conjtop.cli import main

    K = library.complexes["klein_bottle"]
    Y = curve(library, "klein_bottle", "w1dual")
    orientation_cover(K, Y)  # the true pushforward passes
    monkeypatch.setattr(orientations, "pushforward_semiorientation", lambda deck, semi: semi.signs)
    with pytest.raises(ModelIntegrityError) as err:
        orientation_cover(K, Y)
    message = "deck transformation does not reverse the orientation"
    assert str(err.value) == message
    assert err.value.report == {"top": 0, "sign": 1, "pushed_sign": 1}
    line = f"model integrity violation: {message}\n"
    command = ["orient-cover", "klein_bottle", "--curve", "w1dual"]
    assert main(command) == 1 and capsys.readouterr().out == line
    assert main(command + ["--machine"]) == 1
    assert capsys.readouterr().out == line + "pushed_sign=1\nsign=1\ntop=0\n"


# --- extendibility ------------------------------------------------------------------


def test_rp2_generator_flips(library):
    K = library.complexes["rp2_6vertex"]
    Y = curve(library, "rp2_6vertex", "generator")
    semi = complement_semiorientation(K, Y)
    assert set(extendibility_check(K, Y, semi).values()) == {"flips"}


def test_torus_column_extends(library):
    K = library.complexes["torus_grid"]
    Y = curve(library, "torus_grid", "col0")
    semi = complement_semiorientation(K, Y)
    assert set(extendibility_check(K, Y, semi).values()) == {"extends"}


def test_klein_w1dual_flips(library):
    K = library.complexes["klein_bottle"]
    Y = curve(library, "klein_bottle", "w1dual")
    semi = complement_semiorientation(K, Y)
    assert set(extendibility_check(K, Y, semi).values()) == {"flips"}


# --- comparing orientations modulo curves --------------------------------------------


def test_compare_same_curve_agrees_everywhere(library):
    K = library.complexes["torus_grid"]
    Y = curve(library, "torus_grid", "col0") + curve(library, "torus_grid", "col2")
    s = flip_semiorientation(K, Y)
    out = compare_mod_curves(K, Y, Y, s, s)
    assert len(out["agree_part"]) == K.n_simplices(2)
    assert len(out["disagree_part"]) == 0


def test_compare_parallel_pairs_split_into_annuli(library):
    K = library.complexes["torus_grid"]
    Y1 = curve(library, "torus_grid", "col0") + curve(library, "torus_grid", "col2")
    Y2 = curve(library, "torus_grid", "col1") + curve(library, "torus_grid", "col3")
    s1 = flip_semiorientation(K, Y1)
    s2 = flip_semiorientation(K, Y2)
    out = compare_mod_curves(K, Y1, Y2, s1, s2)
    assert len(out["agree_part"]) == len(out["disagree_part"]) == 32
    assert out["agree_on_h"] != out["agree_on_complement"]
    # partition agrees with the bounding parts
    assert {out["agree_part"], out["disagree_part"]} == set(out["parts"])


def test_compare_partition_stable_under_swapping_inputs(library):
    K = library.complexes["torus_grid"]
    Y1 = curve(library, "torus_grid", "col0") + curve(library, "torus_grid", "col2")
    Y2 = curve(library, "torus_grid", "col1") + curve(library, "torus_grid", "col3")
    s1 = flip_semiorientation(K, Y1)
    s2 = flip_semiorientation(K, Y2)
    out_a = compare_mod_curves(K, Y1, Y2, s1, s2)
    out_b = compare_mod_curves(K, Y2, Y1, s2, s1)
    assert out_a["agree_part"] == out_b["agree_part"]


def test_compare_rejects_non_homologous(library):
    K = library.complexes["torus_grid"]
    Y1 = curve(library, "torus_grid", "col0") + curve(library, "torus_grid", "col2")
    s1 = flip_semiorientation(K, Y1)
    with pytest.raises(InputError, match="not homologous"):
        compare_mod_curves(K, Y1, curve(library, "torus_grid", "row0"), s1, s1)


def walk_without_signs(K, cut=frozenset(), flip=frozenset()):
    """The dual walk with its signs lost, as on a non-orientable surface."""
    return dual_walk(K, cut, flip)[0], None


def walk_with_a_flipped_top(K, cut=frozenset(), flip=frozenset()):
    """The dual walk with the sign negated on the half-1 top at the last cut face."""
    comp, signs = dual_walk(K, cut, flip)
    a, _, b, _, _ = K.dual_graph()[0][max(cut)]
    t = a if comp[a] == 1 else b
    return comp, signs[:t] + (-signs[t],) + signs[t + 1:]


ORIENT = ["orient", "torus_reflection"]
# guard: (corrupted walk, message, --machine trace after the message)
ORIENT_FAULTS = {
    "non_orientable": (walk_without_signs,
                       "surface is non-orientable: halves cannot induce orientations",
                       "fixed_edges=8\nhalf_sizes=(32,32)\n"),
    "same_direction": (walk_with_a_flipped_top,
                       "halves induce the same direction on fixed edge (10, 11)",
                       "edge=(10,11)\nglue=-1\nturn=1\n"),
}


@pytest.mark.parametrize("guard", sorted(ORIENT_FAULTS))
def test_orient_refuses_halves_from_a_corrupted_walk(guard, monkeypatch, capsys):
    """``curve_complex_semiorientation`` reads the signs of the walk cut along
    the fixed curve.  Without signs, or with one top of half 1 turned over,
    ``orient`` exits 1 with the one-line reason and, with --machine, the
    numbers the guard compared: the curve and half sizes, or the edge with
    the sign that glues it against the sign of the first edge."""
    from conjtop import orientations
    from conjtop.cli import main

    walk, message, trace = ORIENT_FAULTS[guard]
    monkeypatch.setattr(orientations, "dual_walk", walk)
    line = f"model integrity violation: {message}\n"
    assert main(ORIENT) == 1 and capsys.readouterr().out == line
    assert main(ORIENT + ["--machine"]) == 1 and capsys.readouterr().out == line + trace


COMPARE = ["compare", "torus_grid", "--y1", "col0,col2", "--y2", "col1,col3"]


def test_compare_refuses_a_chain_that_does_not_bound_the_curves(monkeypatch, capsys):
    """A solver answer with one triangle toggled bounds neither Y1 + Y2 nor a
    part on which the two semi-orientations agree throughout: the agreement
    check fires, and ``compare`` exits 1 with the part as its trace."""
    from conjtop import orientations
    from conjtop.cli import main

    def off_by_one_triangle(M, b):
        h_chain, kernel = gf2_solve(M, b)
        return h_chain ^ 1, kernel

    monkeypatch.setattr(orientations, "gf2_solve", off_by_one_triangle)
    line = "model integrity violation: agreement is not constant on a bounding part\n"
    assert main(COMPARE) == 1 and capsys.readouterr().out == line
    assert main(COMPARE + ["--machine"]) == 1
    first, trace, end = capsys.readouterr().out.split("\n")
    # the checked part: the 32 triangles of one annulus, and the triangle moved into it
    assert first + "\n" == line and end == "" and trace.startswith("part=(0,")
    assert len(trace.split(",")) == 33


def test_stiefel_whitney_refuses_a_cup_matrix_without_a_wu_class(library, monkeypatch):
    """The Wu class solves C lambda = diag C.  An asymmetric cup matrix whose
    diagonal lies outside its column space has no solution."""
    from conjtop import duality

    cup = Gf2Matrix.from_rows([[1, 0], [1, 0]])
    monkeypatch.setattr(duality, "duality_data",
                        lambda K, k: duality.DualityData(None, None, cup, None, None))
    with pytest.raises(ModelIntegrityError, match="no cocycle evaluates as the self-inter") as err:
        stiefel_whitney_cocycle(library.complexes["klein_bottle"])
    assert err.value.report == {"cup": cup}


# --- congruence --------------------------------------------------------------------------


def test_kharlamov_passing_values():
    for chi in (-16, -8, 0, 8, 16):
        trace = kharlamov_congruence(chi, "I_abs", True)
        assert trace.applicable and trace.passes
        assert trace.self_intersection_ambient == -chi
        assert trace.self_intersection_quotient == -2 * chi
        assert trace.divisible_by_16


def test_kharlamov_violations():
    for chi in (2, 4, 6):
        with pytest.raises(ModelIntegrityError):
            kharlamov_congruence(chi, "I_abs", True)


def test_kharlamov_not_applicable():
    assert not kharlamov_congruence(2, "I_rel", True).applicable
    assert not kharlamov_congruence(2, "II", True).applicable
    assert not kharlamov_congruence(2, "I_abs", False).applicable


def test_kharlamov_rejects_unknown_type():
    with pytest.raises(InputError):
        kharlamov_congruence(0, "I_weird", True)


def test_cut_and_glue_runs_in_dimension_four(library):
    """Cutting a 4-manifold along a bounding 3-chain: the combinatorial
    invariants (deck, fibers, chi law) are still asserted."""
    K = library.complexes["quadric"]
    sigma = K.simplices(4)[0]
    from itertools import combinations

    cut = [f for f in combinations(sigma, 4)]
    cover = branched_double_cover(K, cut)
    assert cover.branch is None  # the chain is closed
    assert cover.total.euler_characteristic() == 2 * K.euler_characteristic()
    assert len(cover.total.components()) == 2  # trivial class


# Fault injection for the five guards of ``coverings._validate_cover``: the
# construction assembles a correct cover, and ``corrupt`` changes one of its
# fields before the validator sees it.  rp2_6vertex has 6 vertices, so the
# unbranched cover's deck swaps v and v + 6.
RP2_COVER = ["cover", "rp2_6vertex", "--cocycle", "w1_cocycle"]
OCTA_COVER = ["cover", "sphere_octa_sub", "--cut", "arcs_both"]


def moved_deck(cover, images):
    """The cover with the deck images of some vertices replaced (vertex -> image)."""
    up = list(cover.deck.images)
    for v, u in images.items():
        up[v] = u
    deck = SimplicialMap._trusted(cover.total, cover.total, up)
    return CoverComplex(cover.total, cover.projection, deck, cover.sheet_labels, cover.branch)


def extra_branch(cover, simplices):
    """The cover with the given simplices as its branch locus."""
    base = cover.projection.target
    branch = SimplicialComplex.from_simplices(base.vertex_count, simplices)
    return CoverComplex(cover.total, cover.projection, cover.deck, cover.sheet_labels, branch)


def arcs_branch_plus_an_edge(cover):
    """The branch points of the arcs' cover, with an edge joining two of them."""
    points = [s for (s,) in cover.branch.simplices(0)]
    return extra_branch(cover, [(v,) for v in points] + [tuple(points[:2])])


COVER_FAULTS = {
    # guard: (command, corruption, message, --machine trace after the message)
    "absorbs": (RP2_COVER, lambda c: moved_deck(c, {0: 7, 1: 6}),
                "projection does not absorb the deck transformation",
                "base=0\nimage=7\nimage_base=1\nvertex=0\n"),
    "involution": (RP2_COVER, lambda c: moved_deck(c, {0: 0}),
                   "deck transformation is not an involution", "image=0\nsquare=0\nvertex=6\n"),
    "fibers": (RP2_COVER, lambda c: extra_branch(c, [(0,)]),
               "fiber over vertex 0 has 2 points, expected 1",
               "expected=1\npoints=2\nvertex=0\n"),
    "fixed": (RP2_COVER, lambda c: moved_deck(c, {0: 0, 6: 6}),
              "deck fixes vertex 0 iff it should lie over the branch locus",
              "deck_fixed=true\nover_branch=false\nvertex=0\n"),
    "euler": (OCTA_COVER, arcs_branch_plus_an_edge,
              "Euler characteristic law violated: 0 != 2*2 - 3",  # a torus over four points
              "chi_base=2\nchi_branch=3\nchi_total=0\n"),
}


def corrupt_covers(monkeypatch, corrupt):
    from conjtop import coverings

    build = coverings.CoverComplex
    monkeypatch.setattr(coverings, "CoverComplex", lambda *fields: corrupt(build(*fields)))


@pytest.mark.parametrize("guard", sorted(COVER_FAULTS))
def test_cover_validation_refuses_a_corrupted_cover(guard, library, monkeypatch):
    command, corrupt, message, _ = COVER_FAULTS[guard]
    K = library.complexes[command[1]]
    if command is RP2_COVER:
        w = chain_bits(K, library.cycles["rp2_6vertex"]["w1_cocycle"])
        double_cover_unbranched(K, w)  # the uncorrupted cover passes
        corrupt_covers(monkeypatch, corrupt)
        with pytest.raises(ModelIntegrityError) as err:
            double_cover_unbranched(K, w)
    else:
        arcs = curve(library, "sphere_octa_sub", "arcs_both")
        branched_double_cover(K, arcs)
        corrupt_covers(monkeypatch, corrupt)
        with pytest.raises(ModelIntegrityError) as err:
            branched_double_cover(K, arcs)
    assert str(err.value) == message


@pytest.mark.parametrize("guard", sorted(COVER_FAULTS))
def test_cover_command_reports_a_corrupted_cover(guard, monkeypatch, capsys):
    """Through ``cover``: exit 1, the one-line reason, and with --machine the
    guard's numeric trace after it."""
    from conjtop.cli import main

    command, corrupt, message, trace = COVER_FAULTS[guard]
    corrupt_covers(monkeypatch, corrupt)
    line = f"model integrity violation: {message}\n"
    assert main(command) == 1 and capsys.readouterr().out == line
    assert main(command + ["--machine"]) == 1 and capsys.readouterr().out == line + trace
