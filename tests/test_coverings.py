import random
from itertools import combinations, permutations

import pytest

from conjtop.complexes import (
    SimplicialComplex,
    SimplicialMap,
    barycentric_subdivide,
    dual_walk,
    fundamental_class,
    identity_map,
)
from conjtop.coverings import (
    SemiOrientation,
    _as_curve_subcomplex,
    _boundary_support,
    _check_branch_preimage,
    branched_double_cover,
    compare_mod_curves,
    complement_semiorientation,
    curve_complex_semiorientation,
    dividing_test,
    double_cover_unbranched,
    extendibility_check,
    flip_semiorientation,
    is_coherent,
    lift_involution,
    orientation_cover,
    pushforward_semiorientation,
    stiefel_whitney_cocycle,
)
from conjtop.errors import InputError, ModelIntegrityError
from conjtop.gf2 import gf2_solve
from conjtop.homology import betti_numbers, cohomology
from conjtop.involutions import fixed_subcomplex
from conjtop.lattices import kharlamov_congruence
from conjtop.models import coned_grid_klein, coned_grid_torus, torus7
from conftest import (
    chain_bits,
    former_boundary_support,
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
        assert not K._faces_cache and not K._boundary_cache
        assert _as_curve_subcomplex(K, chains["closed"]).n_simplices(1) == len(chains["closed"])
        with pytest.raises(InputError, match="cutting curve is not closed"):
            _as_curve_subcomplex(K, chains["open"])
        assert not K._faces_cache and not K._boundary_cache


def test_branch_preimage_audit_refuses_corrupted_covers(library):
    """A branch simplex with two preimages, and a deck transformation that
    fixes simplices off the branch preimage, are integrity violations."""
    K = library.complexes["sphere_octa_sub"]
    cover = branched_double_cover(K, curve(library, "sphere_octa_sub", "arcs_both"))
    _check_branch_preimage(cover, K)
    off = next(s for s in K.simplices(0) if s not in cover.branch.simplices(0))
    wide = SimplicialComplex.from_simplices(K.vertex_count, cover.branch.simplices(0) + (off,))
    with pytest.raises(ModelIntegrityError, match="has 2 preimages, expected 1"):
        _check_branch_preimage(cover._replace(branch=wide), K)
    with pytest.raises(ModelIntegrityError, match="deck-fixed simplices differ"):
        _check_branch_preimage(cover._replace(deck=identity_map(cover.total)), K)


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


# --- lifted involutions ----------------------------------------------------------------


def test_lift_on_two_copies_cover(library):
    K, tau, _ = involution_model(library, "torus_reflection")
    cover = double_cover_unbranched(K, 0)
    c_plus, c_minus = lift_involution(cover, tau)
    nv = K.vertex_count
    assert all(c_plus(v) < nv for v in range(nv))  # tau x id
    assert all(c_minus(v) >= nv for v in range(nv))  # tau x swap
    proj = cover.projection
    assert proj.compose(c_plus).images == tau.compose(proj).images
    assert proj.compose(c_minus).images == tau.compose(proj).images


def test_lift_identity_on_orientation_cover(library):
    K = library.complexes["rp2_6vertex"]
    cover = double_cover_unbranched(K, stiefel_whitney_cocycle(K))
    c_plus, c_minus = lift_involution(cover, identity_map(K))
    assert c_plus.images == tuple(range(cover.total.vertex_count))
    assert c_minus.images == cover.deck.images


def test_lift_klein_shift_through_torus_cover(library):
    K = library.complexes["klein_bottle"]
    _, _, shift = library.maps["klein_shift"]
    cover, _ = orientation_cover(K, curve(library, "klein_bottle", "w1dual"))
    c_plus, c_minus = lift_involution(cover, shift)
    proj = cover.projection
    assert proj.compose(c_plus).images == shift.compose(proj).images
    assert c_minus.images == cover.deck.compose(c_plus).images


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
