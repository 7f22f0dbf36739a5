"""Model-library integrity: every bundled object passes every applicable
theorem-level assertion (the audit suite the operations enforce)."""

from conjtop.complexes import pseudomanifold_check
from conjtop.duality import duality_audit
from conjtop.homology import betti_numbers, homology, total_betti
from conjtop.involutions import fixed_subcomplex, verify_fixed_class_is_characteristic
from conjtop.lattices import alpha_chi_cross_check, torsion_audit, transfer_audit
from conjtop.orientations import dividing_test, orient_surface
from conjtop.qforms import qform_from_loop_table
from conjtop.smith import harnack_audit
from conftest import involution_model

EXPECTED_BETTI = {
    "square_circle": (1, 1),
    "hexagon_circle": (1, 1),
    "sphere_tetra": (1, 0, 1),
    "sphere_octa": (1, 0, 1),
    "sphere_octa_sub": (1, 0, 1),
    "torus7": (1, 2, 1),
    "torus_grid": (1, 2, 1),
    "torus_grid_free": (1, 2, 1),
    "torus_product": (1, 2, 1),
    "rp2_6vertex": (1, 1, 1),
    "klein_bottle": (1, 2, 1),
    "quadric": (1, 0, 2, 0, 1),
    "genus2_dividing_surface": (1, 4, 1),
    "genus2_nondividing_surface": (1, 4, 1),
    "nonorientable_genus3": (1, 3, 1),
}

ORIENTABLE = {
    "square_circle": True,
    "hexagon_circle": True,
    "sphere_tetra": True,
    "sphere_octa": True,
    "sphere_octa_sub": True,
    "torus7": True,
    "torus_grid": True,
    "torus_grid_free": True,
    "torus_product": True,
    "rp2_6vertex": False,
    "klein_bottle": False,
    "genus2_dividing_surface": True,
    "genus2_nondividing_surface": True,
    "nonorientable_genus3": False,
}

INVOLUTIONS = (
    "square_reflection",
    "hexagon_antipodal",
    "torus_reflection",
    "torus_free",
    "torus_diagonal",
    "klein_shift",
    "quadric",
    "genus2_dividing",
    "genus2_nondividing",
)


def test_expected_betti_numbers(library):
    for name, expected in EXPECTED_BETTI.items():
        assert betti_numbers(library.complexes[name]) == expected, name


def test_euler_characteristic_vs_betti_everywhere(library):
    for name, K in library.complexes.items():
        betti = betti_numbers(K)
        assert K.euler_characteristic() == sum(
            (-1) ** k * b for k, b in enumerate(betti)
        ), name


def test_closed_models_are_pseudomanifolds(library):
    for name in EXPECTED_BETTI:
        pseudomanifold_check(library.complexes[name])


def test_duality_audit_all_closed_models(library):
    for name in EXPECTED_BETTI:
        assert duality_audit(library.complexes[name]), name


def test_orientability_flags(library):
    for name, expect in ORIENTABLE.items():
        K = library.complexes[name]
        if K.dimension != 2:
            continue
        assert (orient_surface(K) is not None) == expect, name


def test_involutions_are_involutions(library):
    for name in INVOLUTIONS:
        src, dst, tau = library.maps[name]
        assert src == dst
        assert tau.is_involution(), name


def test_harnack_never_violated(library):
    for name in INVOLUTIONS:
        K, tau, _ = involution_model(library, name)
        rep = harnack_audit(K, tau)
        assert rep.fixed_total_betti <= rep.space_total_betti, name
    rep = harnack_audit(library.chains["t4_chain"])
    assert rep.fixed_total_betti <= rep.space_total_betti


def test_fixed_class_is_characteristic_on_even_dim_models(library):
    for name in (
        "torus_reflection",
        "torus_free",
        "torus_diagonal",
        "klein_shift",
        "quadric",
        "genus2_dividing",
        "genus2_nondividing",
    ):
        K, tau, basis = involution_model(library, name)
        assert verify_fixed_class_is_characteristic(K, tau, basis_cycles=basis)[
            "holds"
        ], name
    assert verify_fixed_class_is_characteristic(library.chains["t4_chain"])["holds"]


def test_dividing_iff_trivial_class_on_curve_models(library):
    for name in ("torus_reflection", "torus_diagonal", "genus2_dividing"):
        K, tau, _ = involution_model(library, name)
        data = fixed_subcomplex(K, tau)
        assert data.subcomplex.dimension == 1
        assert dividing_test(K, tau).dividing == (data.mid_class == 0), name


def test_free_involutions_have_empty_fixed_sets(library):
    for name in ("hexagon_antipodal", "torus_free", "klein_shift", "genus2_nondividing"):
        K, tau, _ = involution_model(library, name)
        assert all(tau(v) != v for v in range(K.vertex_count)), name


def test_marked_cycles_are_cycles(library):
    for cname, marks in library.cycles.items():
        K = library.complexes[cname]
        for mark, simplices in marks.items():
            dims = {len(s) for s in simplices}
            assert len(dims) == 1, (cname, mark)
            (d,) = dims
            if d == 2 and mark != "w1_cocycle" and not mark.startswith("arc"):
                chain = 0
                for s in simplices:
                    chain |= 1 << K.index_of(tuple(s))
                assert K.boundary_matrix(1).mul_vec(chain) == 0, (cname, mark)


def test_marked_bases_span(library):
    from conftest import marked_basis

    basis = marked_basis(library, "quadric")
    assert basis is not None and len(basis) == 2
    h2 = homology(library.complexes["quadric"], 2)
    coords = [h2.coordinates_of(z) for z in basis]
    assert coords[0] != coords[1] and all(c != 0 for c in coords)


def test_lattice_fixtures_pass_audits(library):
    quad = library.lattices["quadric_lattice"]
    transfer_audit(quad)
    torsion_audit(quad)
    t4 = library.lattices["t4_lattice"]
    torsion_audit(t4)
    assert alpha_chi_cross_check(t4) is not None


def test_loop_tables_build(library):
    for name, table in library.loops.items():
        qform_from_loop_table(table)


def test_t4_chain_data_is_m_with_even_form(library):
    data = library.chains["t4_chain"]
    assert total_betti(data) == 16
    assert data.fixed_betti_total == 16
    assert data.fixed_class == 0


def test_library_builds_deterministically():
    from conjtop.models import model_library

    assert model_library() == model_library()


def test_rp2_w1_mark_is_the_stiefel_whitney_cocycle(library):
    """The ``w1_cocycle`` mark is a literal, so that building the group loads no
    cover code; it must stay the edges of the computed cocycle."""
    from conjtop.coverings import stiefel_whitney_cocycle
    from conjtop.models import rp2_6vertex

    rp2 = rp2_6vertex()
    w = stiefel_whitney_cocycle(rp2)
    edges = tuple(e for i, e in enumerate(rp2.simplices(1)) if (w >> i) & 1)
    assert library.cycles["rp2_6vertex"]["w1_cocycle"] == edges


def test_full_library_builds_each_shared_surface_once(monkeypatch):
    """The grid torus under the two torus groups and the three genus-2 groups,
    and the genus-3 surface under its own group and its orientation cover, are
    each built once per call."""
    from conjtop import models
    from conjtop.models import doubles, grids

    built = []

    def counted(name, build):
        def run(*args):
            built.append(name)
            return build(*args)
        return run

    # every coned grid (torus or Klein bottle) and every crosscap
    monkeypatch.setattr(grids, "_coned_grid", counted("grid", grids._coned_grid))
    monkeypatch.setattr(doubles, "mobius_band_small",
                        counted("crosscap", doubles.mobius_band_small))
    for _ in range(2):  # and built again by the next call
        built.clear()
        library = models.model_library()
        assert sorted(built) == ["crosscap", "grid", "grid"]  # the torus grid, the Klein grid
        assert library.complexes["torus_grid"] is library.complexes["torus_grid_free"]
        assert not hasattr(library, "_shared")  # the model holds only its objects
    built.clear()
    models.model_library("genus2_nondividing")
    assert sorted(built) == ["crosscap", "grid"]
