"""What a complex or an involution remembers about itself.

Complexes and maps are immutable, so each derived fact is computed once and
kept in the object's ``_memo``: per map the fixed set, the orbit chains and
the split along the fixed curve, per complex the duality package of each
degree.  Each fact is built once however many analyses read it, a refusal
is never remembered, and a fact read through the memo equals the one a
freshly rebuilt complex and map compute, on every library map and on one
barycentric subdivision of it (the subdivided quadric forgets the analyses'
facts instead of being rebuilt).  The memo also holds a complex's face
indices, boundaries, cofaces, reductions and homology bases, and clearing it
returns a complex or chain data to the state of a freshly built one.
"""

import pytest

from conjtop import duality, orientations, smith
from conjtop.chains import ChainComplexData
from conjtop.complexes import SimplicialComplex, SimplicialMap, barycentric_subdivide
from conjtop.duality import duality_data
from conjtop.errors import InputError
from conjtop.homology import betti_numbers, cohomology, homology
from conjtop.involutions import (
    classify_type,
    fixed_subcomplex,
    involution_form,
    is_regular,
    verify_fixed_class_is_characteristic,
)
from conjtop.models import torus_with_hole
from conjtop.orientations import (
    _split_along_fixed_curve,
    curve_complex_semiorientation,
    dividing_test,
)
from conjtop.smith import harnack_audit, orbit_chain_boundaries, smith_kernel_bound

from conftest import identity_map


def rebuilt(K, tau):
    """The same complex and map, built again from scratch: nothing remembered."""
    fresh = SimplicialComplex.from_simplices(K.vertex_count, K.all_simplices())
    return fresh, SimplicialMap(fresh, fresh, tau.images)


def forbid(monkeypatch, module, *names):
    """Make each named builder of ``module`` raise when it is called again."""
    def recomputed(*args):
        raise AssertionError("remembered fact recomputed")

    for name in names:
        monkeypatch.setattr(module, name, recomputed)


def refusal(call):
    with pytest.raises(InputError) as err:
        call()
    return str(err.value)


# --- each fact is built once ----------------------------------------------------------


def test_orbit_chains_are_built_once_per_map(library, monkeypatch):
    K, tau = rebuilt(library.complexes["quadric"], library.maps["quadric"][2])
    chains = orbit_chain_boundaries(K, tau)
    assert isinstance(chains[0], tuple) and isinstance(chains[1], tuple)
    forbid(monkeypatch, smith, "_orbit_chains")
    assert smith_kernel_bound(K, tau).asserted
    assert orbit_chain_boundaries(K, tau) is chains


def test_duality_package_is_built_once_per_complex_and_degree(library, monkeypatch):
    K, tau = rebuilt(library.complexes["quadric"], library.maps["quadric"][2])
    dd = duality_data(K, 2)
    forbid(monkeypatch, duality, "_cup_matrix", "fundamental_class")
    assert verify_fixed_class_is_characteristic(K, tau)["holds"]
    assert involution_form(K, tau).dimension == dd.hom.betti
    assert duality_data(K, 2) is dd
    with pytest.raises(AssertionError, match="recomputed"):  # another degree is its own fact
        duality_data(K, 1)


def test_split_along_the_fixed_curve_is_built_once_per_map(library, monkeypatch):
    K, tau = rebuilt(library.complexes["torus_grid"], library.maps["torus_reflection"][2])
    verdict = dividing_test(K, tau)
    assert verdict.dividing
    forbid(monkeypatch, orientations, "dual_walk")
    semi = curve_complex_semiorientation(K, tau)
    assert semi.carrier is _split_along_fixed_curve(K, tau)[1]
    assert dividing_test(K, tau) is verdict


# --- refusals are not remembered ------------------------------------------------------


def test_refusals_are_asked_again_on_every_call(library):
    circle = SimplicialComplex.from_simplices(3, [(0, 1), (0, 2), (1, 2)])
    swap = SimplicialMap(circle, circle, [1, 0, 2])  # maps the edge (0, 1) onto itself
    texts = {refusal(lambda: orbit_chain_boundaries(circle, swap)) for _ in range(2)}
    assert texts == {"involution is not regular: simplex (0, 1) maps onto itself"}
    assert "orbit" not in swap._memo

    K, tau = rebuilt(library.complexes["torus_product"], library.maps["torus_diagonal"][2])
    texts = {refusal(lambda: curve_complex_semiorientation(K, tau)) for _ in range(2)}
    assert texts == {"complex semi-orientation needs a dividing involution"}
    assert not dividing_test(K, tau).dividing  # the split itself is a fact, and remembered

    flat = identity_map(K)  # regular, but fixes the whole surface
    texts = {refusal(lambda: dividing_test(K, flat)) for _ in range(2)}
    assert texts == {"fixed set must be a curve (all components one-dimensional)"}
    assert "split" not in flat._memo

    H = torus_with_hole()[0]
    texts = {refusal(lambda: duality_data(H, 1)) for _ in range(2)}
    assert texts == {"face (0, 1) has 1 top cofaces, expected 2"}
    # the face indices and cofaces the check read stay; no verdict was stored
    assert "closed" not in H._memo and ("duality", 1) not in H._memo


# --- the memo against freshly rebuilt objects ----------------------------------------


def analyses(K, tau):
    """The verdicts read from the remembered facts; asked first, they fill the memo."""
    n = K.dimension
    out = {"harnack": harnack_audit(K, tau)}
    if n % 2 == 0:
        out["type"] = classify_type(K, tau)
        out["characteristic"] = verify_fixed_class_is_characteristic(K, tau)
    if n == 2:
        out["dividing"] = dividing_test(K, tau).dividing
    if n == 4:
        smith = smith_kernel_bound(K, tau)
        out["smith"] = (smith, smith.quotient_table)  # reports compare without their table
        out["betti"] = betti_numbers(K)
    return out


def remembered(K, tau):
    """Each remembered fact, read through its own entry point: the fixed set, the
    orbit chains, the split along a fixed curve and the duality packages."""
    n = K.dimension
    out = {"fixed": fixed_subcomplex(K, tau)}
    if is_regular(K, tau):
        out["orbit"] = orbit_chain_boundaries(K, tau)
    for k in range(n + 1) if n <= 2 else (n // 2,):
        dd = duality_data(K, k)
        out[k] = (dd.hom.cycles, dd.coh.cycles, dd.cup, dd.cup_inv, dd.eval_matrix)
    if n == 2:
        out["split"] = _split_along_fixed_curve(K, tau)
    return out


def kept(verdicts):
    """The verdicts a subdivision keeps: class coordinates follow the complex's basis."""
    if "type" not in verdicts:
        return verdicts
    return verdicts | {"type": verdicts["type"].kind,
                       "characteristic": verdicts["characteristic"]["holds"]}


# complexes up to this size are rebuilt from scratch; the subdivided quadric (73 012
# simplices) only forgets the analyses' facts, which keeps this test within its time budget
REBUILT_UP_TO = 10_000
# what a complex's memo holds for homology: face indices, boundaries, cofaces, reductions, bases
HOMOLOGY_ENTRIES = {"faces", "boundary", "columns", "cofaces", "reduction", "homology",
                    "cohomology"}


def facts(K):
    """The keys of K's memo that the analyses stored: the dual graph, the
    pseudomanifold pass and the duality packages."""
    return [key for key in K._memo if not (isinstance(key, tuple) and key[0] in HOMOLOGY_ENTRIES)]


def test_remembered_facts_equal_those_of_fresh_objects(library):
    """Every library map and one barycentric subdivision of it: facts that the
    analyses left in the memo equal those computed on a fresh complex and map,
    and no verdict changes under the subdivision (for the quadric, neither do the
    Smith kernel bound and the Betti numbers)."""
    for name, (src, _, tau) in sorted(library.maps.items()):
        verdicts = []
        for K, tau in (rebuilt(library.complexes[src], tau),
                       barycentric_subdivide(*rebuilt(library.complexes[src], tau))):
            verdicts.append(analyses(K, tau))
            first = remembered(K, tau)  # remembers the facts no analysis asked for
            memo = remembered(K, tau)
            assert memo["fixed"].subcomplex is first["fixed"].subcomplex
            assert memo.get("split") is first.get("split"), name
            if sum(map(K.n_simplices, range(K.dimension + 1))) <= REBUILT_UP_TO:
                fresh, fresh_tau = rebuilt(K, tau)
                assert not fresh._memo
            else:  # forgets what the analyses remembered, and keeps its homology entries
                for key in facts(K):
                    del K._memo[key]
                fresh, fresh_tau = K, SimplicialMap(K, K, tau.images)
            assert fresh == K and not facts(fresh)  # the map's check leaves its image index only
            assert sorted(fresh_tau._memo) == list(range(K.dimension + 1))
            assert remembered(fresh, fresh_tau) == memo, name
            assert analyses(fresh, fresh_tau) == verdicts[-1], name
        assert kept(verdicts[0]) == kept(verdicts[1]), name
        if name == "quadric":
            assert verdicts[0]["betti"] == (1, 0, 2, 0, 1) and verdicts[0]["smith"][0].asserted


# --- clearing the memo ----------------------------------------------------------------


def state(obj):
    """Every slot of a carrier but its memo, by name, or every slot of a homology basis."""
    names = (name for cls in type(obj).__mro__ for name in getattr(cls, "__slots__", ()))
    return {name: getattr(obj, name) for name in names if name != "_memo"}


def rebuilt_chains(C):
    return ChainComplexData(*(getattr(C, field) for field in C._FIELDS))


def test_clearing_the_memo_returns_a_carrier_to_its_fresh_state(library):
    """A complex and chain data keep all they derive in ``_memo``: after every
    kind of lookup their other slots equal those of a freshly built equal
    object, and once the memo is cleared the same bases are computed again."""
    K = library.complexes["torus7"]
    K = SimplicialComplex.from_simplices(K.vertex_count, K.all_simplices())
    n = K.dimension

    def derived():
        hom = [state(homology(K, k)) for k in range(n + 1)]
        coh = [state(cohomology(K, k)) for k in range(n + 1)]
        packages = [duality_data(K, k) for k in range(n + 1)]
        return (betti_numbers(K), hom, coh,
                [(state(p.hom), state(p.coh), p.cup, p.cup_inv, p.eval_matrix) for p in packages],
                K.dual_graph(), [K.cofaces(k) for k in range(n)],
                [K.boundary_matrix(k) for k in range(n + 1)])

    before = derived()
    assert state(K) == state(SimplicialComplex.from_simplices(K.vertex_count, K.all_simplices()))
    K._memo.clear()
    assert derived() == before

    C = rebuilt_chains(library.chains["t4_chain"])

    def bases():
        return [(state(homology(C, k)), state(cohomology(C, k))) for k in range(C.dimension + 1)]

    before = bases()
    assert state(C) == state(rebuilt_chains(C))
    C._memo.clear()
    assert bases() == before
