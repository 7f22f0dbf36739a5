"""Generated real curves: the paper's theorems on M-doubles of every genus 1..6.

Each draw of ``conftest.m_double_draws`` is a genus-g M-double (a grid disk
with g holes, doubled along its g + 1 boundary circles, the mirror fixing
them), renumbered and in some draws subdivided once.  The theorems are read
from the computed genus and fixed set, not from the generator's g:

- Section 1.3: the l fixed circles have classes of rank l - 1 in H_1(X; Z/2)
  exactly when the curve divides, read through homology, apart from the
  dual-graph cut of ``dividing_test``;
- Harnack: l <= g + 1, with equality exactly for an M-curve;
- Klein: a dividing curve has l = g + 1 (mod 2);
- the pair (X, Fix) has relative b_1 = 2g - 1 + [dividing] when l >= 1;
- a dividing curve has a coherent complex semi-orientation.

Every verdict must be the same on the renumbered or subdivided draw.  The
draws all divide, so the library's curves add the other side of the verdict
(``torus_diagonal``) and its free involutions, whose pairs (X, Fix) have the
absolute homology of X.
"""

from hypothesis import given, settings

from conjtop.complexes import barycentric_subdivide
from conjtop.gf2 import Gf2Matrix, gf2_rank
from conjtop.homology import homology
from conjtop.involutions import fixed_subcomplex
from conjtop.orientations import curve_complex_semiorientation, dividing_test, is_coherent
from conjtop.smith import harnack_audit

from conftest import m_double_draws


def curve_facts(K, tau):
    """(genus, fixed circles l, rank of their classes, dividing, M-curve,
    relative b_1 of (X, Fix), coherent semi-orientation) of a real curve."""
    fixed = fixed_subcomplex(K, tau)
    h1 = homology(K, 1)
    circles = [h1.coordinates_of(c.cycle) for c in fixed.components if c.dimension == 1]
    dividing = dividing_test(K, tau).dividing
    return (h1.betti // 2, len(circles), gf2_rank(Gf2Matrix(len(circles), h1.betti, circles)),
            dividing, harnack_audit(K, tau).is_m, homology(K, 1, rel=fixed.subcomplex).betti,
            dividing and is_coherent(curve_complex_semiorientation(K, tau)))


@settings(max_examples=16, deadline=None)
@given(m_double_draws())
def test_generated_m_doubles_obey_the_real_curve_theorems(draw):
    g, base, moved = draw
    facts = curve_facts(*base)
    genus, l, rank, dividing, is_m, rel_b1, coherent = facts
    assert (genus, l, dividing) == (g, g + 1, True)  # the generator's M-double
    assert rank == l - dividing  # Section 1.3
    assert l <= genus + 1 and is_m == (l == genus + 1)  # Harnack
    assert not dividing or l % 2 == (genus + 1) % 2  # Klein
    assert rel_b1 == 2 * genus - 1 + dividing == 2 * genus
    assert coherent
    assert curve_facts(*moved) == facts


def test_library_curves_obey_the_real_curve_theorems_on_both_sides_of_the_verdict(library):
    """Relative b_1 is 2g - 1 + [dividing]: 2, 1 and 4 for these three curves,
    of which only torus_diagonal does not divide."""
    for name, rel_b1 in (("torus_reflection", 2), ("torus_diagonal", 1), ("genus2_dividing", 4)):
        src, _, tau = library.maps[name]
        K = library.complexes[src]
        facts = curve_facts(K, tau)
        genus, l, rank, dividing, is_m, got, coherent = facts
        assert got == 2 * genus - 1 + dividing == rel_b1, name
        assert dividing == (name != "torus_diagonal") == coherent, name
        assert rank == l - dividing, name  # Section 1.3
        assert l <= genus + 1 and is_m == (l == genus + 1), name  # Harnack
        assert not dividing or l % 2 == (genus + 1) % 2, name  # Klein
        assert curve_facts(*barycentric_subdivide(K, tau)) == facts, name


def test_free_involutions_leave_relative_homology_absolute(library):
    for name in ("torus_free", "klein_shift", "genus2_nondividing"):
        src, _, tau = library.maps[name]
        K = library.complexes[src]
        F = fixed_subcomplex(K, tau).subcomplex
        assert F.n_simplices(0) == 0, name
        for k in range(K.dimension + 1):
            relative, absolute = homology(K, k, rel=F), homology(K, k)
            assert (relative.n_chains, relative.cycles) == (absolute.n_chains, absolute.cycles)
