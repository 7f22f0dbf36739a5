"""Regularity as the edge rule, and the quotient built on it, against the
per-simplex scan and the former quotient kept in ``conftest``.

Let an involution map a simplex onto itself without fixing it pointwise.  It
then swaps two vertices v, tau(v) of that simplex, and their edge is a face
that comes earlier in ``all_simplices`` order and offends as well.  So the
first offender of the scan is the lowest edge (v, tau(v)).  For the same
reason a regular involution puts no vertex orbit twice in one simplex, the
refusal the former quotient had for it.  The draws are vertex involutions of
full simplex skeleta, subdivided once or not, every library map and its
subdivision, and the octahedron's antipodal map.  They reach quotients,
collisions and irregular maps.
"""

import functools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from conjtop import models
from conjtop.complexes import SimplicialComplex, SimplicialMap, barycentric_subdivide
from conjtop.errors import InputError
from conjtop.involutions import is_regular, regularity_offender
from conjtop.smith import quotient_by_involution

from conftest import (
    former_quotient_by_involution, per_simplex_regularity_offender, skeleton_involution,
)


def skeleton_case(m, d, swaps, seed, subdivide):
    """A vertex involution of the d-skeleton of a simplex, d < m, subdivided once or not."""
    K, tau = skeleton_involution(m, min(d, m - 1), swaps, seed)
    return barycentric_subdivide(K, tau) if subdivide else (K, tau)


def outcome(quotient, K, tau):
    """(vertex count, simplices, projection images) of the quotient, or the
    InputError text of its refusal."""
    try:
        Q, proj = quotient(K, tau)
    except InputError as exc:
        return str(exc)
    return Q.vertex_count, Q._by_dim, proj.images


def check_against_former(K, tau):
    """The same offender, then the same quotient and projection or the same
    refusal; returns "irregular", "collision" or "quotient"."""
    offender = per_simplex_regularity_offender(K, tau)
    assert regularity_offender(K, tau) == offender
    assert is_regular(K, tau) == (offender is None)
    got = outcome(quotient_by_involution, K, tau)
    assert got == outcome(former_quotient_by_involution, K, tau)
    if offender is not None:
        assert got == f"involution is not regular: simplex {offender} maps onto itself"
        return "irregular"
    if isinstance(got, str):
        assert got.startswith("quotient collision: simplices ")
        return "collision"
    return "quotient"


@functools.cache
def library_cases():
    """Every library map and its subdivision, and the octahedron's antipodal map."""
    library, cases = models.model_library(), []
    for name in sorted(library.maps):
        src, _, tau = library.maps[name]
        K = library.complexes[src]
        cases += [(K, tau), barycentric_subdivide(K, tau)]
    octa = models.sphere_octa()
    return cases + [(octa, SimplicialMap(octa, octa, [5, 4, 3, 2, 1, 0]))]


def test_library_maps_match_the_former_quotient():
    kinds = [check_against_former(K, tau) for K, tau in library_cases()]
    assert kinds[-1] == "collision" and kinds.count("quotient") >= 9


def test_seeded_skeleta_reach_every_outcome():
    rng = random.Random(30)
    kinds = set()
    for _ in range(40):
        m = rng.randint(3, 8)
        K, tau = skeleton_case(m, rng.randint(1, 3), rng.randint(0, m // 2),
                               rng.getrandbits(32), rng.random() < 0.5)
        kinds.add(check_against_former(K, tau))
    assert kinds == {"irregular", "collision", "quotient"}


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 8), st.integers(1, 3), st.integers(0, 4), st.integers(0, 2**32 - 1),
       st.booleans())
def test_skeleton_involutions_match_the_former_quotient(m, d, swaps, seed, subdivide):
    check_against_former(*skeleton_case(m, d, swaps, seed, subdivide))


def test_a_three_cycle_is_not_a_regular_involution():
    """The edge rule needs an involution: the 3-cycle of a triangle maps the
    triangle onto itself, and the edge (0, 1) that the rule names onto (1, 2).
    On three points the rule finds no edge, and only the involution test refuses."""
    tri = SimplicialComplex.from_simplices(3, [(0, 1, 2)])
    points = SimplicialComplex.from_simplices(3, [(0,), (1,), (2,)])
    cycle = SimplicialMap(tri, tri, [1, 2, 0])
    assert per_simplex_regularity_offender(tri, cycle) == (0, 1, 2)
    assert regularity_offender(tri, cycle) == (0, 1) != cycle.map_simplex((0, 1))
    assert not is_regular(tri, cycle)
    cycle = SimplicialMap(points, points, [1, 2, 0])
    assert regularity_offender(points, cycle) is None and not is_regular(points, cycle)
