"""Small classical complexes, the six-vertex RP^2 and the subdivided octahedron."""

from itertools import combinations

from ..complexes import SimplicialComplex, SimplicialMap, barycentric_subdivide
from . import _add


def square_circle() -> SimplicialComplex:
    return SimplicialComplex.from_simplices(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


def hexagon_circle() -> SimplicialComplex:
    edges = [tuple(sorted((i, (i + 1) % 6))) for i in range(6)]
    return SimplicialComplex.from_simplices(6, edges)


def sphere_tetra() -> SimplicialComplex:
    """Boundary of the 3-simplex."""
    return SimplicialComplex.from_simplices(4, combinations(range(4), 3))


def sphere_octa() -> SimplicialComplex:
    """Octahedron with antipodal vertex pairs (0,5), (1,4), (2,3)."""
    faces = [tuple(sorted((a, b, c))) for a in (0, 5) for b in (1, 4) for c in (2, 3)]
    return SimplicialComplex.from_simplices(6, faces)


def torus7() -> SimplicialComplex:
    """The 7-vertex torus with cyclic symmetry."""
    faces = []
    for i in range(7):
        faces.append(tuple(sorted((i, (i + 1) % 7, (i + 3) % 7))))
        faces.append(tuple(sorted((i, (i + 2) % 7, (i + 3) % 7))))
    return SimplicialComplex.from_simplices(7, faces)


def rp2_6vertex() -> SimplicialComplex:
    """Six-vertex projective plane (antipodal icosahedron)."""
    faces = [
        (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
        (1, 2, 4), (2, 3, 5), (1, 3, 4), (2, 4, 5), (1, 3, 5),
    ]
    return SimplicialComplex.from_simplices(6, faces)


RP2_GENERATOR_CYCLE = ((1, 2), (2, 3), (1, 3))


def octa_subdivided_with_arcs():
    """Barycentric octahedron plus two disjoint arcs between antipodes.

    Arc endpoints are original vertices, which are pairwise non-adjacent
    after subdivision, so every branch locus built from these arcs is
    full.
    """
    octa = sphere_octa()
    sub, _ = barycentric_subdivide(octa)
    order = sorted(octa.all_simplices(), key=lambda s: (len(s), s))
    rank = {s: i for i, s in enumerate(order)}

    def arc(v0, v1, v2):
        # v0 -- barycenter{v0,v1} -- v1 -- barycenter{v1,v2} -- v2
        stations = [rank[(v0,)], rank[tuple(sorted((v0, v1)))], rank[(v1,)],
                    rank[tuple(sorted((v1, v2)))], rank[(v2,)]]
        return tuple(tuple(sorted((a, b))) for a, b in zip(stations, stations[1:]))

    arc1 = arc(0, 1, 5)
    arc2 = arc(2, 4, 3)
    return sub, arc1, arc2


def _small_complexes(model):
    sq, hexa = square_circle(), hexagon_circle()
    _add(model, "square_circle", sq,
         involution=("square_reflection", SimplicialMap(sq, sq, [0, 3, 2, 1])))
    antipodal = SimplicialMap(hexa, hexa, [(v + 3) % 6 for v in range(6)])
    _add(model, "hexagon_circle", hexa, involution=("hexagon_antipodal", antipodal))
    _add(model, "sphere_tetra", sphere_tetra())
    _add(model, "sphere_octa", sphere_octa())
    _add(model, "torus7", torus7())


def _rp2(model):
    # w1: the edges of coverings.stiefel_whitney_cocycle(rp2_6vertex()), as a literal (a test
    # recomputes it) so that building the group does not load coverings
    w1 = ((1, 3), (1, 4), (2, 4), (2, 5), (3, 5))
    _add(model, "rp2_6vertex", rp2_6vertex(),
         {"generator": RP2_GENERATOR_CYCLE, "w1_cocycle": w1})


def _sphere_octa_sub(model):
    sub, arc1, arc2 = octa_subdivided_with_arcs()
    _add(model, "sphere_octa_sub", sub, {"arc1": arc1, "arc2": arc2, "arcs_both": arc1 + arc2})
