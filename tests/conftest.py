import pytest

from conjtop.errors import InputError
from conjtop.models import model_library


@pytest.fixture(scope="session")
def library():
    return model_library()


def chain_bits(K, simplices):
    bits = 0
    for s in simplices:
        bits |= 1 << K.index_of(tuple(s))
    return bits


def marked_basis(library, name):
    K = library.complexes[name]
    marks = library.cycles.get(name, {})
    basis = []
    i = 0
    while f"basis{i}" in marks:
        basis.append(chain_bits(K, marks[f"basis{i}"]))
        i += 1
    return basis or None


def involution_model(library, name):
    src, _, tau = library.maps[name]
    return library.complexes[src], tau, marked_basis(library, src)


def oriented_boundary_edges(simplex, sign):
    """Directed boundary edges of an oriented triangle.

    With positive sign the cycle is v0 -> v1 -> v2 -> v0 on the sorted
    vertices; negative sign reverses it.  This and
    :func:`induced_edge_direction` spell the orientation rule out as edge
    directions, independently of the incidence signs ``conjtop`` computes
    with; the tests use them as the oracle.
    """
    a, b, c = simplex
    if sign > 0:
        return ((a, b), (b, c), (c, a))
    return ((b, a), (c, b), (a, c))


def induced_edge_direction(simplex, sign, edge):
    """Direction a triangle's orientation induces on one of its edges."""
    for (x, y) in oriented_boundary_edges(simplex, sign):
        if (min(x, y), max(x, y)) == edge:
            return (x, y)
    raise InputError(f"edge {edge} is not a face of {simplex}")
