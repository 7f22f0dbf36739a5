import pytest

from conjtop.errors import InputError
from conjtop.gf2 import Gf2Matrix
from conjtop.models import model_library
from conjtop.qforms import QForm2, QForm4, evaluate_q2, evaluate_q4


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


def random_basis(n, rng):
    """A seeded invertible GF(2) matrix: 3n random row additions (none
    below dimension 2), then a row shuffle."""
    rows = [1 << i for i in range(n)]
    for _ in range(3 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        rows[i] ^= rows[j]
    rng.shuffle(rows)
    return Gf2Matrix(n, n, rows)


def rebased(q, A):
    """The same quadratic form in the basis given by the columns of A."""
    evaluate = evaluate_q4 if isinstance(q, QForm4) else evaluate_q2
    values = [evaluate(q, A.column(j)) for j in range(q.dimension)]
    return type(q)(A.transpose() * q.gram * A, values)


def direct_sum(q1, q2):
    """Orthogonal sum of two forms of one kind, q1 on the low coordinates."""
    n1, n = q1.dimension, q1.dimension + q2.dimension
    rows = q1.gram.rows + tuple(row << n1 for row in q2.gram.rows)
    return type(q1)(Gf2Matrix(n, n, rows), q1.values + q2.values)


def block_sum_z4(n, rng, radical=()):
    """A seeded Z4 form of dimension n and the Brown invariant of its blocks.

    Orthogonal blocks <1> and <3> (Brown +1 and -1) and even hyperbolic
    pairs (Brown 4 when q = 2 on both vectors, 0 otherwise), then one
    radical vector per entry of ``radical`` with that value, all written
    in a seeded random basis.  With a 2 in ``radical`` the Gauss sum
    vanishes and the returned invariant is that of the other blocks.
    """
    rows, values, invariant = [], [], 0
    m = n - len(radical)
    while len(rows) < m:
        p = len(rows)
        if p + 2 <= m and rng.random() < 0.5:
            a, b = rng.choice((0, 2)), rng.choice((0, 2))
            rows += [1 << (p + 1), 1 << p]
            values += [a, b]
            invariant += 4 if a == b == 2 else 0
        else:
            v = rng.choice((1, 3))
            rows.append(1 << p)
            values.append(v)
            invariant += 2 - v
    rows += [0] * len(radical)
    values += list(radical)
    q = QForm4(Gf2Matrix(n, n, rows), values)
    return rebased(q, random_basis(n, rng)), invariant % 8


def block_sum_z2(n, rng):
    """A seeded even Z2 form of even dimension n and its Arf invariant:
    hyperbolic pairs with random values, in a seeded random basis."""
    rows, values, invariant = [], [], 0
    for p in range(0, n, 2):
        a, b = rng.randrange(2), rng.randrange(2)
        rows += [1 << (p + 1), 1 << p]
        values += [a, b]
        invariant ^= a & b
    q = QForm2(Gf2Matrix(n, n, rows), values)
    return rebased(q, random_basis(n, rng)), invariant
