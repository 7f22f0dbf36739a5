"""Parametric model families for the benchmark.

Every family member is built from the package's public constructors
(``SimplicialComplex``, ``product_complex``, ``factor_swap``,
``coned_grid_torus``, ``double_along_boundary``, ``barycentric_subdivide``)
and stored as generators: a vertex count, the facet list, and optionally an
involution as a vertex image list plus marked chains.  Operations rebuild
the carrier from these generators, so no homology cache survives from one
operation to the next.

The workload seed chooses vertex relabellings, hole layouts, cohomology
classes, form bases and unimodular transforms.  It never chooses a size, so
every seed asks for the same amount of work.

Two package generators cannot be trusted at scale, and a later change
should fix both:

* ``models.coned_grid_klein(n)`` raises for every n other than 4: its
  free shift is hard-coded to +2, which is an involution only for n = 4.
  The Klein family below has its own wrap and no shift.
* The "interior simplex on the boundary" guard in
  ``models.double_along_boundary`` compares the set of boundary-spanned
  simplices with itself, so it never fires.  Holes one square apart give
  an edge with four cofaces that nothing catches until ``dividing_test``
  runs.  The hole layouts below keep holes three squares apart, and
  :func:`validate` rejects any member that is not a closed pseudomanifold.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from conjtop.gf2 import Gf2Matrix
from conjtop.intmat import IntMatrix
from conjtop.lattices import QuotientTransferData, build_lattice
from conjtop.qforms import LoopData, LoopTable, QForm2, QForm4, evaluate_q2, evaluate_q4
from conjtop.complexes import (
    SimplicialComplex,
    SimplicialMap,
    barycentric_subdivide,
    is_regular,
    pseudomanifold_check,
)
from conjtop.models import (
    coned_grid_torus,
    double_along_boundary,
    factor_swap,
    product_complex,
    sphere_octa,
    sphere_tetra,
)


@dataclass
class Member:
    """One family member, stored as generators plus its expected answers."""

    name: str
    vertex_count: int
    facets: tuple
    involution: tuple | None = None
    marks: dict = field(default_factory=dict)
    expect: dict = field(default_factory=dict)

    def build(self) -> SimplicialComplex:
        return SimplicialComplex.from_simplices(self.vertex_count, self.facets)

    def involution_on(self, K: SimplicialComplex) -> SimplicialMap:
        return SimplicialMap(K, K, self.involution)


def _sorted_simplex(vertices):
    return tuple(sorted(vertices))


def from_complex(name, K, involution=None, marks=None, expect=None) -> Member:
    """Generators of a pure complex: its top-dimensional simplices."""
    return Member(
        name,
        K.vertex_count,
        K.simplices(K.dimension),
        tuple(involution.images) if involution is not None else None,
        {k: tuple(v) for k, v in (marks or {}).items()},
        dict(expect or {}),
    )


def relabel(member: Member, rng) -> Member:
    """The same member under a seeded permutation of its vertices."""
    perm = list(range(member.vertex_count))
    rng.shuffle(perm)

    def image(simplices):
        return tuple(sorted(_sorted_simplex(perm[v] for v in s) for s in simplices))

    involution = None
    if member.involution is not None:
        images = [0] * member.vertex_count
        for v, w in enumerate(member.involution):
            images[perm[v]] = perm[w]
        involution = tuple(images)
    return Member(
        member.name,
        member.vertex_count,
        image(member.facets),
        involution,
        {k: image(v) for k, v in member.marks.items()},
        dict(member.expect),
    )


def validate(member: Member) -> SimplicialComplex:
    """Closed pseudomanifold, and a regular involution when one is given."""
    K = member.build()
    pseudomanifold_check(K)
    if member.involution is not None:
        tau = member.involution_on(K)
        if not tau.is_involution():
            raise ValueError(f"{member.name}: map does not square to the identity")
        if not is_regular(K, tau):
            raise ValueError(f"{member.name}: involution is not regular")
    return K


# ---------------------------------------------------------------------------
# surfaces for homology scaling
# ---------------------------------------------------------------------------


def _coned_squares(cells, corner, center_base):
    """Four triangles per square, coned at a fresh center vertex."""
    triangles = []
    for c, (i, j) in enumerate(cells):
        center = center_base + c
        a, b, d, e = corner(i, j), corner(i + 1, j), corner(i + 1, j + 1), corner(i, j + 1)
        for x, y in ((a, b), (b, d), (d, e), (e, a)):
            triangles.append(_sorted_simplex((center, x, y)))
    return triangles


def coned_torus(n: int) -> Member:
    K, _, _ = coned_grid_torus(n)
    return from_complex(f"torus{n}", K, expect={"betti": (1, 2, 1)})


def coned_klein(n: int) -> Member:
    """n x n coned grid whose second direction wraps with the flip i -> -i.

    The row j = 0 is the curve dual to w1: cutting along it leaves an
    annulus across which no orientation extends.
    """

    def corner(i, j):
        if (j // n) % 2:
            i = -i
        return (i % n) * n + (j % n)

    cells = [(i, j) for i in range(n) for j in range(n)]
    triangles = _coned_squares(cells, corner, n * n)
    K = SimplicialComplex.from_simplices(2 * n * n, triangles)
    w1dual = tuple(_sorted_simplex((corner(i, 0), corner(i + 1, 0))) for i in range(n))
    return from_complex(
        f"klein{n}", K, marks={"w1dual": w1dual}, expect={"betti": (1, 2, 1)}
    )


def subdivided(name: str, K: SimplicialComplex, times: int, betti) -> Member:
    for _ in range(times):
        K, _ = barycentric_subdivide(K)
    return from_complex(f"{name}_sd{times}", K, expect={"betti": tuple(betti)})


# ---------------------------------------------------------------------------
# real structures
# ---------------------------------------------------------------------------


def sphere_square_swap(name: str, S: SimplicialComplex) -> Member:
    """S^2 x S^2 with the factor swap; the fixed set is the diagonal sphere.

    Expected answers: the quotient is CP^2 with the diagonal as a conic, so
    the relative Betti numbers of (quotient, Fix) are 1 in degrees 4, 3, 2;
    the fixed set has total Betti 2 against 4, the inclusion kernel on H_2
    is zero, and the form x . t(y) is odd of rank 2.
    """
    P = product_complex(S, S)
    swap = factor_swap(P, S.vertex_count)
    return from_complex(
        name,
        P,
        swap,
        expect={
            "harnack": (2, 4, False),
            "smith_table": {4: 1, 3: 1, 2: 1},
            "kernel": 0,
            "form_dim": 2,
        },
    )


def swap_members():
    return [
        sphere_square_swap("tetra2", sphere_tetra()),
        sphere_square_swap("octa2", sphere_octa()),
    ]


def m_double(g: int, slots_per_side: int, rng) -> Member:
    """Genus-g M-double: a disk with g seeded square holes, doubled.

    The disk is a grid of side 3 * slots_per_side + 2, each square split by
    a diagonal that avoids joining two boundary vertices.  Holes sit on a
    lattice of slots three squares apart and two squares from the rim, so
    no edge joins two boundary circles.  The mirror fixes g + 1 ovals.
    """
    side = 3 * slots_per_side + 2
    slots = [(2 + 3 * a, 2 + 3 * b) for a in range(slots_per_side) for b in range(slots_per_side)]
    if g > len(slots):
        raise ValueError(f"genus {g} needs more than {len(slots)} hole slots")
    holes = set(rng.sample(slots, g))

    def corner(i, j):
        return i * (side + 1) + j

    boundary = {corner(i, j) for i in range(side + 1) for j in range(side + 1)
                if i in (0, side) or j in (0, side)}
    boundary |= {corner(i + di, j + dj) for (i, j) in holes for di in (0, 1) for dj in (0, 1)}
    triangles = []
    for i in range(side):
        for j in range(side):
            if (i, j) in holes:
                continue
            a, b, d, e = corner(i, j), corner(i + 1, j), corner(i + 1, j + 1), corner(i, j + 1)
            if a in boundary and d in boundary:
                triangles += [_sorted_simplex((a, b, e)), _sorted_simplex((b, d, e))]
            else:
                triangles += [_sorted_simplex((a, b, d)), _sorted_simplex((a, d, e))]
    H = SimplicialComplex.from_simplices((side + 1) ** 2, triangles)
    K, tau = double_along_boundary(H, boundary)
    return from_complex(
        f"mdouble_g{g}",
        K,
        tau,
        expect={"ovals": g + 1, "relative_h1": 2 * g},
    )


# ---------------------------------------------------------------------------
# covers
# ---------------------------------------------------------------------------


def _subdivide_edges(K: SimplicialComplex, edges):
    """Each edge of K as its two halves in the barycentric subdivision."""
    order = sorted(K.all_simplices(), key=lambda s: (len(s), s))
    rank = {s: i for i, s in enumerate(order)}
    out = []
    for a, b in edges:
        mid = rank[(a, b)]
        out.append(_sorted_simplex((rank[(a,)], mid)))
        out.append(_sorted_simplex((mid, rank[(b,)])))
    return tuple(out)


def octahedron_with_arcs(times: int) -> Member:
    """times-fold subdivided octahedron with two disjoint arcs between
    antipodal vertices; the branched double cover along both is a torus."""
    K = sphere_octa()
    arcs = {
        "arc1": ((0, 1), (1, 5)),
        "arc2": ((2, 4), (3, 4)),
    }
    for _ in range(times):
        arcs = {k: _subdivide_edges(K, v) for k, v in arcs.items()}
        K, _ = barycentric_subdivide(K)
    marks = {"arcs": arcs["arc1"] + arcs["arc2"]}
    return from_complex(
        f"octa_sd{times}", K, marks=marks, expect={"chi_branch": 4}
    )


# ---------------------------------------------------------------------------
# quadratic forms, integer matrices and lattices with known invariants
# ---------------------------------------------------------------------------

HYPERBOLIC = ((0, 1), (1, 0))


def _block_diagonal(blocks, n):
    rows = [0] * n
    at = 0
    for block in blocks:
        for i, row in enumerate(block):
            for j, e in enumerate(row):
                if e:
                    rows[at + i] |= 1 << (at + j)
        at += len(block)
    return Gf2Matrix(n, n, rows)


def random_gf2_basis(n: int, rng) -> Gf2Matrix:
    """A seeded invertible matrix: random row additions and a permutation."""
    rows = [1 << i for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        rows[i] ^= rows[j]
    rng.shuffle(rows)
    return Gf2Matrix(n, n, rows)


def _change_basis(q, evaluate, A: Gf2Matrix):
    """Gram and basis values of q in the basis given by the columns of A."""
    columns = [A.column(j) for j in range(q.dimension)]
    return A.transpose() * q.gram * A, tuple(evaluate(q, c) for c in columns)


def z4_form(n: int, rng):
    """Z4 form of dimension n with its Brown invariant, in a seeded basis.

    An orthogonal sum of rank-1 blocks <1> with q = 1 or 3 (Brown +1 or -1)
    and even hyperbolic blocks with q values in {0, 2} (Brown 4 exactly when
    both values are 2).  Returns (gram, values, brown).
    """
    blocks, values, brown = [], [], 0
    left = n
    while left:
        if left >= 2 and rng.random() < 0.5:
            a, b = rng.choice((0, 2)), rng.choice((0, 2))
            blocks.append(HYPERBOLIC)
            values += [a, b]
            brown += 4 if a == b == 2 else 0
            left -= 2
        else:
            v = rng.choice((1, 3))
            blocks.append(((1,),))
            values.append(v)
            brown += 1 if v == 1 else -1
            left -= 1
    gram = _block_diagonal(blocks, n)
    q = QForm4(gram, values)
    gram, values = _change_basis(q, evaluate_q4, random_gf2_basis(n, rng))
    return gram, values, brown % 8


def z2_form(n: int, rng):
    """Even Z2 form of even dimension n with its Arf invariant, seeded basis."""
    values, arf_value = [], 0
    for _ in range(n // 2):
        a, b = rng.randrange(2), rng.randrange(2)
        values += [a, b]
        arf_value ^= a & b
    gram = _block_diagonal([HYPERBOLIC] * (n // 2), n)
    q = QForm2(gram, values)
    gram, values = _change_basis(q, evaluate_q2, random_gf2_basis(n, rng))
    return gram, values, arf_value


def loop_table(kind: str, gram: Gf2Matrix, values, rng, checks: int) -> LoopTable:
    """Loop data whose formula values are the given basis values.

    Redundant entries for random non-basis classes carry the value the
    quadratic law gives them, so the table is consistent.
    """
    evaluate = evaluate_q2 if kind == "spin" else evaluate_q4
    q = QForm2(gram, values) if kind == "spin" else QForm4(gram, values)

    def data_for(value):
        k = rng.randint(1, 3)
        lambdas = [rng.randrange(2) for _ in range(k)]
        if kind == "spin":
            if (k + sum(lambdas)) % 2 != value:
                lambdas[0] ^= 1
            return LoopData(k, tuple(lambdas))
        rc = (value - 2 * sum(lambdas) - 2 * k) % 4 + 4 * rng.randrange(2)
        return LoopData(k, tuple(lambdas), rc)

    n = gram.nrows
    entries = tuple(data_for(v) for v in values)
    extra = []
    for _ in range(checks):
        cls = rng.randrange(1, 1 << n)
        extra.append((cls, data_for(evaluate(q, cls))))
    return LoopTable(kind, gram, entries, tuple(extra))


def unimodular_pair(n: int, rng, steps: int):
    """A seeded unimodular integer matrix and its inverse, as row lists."""
    P = [[int(i == j) for j in range(n)] for i in range(n)]
    Pinv = [row[:] for row in P]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        # P <- P E and Pinv <- E^-1 Pinv for E = I + c e_j e_i^T (column op)
        for row in P:
            row[i] += c * row[j]
        Pinv[j] = [a - c * b for a, b in zip(Pinv[j], Pinv[i])]
    return P, Pinv


def _matmul(A, B):
    cols = list(zip(*B))
    return [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in A]


def udv_matrix(m: int, n: int, rank: int, rng):
    """U * D * V with seeded unimodular U, V and a seeded divisor chain D.

    U and V are m and n seeded elementary row and column additions, applied
    to D directly.  Returns (rows, invariant factors).  The chain starts at
    1 and multiplies in a small prime at four seeded positions, so the
    answer is known and entries stay modest.
    """
    jumps = set(rng.sample(range(rank), 4))
    factors, d = [], 1
    for i in range(rank):
        if i in jumps:
            d *= rng.choice((2, 3, 5))
        factors.append(d)
    rows = [[0] * n for _ in range(m)]
    for i, f in enumerate(factors):
        rows[i][i] = f
    for _ in range(m):
        i, j = rng.sample(range(m), 2)
        c = rng.choice((-1, 1))
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    for _ in range(n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        for row in rows:
            row[i] += c * row[j]
    return rows, tuple(factors)


def signed_boundary_2(K: SimplicialComplex):
    """Integer boundary from oriented triangles to oriented edges."""
    edges = {e: i for i, e in enumerate(K.simplices(1))}
    rows = [[0] * K.n_simplices(2) for _ in edges]
    for j, (a, b, c) in enumerate(K.simplices(2)):
        rows[edges[(b, c)]][j] += 1
        rows[edges[(a, c)]][j] -= 1
        rows[edges[(a, b)]][j] += 1
    return rows


def swap_lattice(k: int, rng, presentation_size: int):
    """k hyperbolic planes with the swap isometry and its transfer data.

    The quotient contributes one class per plane, pulled back to (1, 1);
    the presentation matrix has odd invariant factors, so the torsion
    audit passes.  Everything is moved by a seeded unimodular basis change.
    Returns (lattice, expected presentation factors).
    """
    n = 2 * k
    gram = [[0] * n for _ in range(n)]
    swap = [[0] * n for _ in range(n)]
    pull = [[0] * k for _ in range(n)]
    for b in range(k):
        gram[2 * b][2 * b + 1] = gram[2 * b + 1][2 * b] = 1
        swap[2 * b][2 * b + 1] = swap[2 * b + 1][2 * b] = 1
        pull[2 * b][b] = pull[2 * b + 1][b] = 1
    push = [list(col) for col in zip(*pull)]
    P, Pinv = unimodular_pair(n, rng, n)
    Pt = [list(col) for col in zip(*P)]
    factors = tuple(rng.choice((1, 3, 5, 15)) for _ in range(presentation_size))
    factors = tuple(sorted(factors, key=lambda f: (f != 1, f)))
    chain, acc = [], 1
    for f in factors:
        acc = acc * f
        chain.append(acc)
    pres_rows = [[chain[i] if i == j else 0 for j in range(presentation_size)]
                 for i in range(presentation_size)]
    U, _ = unimodular_pair(presentation_size, rng, presentation_size)
    V, _ = unimodular_pair(presentation_size, rng, presentation_size)
    lattice = build_lattice(
        IntMatrix(_matmul(_matmul(Pt, gram), P)),
        IntMatrix(_matmul(_matmul(Pinv, swap), P)),
        presentation=IntMatrix(_matmul(_matmul(U, pres_rows), V)),
        transfer=QuotientTransferData(
            k, IntMatrix(_matmul(Pinv, pull)), IntMatrix(_matmul(push, P))
        ),
    )
    return lattice, tuple(chain)
